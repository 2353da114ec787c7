//! Recording and replaying request streams.
//!
//! A trace pins an exact stream of specifications to disk so a
//! simulation can be re-run bit-for-bit later (or against a different
//! cache configuration) without regenerating the workload — the
//! "trace-driven" in the paper's "trace-driven simulation".

use landlord_core::spec::Spec;
use serde::{Deserialize, Serialize};
use std::io::{BufReader, BufWriter};
use std::path::Path;

/// A recorded request stream plus provenance.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct Trace {
    /// Schema version for forward compatibility.
    pub version: u32,
    /// Free-form description of how the trace was generated.
    pub description: String,
    /// Seed of the generating workload (0 when hand-built).
    pub workload_seed: u64,
    /// The requests, in arrival order.
    pub requests: Vec<Spec>,
}

impl Trace {
    /// Current schema version.
    pub const VERSION: u32 = 1;

    /// Wrap a stream in a trace.
    pub fn new(description: impl Into<String>, workload_seed: u64, requests: Vec<Spec>) -> Self {
        Trace {
            version: Self::VERSION,
            description: description.into(),
            workload_seed,
            requests,
        }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Write as JSON.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        serde_json::to_writer(BufWriter::new(file), self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Read from JSON; rejects unknown schema versions.
    pub fn load(path: &Path) -> std::io::Result<Trace> {
        let file = std::fs::File::open(path)?;
        let trace: Trace = serde_json::from_reader(BufReader::new(file))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        if trace.version != Self::VERSION {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unsupported trace version {}", trace.version),
            ));
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use landlord_core::spec::PackageId;

    fn sample_trace() -> Trace {
        Trace::new(
            "test trace",
            7,
            vec![
                Spec::from_ids([1, 2].map(PackageId)),
                Spec::from_ids([3].map(PackageId)),
            ],
        )
    }

    #[test]
    fn save_load_round_trip() {
        let path = std::env::temp_dir().join(format!("landlord-trace-{}.json", std::process::id()));
        let t = sample_trace();
        t.save(&path).unwrap();
        let back = Trace::load(&path).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_checked() {
        let path =
            std::env::temp_dir().join(format!("landlord-trace-v-{}.json", std::process::id()));
        let mut t = sample_trace();
        t.version = 99;
        // Serialize manually (save doesn't check; load does).
        std::fs::write(&path, serde_json::to_vec(&t).unwrap()).unwrap();
        let err = Trace::load(&path).unwrap_err();
        assert!(err.to_string().contains("unsupported trace version"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unsorted_spec_is_a_load_error() {
        let path =
            std::env::temp_dir().join(format!("landlord-trace-u-{}.json", std::process::id()));
        std::fs::write(
            &path,
            r#"{"version":1,"description":"hand-edited","workload_seed":0,"requests":[[1,2],[130,1,2]]}"#,
        )
        .unwrap();
        let err = Trace::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("sorted"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new("empty", 0, Vec::new());
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
