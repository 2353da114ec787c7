//! Saving and loading repositories.
//!
//! Generated universes are cheap to regenerate from a seed, but the CLI
//! lets users pin an exact universe to disk (`landlord gen-repo`) so
//! separate invocations — and separate *sites* in the multi-site
//! example — are guaranteed to agree on package ids and sizes.

use crate::Repository;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

/// Errors from repository persistence.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed JSON or schema mismatch.
    Format(serde_json::Error),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "repository I/O error: {e}"),
            PersistError::Format(e) => write!(f, "repository format error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Format(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Format(e)
    }
}

/// Write a repository as JSON.
pub fn save_json(repo: &Repository, path: &Path) -> Result<(), PersistError> {
    let file = std::fs::File::create(path)?;
    let mut writer = BufWriter::new(file);
    serde_json::to_writer(&mut writer, repo)?;
    writer.flush()?;
    Ok(())
}

/// Read a repository from JSON.
pub fn load_json(path: &Path) -> Result<Repository, PersistError> {
    let file = std::fs::File::open(path)?;
    let reader = BufReader::new(file);
    Ok(serde_json::from_reader(reader)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::RepoConfig;

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join("landlord-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repo.json");

        let repo = Repository::generate(&RepoConfig::small_for_tests(33));
        save_json(&repo, &path).unwrap();
        let back = load_json(&path).unwrap();

        assert_eq!(back.package_count(), repo.package_count());
        assert_eq!(back.total_bytes(), repo.total_bytes());
        assert_eq!(back.graph().edge_count(), repo.graph().edge_count());
        // Closures agree, i.e. the graph survived intact.
        let seed = [landlord_core::spec::PackageId(
            repo.package_count() as u32 - 1,
        )];
        assert_eq!(back.closure_spec(&seed), repo.closure_spec(&seed));

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn round_trip_is_byte_identical_and_resolves_alike() {
        let dir = std::env::temp_dir().join("landlord-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let first = dir.join("bytes-first.json");
        let second = dir.join("bytes-second.json");

        let repo = Repository::generate(&RepoConfig::small_for_tests(34));
        // A resolved closure must leave no trace in the file.
        let _ = repo.closure_spec(&[landlord_core::spec::PackageId(0)]);
        save_json(&repo, &first).unwrap();
        let back = load_json(&first).unwrap();
        save_json(&back, &second).unwrap();
        assert_eq!(
            std::fs::read(&first).unwrap(),
            std::fs::read(&second).unwrap()
        );

        let ids: Vec<_> = (0..repo.package_count() as u32)
            .map(landlord_core::spec::PackageId)
            .collect();
        for p in &ids {
            let seed = std::slice::from_ref(p);
            assert_eq!(back.closure_spec(seed), repo.closure_spec(seed));
        }
        assert_eq!(
            back.closure_spec(&ids[100..]),
            repo.closure_spec(&ids[100..])
        );

        std::fs::remove_file(&first).ok();
        std::fs::remove_file(&second).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        let err = load_json(Path::new("/nonexistent/landlord/repo.json")).unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
        assert!(err.to_string().contains("I/O"));
    }

    #[test]
    fn load_garbage_errors() {
        let dir = std::env::temp_dir().join("landlord-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, b"{not json").unwrap();
        let err = load_json(&path).unwrap_err();
        assert!(matches!(err, PersistError::Format(_)));
        std::fs::remove_file(&path).ok();
    }
}
