//! A durable LANDLORD cache directory.
//!
//! `landlord submit` is the paper's deployment story: "on job
//! submission, LANDLORD first scans its configured cache directory for
//! existing images that are 'close' to the job's specification,
//! creates/updates images in the cache as necessary, and finally
//! launches the job inside the prepared container."
//!
//! Layout of a cache directory:
//!
//! ```text
//! <dir>/state.json      checkpoint: image index at the last compaction
//! <dir>/wal.log         append-only log of operations since
//! <dir>/objects/…       content-addressed store (shrinkwrap source)
//! <dir>/images/N.llimg  materialized container images
//! <dir>/quarantine/…    crash artifacts set aside by recovery
//! ```
//!
//! Decisions follow Algorithm 1 exactly (hit / merge / insert, then
//! LRU eviction down to the logical byte limit). Logical bytes — the
//! repository package sizes — drive all policy decisions; physical
//! bytes on disk are scaled down by the file-tree config so a laptop
//! can host a "terabyte" cache.
//!
//! ## Crash safety: WAL + checkpoints
//!
//! Earlier revisions rewrote the whole index (`state.json`) after
//! every submit — O(cache size) bytes per operation. The index is now
//! **log-structured**:
//!
//! * Every submit appends one checksummed record to `wal.log`
//!   (`landlord-wal` framing: length-prefix, sequence number, CRC-32)
//!   and fsyncs it. The fsynced append *is* the acknowledgement.
//! * Every `checkpoint_every` records, the folded state is written to
//!   `state.json` (checksummed `LLSTATE1` header, fsynced temp file,
//!   atomic rename, fsynced directory — the same idiom as before) with
//!   an `applied_seq` watermark, and the log is truncated.
//! * [`PersistentCache::open`] recovers by loading the newest valid
//!   checkpoint and replaying the log suffix past `applied_seq`. A
//!   torn log tail (crash mid-append) is quarantined and stripped; a
//!   sequence gap inside valid records is unrecoverable corruption and
//!   errors out rather than guessing.
//!
//! Image and object writes land — durably — *before* the record that
//! references them, so recovery restores exactly a prefix of the
//! acknowledged operations: the checkpoint, plus the replayable log
//! suffix, plus at most one fully-written-but-unacknowledged record.
//! Whatever a crash left beyond that (a stale `state.json.tmp`,
//! truncated or unindexed `.llimg` files, leftover object temp files,
//! a torn log tail) is quarantined or swept, restoring the invariants
//! [`PersistentCache::check_invariants`] demands.
//!
//! Every durability step consults a [`KillSwitch`], so the crash
//! matrix in `tests/failure_injection.rs` can deterministically kill
//! the process model at each point a real crash could land.
//!
//! ## Membership filter
//!
//! The hit scan is gated by an [`XorFilter`] over every package id
//! live in the cache (≈10 bits per key, fixed ≈0.39% false-positive
//! rate at millions of packages), rebuilt at each checkpoint with an
//! exact overlay for ids added since. A filter miss proves no cached
//! image can satisfy the spec, skipping the O(images) subset scan.

use landlord_core::cache::{make_evictor, plan_over_with_peek, CacheConfig, Evictor, PlannedOp};
use landlord_core::conflict::NoConflicts;
use landlord_core::filter::XorFilter;
use landlord_core::image::{Image, ImageId};
use landlord_core::policy::{DistanceMetric, EvictionPolicy, MergeOrder};
use landlord_core::spec::Spec;
use landlord_obs::{Counter, MetricsRegistry};
use landlord_repo::Repository;
use landlord_shrinkwrap::filetree::FileTreeConfig;
use landlord_shrinkwrap::{ImageReader, Shrinkwrap};
use landlord_store::fault::{FaultMode, FaultyStore};
use landlord_store::{ContentHash, DiskStore, KillPoint, KillSwitch};
use landlord_wal::Wal;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::io;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One image in the persistent index.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoredImage {
    /// Stable id (also the image file name).
    pub id: u64,
    /// Capability specification.
    pub spec: Spec,
    /// Logical bytes (policy accounting).
    pub logical_bytes: u64,
    /// Physical bytes of the LLIMG file.
    pub physical_bytes: u64,
    /// LRU clock of last use.
    pub last_used: u64,
    /// Submits this image has served (1 at build; merges carry the
    /// absorbed image's count forward). Feeds the frequency-aware
    /// eviction policies. Absent in states written before the
    /// eviction-policy upgrade — those deserialize to 0 and are
    /// treated as once-used.
    #[serde(default)]
    pub use_count: u64,
}

/// The checkpointed cache state.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct State {
    next_id: u64,
    clock: u64,
    /// WAL records below this sequence number are folded into this
    /// checkpoint; replay starts here. Absent (0) in states written
    /// before the log-structured format.
    #[serde(default)]
    applied_seq: u64,
    images: Vec<StoredImage>,
}

/// One logged operation: everything replay needs to reproduce the
/// submit's effect without re-planning.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct WalEntry {
    /// The LRU clock after this operation.
    clock: u64,
    /// The id counter after this operation.
    next_id: u64,
    op: WalOp,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum WalOp {
    /// A hit: bump `last_used` of an existing image to `clock`.
    Touch {
        /// The satisfying image.
        id: u64,
    },
    /// A merge: the union image was built under a fresh id; the
    /// absorbed image and any LRU victims go.
    Merge {
        /// The new union image (file already durable).
        image: StoredImage,
        /// The image the spec was merged into (its file is deleted).
        absorbed: u64,
        /// LRU victims evicted to restore the byte limit.
        evict: Vec<u64>,
    },
    /// A fresh image insert plus any LRU victims.
    Insert {
        /// The new image (file already durable).
        image: StoredImage,
        /// LRU victims evicted to restore the byte limit.
        evict: Vec<u64>,
    },
}

/// What `submit` did for a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// An existing image satisfied the spec.
    Hit {
        /// Path to the image to launch with.
        image: PathBuf,
    },
    /// A close image was merged and rebuilt (under a fresh id — the
    /// pre-merge image survives on disk until the merge is durable).
    Merged {
        /// Path to the merged image.
        image: PathBuf,
    },
    /// A fresh image was built.
    Inserted {
        /// Path to the new image.
        image: PathBuf,
    },
}

impl Decision {
    /// The image path for the job, whatever the decision was.
    pub fn image_path(&self) -> &Path {
        match self {
            Decision::Hit { image } | Decision::Merged { image } | Decision::Inserted { image } => {
                image
            }
        }
    }
}

/// What the recovery pass in [`PersistentCache::open`] had to clean up.
/// Replaying intact log records is *not* recovery — it is the normal
/// open path — so replay counts are deliberately absent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// A leftover `state.json.tmp` (crash mid-save) was quarantined.
    pub quarantined_tmp_state: bool,
    /// A torn `wal.log` tail (crash mid-append or mid-truncate) was
    /// quarantined and stripped.
    pub quarantined_wal_tail: bool,
    /// Index entries dropped because their image file was missing.
    pub dropped_missing_images: usize,
    /// Image files quarantined: truncated (size mismatch vs the index)
    /// or present on disk but absent from the index (crash between an
    /// image write and the record that would have indexed it).
    pub quarantined_images: usize,
    /// Leftover object-store temp files removed.
    pub removed_object_tmps: usize,
    /// `next_id` / `clock` had to be bumped past recovered entries.
    pub counters_bumped: bool,
}

impl RecoveryReport {
    /// True when open found nothing to repair.
    pub fn clean(&self) -> bool {
        *self == RecoveryReport::default()
    }
}

/// What [`PersistentCache::repair`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Images that failed a deep LLIMG parse and were quarantined.
    pub quarantined_images: usize,
    /// Orphaned objects pruned (only when a repository was supplied).
    pub pruned_objects: usize,
    /// Bytes freed by the prune.
    pub pruned_bytes: u64,
}

/// Header tag of a checksummed state file. The line is
/// `LLSTATE1 <32-hex-content-hash-of-payload>\n` followed by the JSON
/// payload the hash covers.
const STATE_MAGIC: &[u8] = b"LLSTATE1 ";

/// Default checkpoint cadence: WAL records accumulated before the
/// state is folded and the log truncated.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 64;

fn invalid_state(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Parse a state file, verifying its checksum header. A file without
/// the `LLSTATE1` header is refused: nothing vouches for its payload.
fn parse_state(bytes: &[u8]) -> io::Result<State> {
    let rest = bytes
        .strip_prefix(STATE_MAGIC)
        .ok_or_else(|| invalid_state("state file has no LLSTATE1 checksum header"))?;
    let nl = rest
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| invalid_state("state header is missing its newline"))?;
    let hex = std::str::from_utf8(&rest[..nl])
        .map_err(|_| invalid_state("state checksum is not UTF-8"))?;
    let expected = ContentHash::from_hex(hex.trim())
        .ok_or_else(|| invalid_state("state checksum is not a valid hash"))?;
    let payload = &rest[nl + 1..];
    if ContentHash::of(payload) != expected {
        return Err(invalid_state(
            "state checksum mismatch: torn or corrupted write",
        ));
    }
    serde_json::from_slice(payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Fsync a directory so a just-renamed entry survives power loss.
#[cfg(unix)]
fn fsync_dir(dir: &Path) -> io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

#[cfg(not(unix))]
fn fsync_dir(_dir: &Path) -> io::Result<()> {
    Ok(())
}

/// A unique destination under `<dir>/quarantine/` for `name`: repeated
/// crashes must never overwrite an earlier quarantined artifact.
fn quarantine_dest(dir: &Path, name: &str) -> io::Result<(PathBuf, PathBuf)> {
    let qdir = dir.join("quarantine");
    std::fs::create_dir_all(&qdir)?;
    let mut dest = qdir.join(name);
    let mut n = 1u32;
    while dest.exists() {
        dest = qdir.join(format!("{name}.{n}"));
        n += 1;
    }
    Ok((qdir, dest))
}

/// Move a crash artifact into `<dir>/quarantine/` under a unique name,
/// fsyncing the quarantine directory so the move itself survives a
/// crash during recovery.
fn quarantine(dir: &Path, path: &Path) -> io::Result<()> {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "unnamed".to_string());
    let (qdir, dest) = quarantine_dest(dir, &name)?;
    std::fs::rename(path, dest)?;
    fsync_dir(&qdir)
}

/// Preserve in-memory crash-artifact bytes (a stripped WAL tail) under
/// `<dir>/quarantine/<name>`, durably and without overwriting earlier
/// artifacts.
fn quarantine_bytes(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    let (qdir, dest) = quarantine_dest(dir, name)?;
    let mut f = std::fs::File::create(&dest)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    fsync_dir(&qdir)
}

/// Durably replace `<dir>/state.json` with `state`: checksummed
/// payload, fsynced temp file, atomic rename, fsynced parent
/// directory. A crash at any point leaves either the previous state or
/// this one intact — the kill-points model exactly those crashes.
fn write_state_file(dir: &Path, state: &State, kill: &KillSwitch) -> io::Result<()> {
    let json = serde_json::to_vec_pretty(state)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let mut bytes = Vec::with_capacity(STATE_MAGIC.len() + 33 + json.len());
    bytes.extend_from_slice(STATE_MAGIC);
    bytes.extend_from_slice(ContentHash::of(&json).to_hex().as_bytes());
    bytes.push(b'\n');
    bytes.extend_from_slice(&json);
    let tmp = dir.join("state.json.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        let split = bytes.len() / 2;
        f.write_all(&bytes[..split])?;
        kill.check(KillPoint::MidCheckpoint)?;
        f.write_all(&bytes[split..])?;
        f.sync_all()?;
    }
    std::fs::rename(tmp, dir.join("state.json"))?;
    kill.check(KillPoint::PostRenamePreDirFsync)?;
    fsync_dir(dir)
}

/// Apply one replayed log entry to `state`, returning the image ids
/// whose files the original submit deleted (the absorbed merge source
/// and LRU victims) — replay must delete them too if the crash landed
/// before the deletions. A reference to a nonexistent image is not a
/// crash shape (records are acked only after their images are durable
/// and indexed) and is reported as corruption.
fn replay_entry(state: &mut State, entry: &WalEntry) -> io::Result<Vec<u64>> {
    let mut deleted = Vec::new();
    match &entry.op {
        WalOp::Touch { id } => {
            let img = state
                .images
                .iter_mut()
                .find(|img| img.id == *id)
                .ok_or_else(|| invalid_state(format!("WAL touch references unknown image {id}")))?;
            img.last_used = entry.clock;
            img.use_count = img.use_count.saturating_add(1);
        }
        WalOp::Merge {
            image,
            absorbed,
            evict,
        } => {
            if !state.images.iter().any(|img| img.id == *absorbed) {
                return Err(invalid_state(format!(
                    "WAL merge absorbs unknown image {absorbed}"
                )));
            }
            state
                .images
                .retain(|img| img.id != *absorbed && !evict.contains(&img.id));
            state.images.push(image.clone());
            deleted.push(*absorbed);
            deleted.extend_from_slice(evict);
        }
        WalOp::Insert { image, evict } => {
            state.images.retain(|img| !evict.contains(&img.id));
            state.images.push(image.clone());
            deleted.extend_from_slice(evict);
        }
    }
    state.clock = entry.clock;
    state.next_id = entry.next_id;
    Ok(deleted)
}

/// Cached metric handles for the durable cache directory (see
/// `landlord-obs`). Counts decisions and the I/O they cause; the
/// backing [`DiskStore`] contributes its own `store.obj_*` counters.
struct PcObs {
    submits: std::sync::Arc<Counter>,
    hits: std::sync::Arc<Counter>,
    merges: std::sync::Arc<Counter>,
    inserts: std::sync::Arc<Counter>,
    images_built: std::sync::Arc<Counter>,
    image_bytes_written: std::sync::Arc<Counter>,
    wal_appends: std::sync::Arc<Counter>,
    checkpoints: std::sync::Arc<Counter>,
    filter_skips: std::sync::Arc<Counter>,
    evicted_images: std::sync::Arc<Counter>,
}

impl PcObs {
    fn new(registry: &MetricsRegistry) -> Self {
        PcObs {
            submits: registry.counter("persist.submits"),
            hits: registry.counter("persist.hits"),
            merges: registry.counter("persist.merges"),
            inserts: registry.counter("persist.inserts"),
            images_built: registry.counter("persist.images_built"),
            image_bytes_written: registry.counter("persist.image_bytes_written"),
            wal_appends: registry.counter("persist.wal_appends"),
            checkpoints: registry.counter("persist.state_saves"),
            filter_skips: registry.counter("persist.filter_skips"),
            evicted_images: registry.counter("persist.evicted_images"),
        }
    }
}

/// Everything [`PersistentCache::open_with`] can be configured with
/// beyond the policy basics: checkpoint cadence, store fault
/// injection, and the kill-point switch for crash tests.
pub struct PersistOptions {
    /// Merge threshold (Jaccard distance), in `[0, 1]`.
    pub alpha: f64,
    /// Logical byte budget driving eviction.
    pub limit_logical_bytes: u64,
    /// Which image to evict when over the byte budget. Any
    /// [`EvictionPolicy`] works: decisions are committed to the WAL,
    /// so replay reproduces them without re-deriving — stateful
    /// policies (S3-FIFO, sampled LHD) keep the recovery contract.
    pub eviction: EvictionPolicy,
    /// Seed for randomized victim selection (sampled LHD); decisions
    /// are a deterministic function of the submit stream and this
    /// seed.
    pub eviction_seed: u64,
    /// Package → file-tree scaling for image materialization.
    pub tree_config: FileTreeConfig,
    /// WAL records accumulated before a checkpoint folds them.
    pub checkpoint_every: u64,
    /// Fault injection for the backing object store.
    pub fault_mode: FaultMode,
    /// Kill-point switch consulted at every durability step.
    pub kill: Arc<KillSwitch>,
}

impl PersistOptions {
    /// Defaults: checkpoint every [`DEFAULT_CHECKPOINT_EVERY`] records,
    /// no store faults, no kill-points.
    pub fn new(alpha: f64, limit_logical_bytes: u64, tree_config: FileTreeConfig) -> Self {
        PersistOptions {
            alpha,
            limit_logical_bytes,
            eviction: EvictionPolicy::Lru,
            eviction_seed: 0,
            tree_config,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            fault_mode: FaultMode::None,
            kill: Arc::new(KillSwitch::never()),
        }
    }
}

/// A cache directory handle.
pub struct PersistentCache {
    dir: PathBuf,
    alpha: f64,
    limit_logical_bytes: u64,
    eviction: EvictionPolicy,
    eviction_seed: u64,
    tree_config: FileTreeConfig,
    checkpoint_every: u64,
    kill: Arc<KillSwitch>,
    store: FaultyStore<DiskStore>,
    state: State,
    wal: Wal,
    /// Live eviction state over the indexed images, rebuilt
    /// deterministically at open (images fed in id order) and advanced
    /// only by acknowledged operations. Victim decisions made from it
    /// are logged in the WAL's evict lists, so replay never consults
    /// it — byte-identical recovery holds for stateful policies too.
    evictor: Box<dyn Evictor>,
    /// Static membership filter over every package id live at the last
    /// checkpoint, plus the exact overlay of ids added since.
    filter: XorFilter,
    fresh_packages: HashSet<u64>,
    recovery: RecoveryReport,
    obs: Option<PcObs>,
}

impl PersistentCache {
    /// Open (or initialize) a cache directory with default options —
    /// see [`PersistentCache::open_with`] for the recovery contract.
    pub fn open(
        dir: &Path,
        alpha: f64,
        limit_logical_bytes: u64,
        tree_config: FileTreeConfig,
    ) -> io::Result<Self> {
        Self::open_with(
            dir,
            PersistOptions::new(alpha, limit_logical_bytes, tree_config),
        )
    }

    /// Open (or initialize) a cache directory, recovering to exactly a
    /// prefix of the acknowledged operations:
    ///
    /// 1. quarantine a leftover `state.json.tmp`;
    /// 2. load the checkpoint (checksummed; corruption is an error,
    ///    never a panic — the operator decides whether to discard it);
    /// 3. open the WAL, quarantining and stripping a torn tail;
    /// 4. replay records past the checkpoint's `applied_seq` (a
    ///    sequence gap is unrecoverable corruption);
    /// 5. drop index entries whose image file is missing or truncated,
    ///    quarantine unindexed image files, sweep leftover object temp
    ///    files, and re-bump the id/clock counters;
    /// 6. if anything needed repair, checkpoint the repaired state.
    pub fn open_with(dir: &Path, options: PersistOptions) -> io::Result<Self> {
        let PersistOptions {
            alpha,
            limit_logical_bytes,
            eviction,
            eviction_seed,
            tree_config,
            checkpoint_every,
            fault_mode,
            kill,
        } = options;
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        assert!(checkpoint_every >= 1, "checkpoint cadence must be >= 1");
        std::fs::create_dir_all(dir.join("images"))?;
        let store = FaultyStore::new(DiskStore::open(&dir.join("objects"))?, fault_mode);
        let mut recovery = RecoveryReport::default();

        // A leftover temp state means a crash mid-checkpoint; the
        // durable state.json still holds the previous consistent save.
        let tmp_state = dir.join("state.json.tmp");
        if tmp_state.exists() {
            quarantine(dir, &tmp_state)?;
            recovery.quarantined_tmp_state = true;
        }

        let state_path = dir.join("state.json");
        let had_state = state_path.exists();
        let mut state = if had_state {
            parse_state(&std::fs::read(&state_path)?)?
        } else {
            State::default()
        };

        // Open the log, stripping (and preserving) whatever a crash
        // tore off the end.
        let opened = Wal::open(&dir.join("wal.log"), Arc::clone(&kill))?;
        let mut wal = opened.wal;
        if !opened.torn_tail.is_empty() {
            quarantine_bytes(dir, "wal.tail", &opened.torn_tail)?;
            recovery.quarantined_wal_tail = true;
        }

        // Replay the suffix past the checkpoint. Records the checkpoint
        // already folded are skipped; a log that *starts* past the
        // watermark is missing acknowledged operations — unrecoverable.
        if let Some(first) = opened.records.first() {
            if first.seq > state.applied_seq {
                return Err(invalid_state(format!(
                    "WAL starts at sequence {} but the checkpoint covers only up to {}: \
                     acknowledged records are missing",
                    first.seq, state.applied_seq
                )));
            }
        }
        for record in &opened.records {
            if record.seq < state.applied_seq {
                continue;
            }
            let entry: WalEntry = serde_json::from_slice(&record.payload)
                .map_err(|e| invalid_state(format!("WAL record {} is corrupt: {e}", record.seq)))?;
            // Files the original submit deleted after the ack: finish
            // the deletion if the crash landed in between. Silent —
            // this is replay, not damage.
            for id in replay_entry(&mut state, &entry)? {
                let path = dir.join("images").join(format!("{id}.llimg"));
                if path.exists() {
                    std::fs::remove_file(&path)?;
                }
            }
        }
        // A fully stale log (checkpoint newer than every record —
        // a crash between checkpoint rename and log truncation) is
        // compacted now, so new appends continue past the watermark.
        if state.applied_seq > wal.next_seq() {
            wal.truncate_for_compaction()?;
            wal.set_next_seq(state.applied_seq)?;
        }

        // Drop entries whose image file a crash lost or truncated.
        // Truncation is detectable because the index records the exact
        // physical size of every complete image.
        let mut kept = Vec::with_capacity(state.images.len());
        for img in std::mem::take(&mut state.images) {
            let path = dir.join("images").join(format!("{}.llimg", img.id));
            match std::fs::metadata(&path) {
                Ok(m) if m.len() == img.physical_bytes => kept.push(img),
                Ok(_) => {
                    quarantine(dir, &path)?;
                    recovery.quarantined_images += 1;
                    recovery.dropped_missing_images += 1;
                }
                Err(_) => recovery.dropped_missing_images += 1,
            }
        }
        state.images = kept;

        // Image files the index does not know about: a crash between an
        // image write and the WAL record that would have indexed it.
        let indexed: HashSet<u64> = state.images.iter().map(|img| img.id).collect();
        for entry in std::fs::read_dir(dir.join("images"))? {
            let path = entry?.path();
            let known = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_suffix(".llimg"))
                .and_then(|stem| stem.parse::<u64>().ok())
                .is_some_and(|id| indexed.contains(&id));
            if !known {
                quarantine(dir, &path)?;
                recovery.quarantined_images += 1;
            }
        }

        // Leftover object temp files from a crashed put. The store
        // index never reads them, so deleting is safe.
        for fanout in std::fs::read_dir(dir.join("objects"))? {
            let fanout = fanout?.path();
            if !fanout.is_dir() {
                continue;
            }
            for obj in std::fs::read_dir(&fanout)? {
                let path = obj?.path();
                let is_tmp = path
                    .extension()
                    .and_then(|e| e.to_str())
                    .is_some_and(|e| e.starts_with("tmp"));
                if is_tmp {
                    std::fs::remove_file(&path)?;
                    recovery.removed_object_tmps += 1;
                }
            }
        }

        // Counters must stay ahead of every surviving entry.
        let max_id = state.images.iter().map(|img| img.id).max();
        if let Some(max_id) = max_id {
            if state.next_id <= max_id {
                state.next_id = max_id + 1;
                recovery.counters_bumped = true;
            }
        }
        let max_used = state.images.iter().map(|img| img.last_used).max();
        if let Some(max_used) = max_used {
            if state.clock < max_used {
                state.clock = max_used;
                recovery.counters_bumped = true;
            }
        }

        let filter = build_filter(&state);
        let evictor = rebuild_evictor(eviction, eviction_seed, limit_logical_bytes, &state);
        let mut cache = PersistentCache {
            dir: dir.to_path_buf(),
            alpha,
            limit_logical_bytes,
            eviction,
            eviction_seed,
            tree_config,
            checkpoint_every,
            kill,
            store,
            state,
            wal,
            evictor,
            filter,
            fresh_packages: HashSet::new(),
            recovery,
            obs: None,
        };
        // A brand-new directory gets its initial (empty) checkpoint so
        // `state.json` always exists; a repaired directory gets its
        // repairs folded and the stale log compacted away.
        if !had_state || !cache.recovery.clean() {
            cache.checkpoint()?;
        }
        Ok(cache)
    }

    /// What recovery had to clean up when this handle was opened.
    pub fn last_recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Register `persist.*` counters (decisions, image builds, WAL
    /// appends, checkpoints, evictions) and the backing store's
    /// `store.obj_*` I/O counters in `registry`. Subsequent operations
    /// record into it.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.obs = Some(PcObs::new(registry));
        self.store.inner_mut().attach_metrics(registry);
    }

    /// Check the durable-state invariants; an `Err` means the directory
    /// is corrupted in a way recovery should have fixed.
    pub fn check_invariants(&self) -> io::Result<()> {
        let mut ids = HashSet::new();
        for img in &self.state.images {
            if !ids.insert(img.id) {
                return Err(invalid_state(format!("duplicate image id {}", img.id)));
            }
            if img.id >= self.state.next_id {
                return Err(invalid_state(format!(
                    "image id {} >= next_id {}",
                    img.id, self.state.next_id
                )));
            }
            if img.last_used > self.state.clock {
                return Err(invalid_state(format!(
                    "image {} last_used {} is ahead of clock {}",
                    img.id, img.last_used, self.state.clock
                )));
            }
            let path = self.image_path(img.id);
            let len = std::fs::metadata(&path)
                .map_err(|_| invalid_state(format!("image file missing: {}", path.display())))?
                .len();
            if len != img.physical_bytes {
                return Err(invalid_state(format!(
                    "image {} is {} bytes on disk, index says {}",
                    img.id, len, img.physical_bytes
                )));
            }
            // The membership filter must never produce a false miss.
            for p in img.spec.iter() {
                let key = u64::from(p.0);
                if !self.filter.contains(key) && !self.fresh_packages.contains(&key) {
                    return Err(invalid_state(format!(
                        "membership filter misses live package {key} of image {}",
                        img.id
                    )));
                }
            }
        }
        // The live eviction state must track exactly the indexed
        // images — a drifted evictor would eventually select victims
        // the index does not know.
        if self.evictor.len() != self.state.images.len() {
            return Err(invalid_state(format!(
                "evictor tracks {} images, index holds {}",
                self.evictor.len(),
                self.state.images.len()
            )));
        }
        Ok(())
    }

    /// Deep repair: re-parse every image file and quarantine the ones
    /// whose LLIMG payload is corrupt (recovery only checks sizes);
    /// with a repository, also prune objects no surviving image
    /// references.
    pub fn repair(&mut self, repo: Option<&Repository>) -> io::Result<RepairReport> {
        let mut report = RepairReport::default();
        let mut kept = Vec::with_capacity(self.state.images.len());
        for img in std::mem::take(&mut self.state.images) {
            let path = self.image_path(img.id);
            let parses = match std::fs::File::open(&path) {
                Ok(f) => ImageReader::parse(f).is_ok(),
                Err(_) => false,
            };
            if parses {
                kept.push(img);
            } else {
                quarantine(&self.dir, &path)?;
                report.quarantined_images += 1;
            }
        }
        self.state.images = kept;
        if report.quarantined_images > 0 {
            // The eviction state tracked the quarantined images; rebuild
            // it from the surviving index, exactly as a fresh open would.
            self.evictor = rebuild_evictor(
                self.eviction,
                self.eviction_seed,
                self.limit_logical_bytes,
                &self.state,
            );
        }
        if let Some(repo) = repo {
            let (count, bytes) = self.prune(repo)?;
            report.pruned_objects = count;
            report.pruned_bytes = bytes;
        }
        if report.quarantined_images > 0 {
            self.checkpoint()?;
        }
        Ok(report)
    }

    /// Images currently cached.
    pub fn images(&self) -> &[StoredImage] {
        &self.state.images
    }

    /// Total logical bytes cached.
    pub fn total_logical_bytes(&self) -> u64 {
        self.state.images.iter().map(|i| i.logical_bytes).sum()
    }

    /// The content-addressed object store backing the images.
    pub fn store(&self) -> &DiskStore {
        self.store.inner()
    }

    /// A deterministic JSON report of the logical cache state (images
    /// sorted by id). Two caches that applied the same operations —
    /// one crash-free, one recovered — render byte-identical reports.
    pub fn state_report_json(&self) -> String {
        // Owned, non-generic: the vendored serde derive shim does not
        // handle lifetime parameters.
        #[derive(Serialize)]
        struct Report {
            next_id: u64,
            clock: u64,
            images: Vec<StoredImage>,
        }
        let mut images: Vec<StoredImage> = self.state.images.to_vec();
        images.sort_by_key(|img| img.id);
        let report = Report {
            next_id: self.state.next_id,
            clock: self.state.clock,
            images,
        };
        serde_json::to_string_pretty(&report).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }

    fn image_path(&self, id: u64) -> PathBuf {
        self.dir.join("images").join(format!("{id}.llimg"))
    }

    /// Could any cached image possibly satisfy `spec`? `false` is a
    /// proof of a miss (the filter has no false negatives over live
    /// packages); `true` means the subset scan must run.
    fn superset_possible(&self, spec: &Spec) -> bool {
        spec.iter().all(|p| {
            let key = u64::from(p.0);
            self.filter.contains(key) || self.fresh_packages.contains(&key)
        })
    }

    /// Append one entry to the WAL and fsync it — the durability
    /// acknowledgement for the operation it describes.
    fn append_entry(&mut self, entry: &WalEntry) -> io::Result<u64> {
        let payload =
            serde_json::to_vec(entry).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let seq = self.wal.append(&payload)?;
        if let Some(obs) = &self.obs {
            obs.wal_appends.inc();
        }
        Ok(seq)
    }

    /// Fold the current state into `state.json` and truncate the log.
    /// Also rebuilds the membership filter (the overlay set resets).
    fn checkpoint(&mut self) -> io::Result<()> {
        self.state.applied_seq = self.wal.next_seq();
        write_state_file(&self.dir, &self.state, &self.kill)?;
        self.wal.truncate_for_compaction()?;
        self.filter = build_filter(&self.state);
        self.fresh_packages.clear();
        if let Some(obs) = &self.obs {
            obs.checkpoints.inc();
        }
        Ok(())
    }

    fn maybe_checkpoint(&mut self) -> io::Result<()> {
        if self.wal.next_seq() - self.state.applied_seq >= self.checkpoint_every {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// The victims that restoring the byte limit would evict once
    /// `incoming` lands (and `absorbed`, if any, is gone), decided by
    /// the configured [`EvictionPolicy`]. Selection runs on a *clone*
    /// of the live eviction state ([`Evictor::clone_box`]) that the
    /// caller installs only after the WAL acknowledges the operation —
    /// a failed or killed submit never disturbs the live state. The
    /// victim list is logged, so replay reproduces the decision without
    /// re-deriving it.
    fn plan_evictions(
        &self,
        incoming: &StoredImage,
        absorbed: Option<u64>,
    ) -> (Vec<u64>, Box<dyn Evictor>) {
        let mut evictor = self.evictor.clone_box();
        let mut live: std::collections::HashMap<u64, &StoredImage> =
            self.state.images.iter().map(|img| (img.id, img)).collect();
        let mut total: u64 = self.state.images.iter().map(|img| img.logical_bytes).sum();
        if let Some(absorbed) = absorbed {
            if let Some(img) = live.remove(&absorbed) {
                evictor.on_remove(&transient_image(img));
                total -= img.logical_bytes;
            }
        }
        evictor.on_insert(&transient_image(incoming));
        total += incoming.logical_bytes;

        let mut evict = Vec::new();
        let protect = ImageId(incoming.id);
        while total > self.limit_logical_bytes {
            let Some(victim) = evictor.select_victim(Some(protect)) else {
                break;
            };
            let Some(img) = live.remove(&victim.0) else {
                break;
            };
            let gone = transient_image(img);
            evictor.note_eviction(&gone);
            evictor.on_remove(&gone);
            total -= img.logical_bytes;
            evict.push(victim.0);
        }
        (evict, evictor)
    }

    /// Remove evicted image files (after the record evicting them is
    /// durable).
    fn delete_image_files(&self, ids: &[u64]) -> io::Result<()> {
        for &id in ids {
            let path = self.image_path(id);
            if path.exists() {
                std::fs::remove_file(path)?;
            }
            if let Some(obs) = &self.obs {
                obs.evicted_images.inc();
            }
        }
        Ok(())
    }

    fn build_image(&self, repo: &Repository, id: u64, spec: &Spec) -> io::Result<StoredImage> {
        let sw = Shrinkwrap::new(repo, &self.store, self.tree_config);
        let path = self.image_path(id);
        let report = sw.build_to_path(spec, &path)?;
        // The image must be durable before any record that references
        // it is; recovery treats a size mismatch as a torn write.
        let f = std::fs::File::open(&path)?;
        f.sync_all()?;
        let physical_bytes = f.metadata()?.len();
        if let Some(obs) = &self.obs {
            obs.images_built.inc();
            obs.image_bytes_written.add(physical_bytes);
        }
        Ok(StoredImage {
            id,
            spec: spec.clone(),
            logical_bytes: report.logical_bytes,
            physical_bytes,
            last_used: 0,
            use_count: 1,
        })
    }

    /// Note a spec's packages as live for the membership filter.
    fn note_packages(&mut self, spec: &Spec) {
        for p in spec.iter() {
            let key = u64::from(p.0);
            if !self.filter.contains(key) {
                self.fresh_packages.insert(key);
            }
        }
    }

    /// Process one job specification (Algorithm 1), materializing
    /// images on disk as needed. The spec must already include its
    /// dependency closure.
    ///
    /// The hit / merge / insert decision comes from the same planner
    /// the in-memory engine uses ([`plan_over_with_peek`], the paper's
    /// configuration: nearest-first candidates, package-count Jaccard,
    /// CVMFS semantics so nothing conflicts); this store only executes
    /// it against disk. The membership filter gates the hit scan.
    ///
    /// Durability order, per decision: image file first (fsynced), WAL
    /// record second (the fsynced append is the acknowledgement),
    /// evicted files deleted last. A crash anywhere leaves a state
    /// [`PersistentCache::open`] restores to a prefix of acknowledged
    /// submits.
    pub fn submit(&mut self, repo: &Repository, spec: &Spec) -> io::Result<Decision> {
        if let Some(obs) = &self.obs {
            obs.submits.inc();
        }
        let now = self.state.clock + 1;

        let superset_possible = self.superset_possible(spec);
        if let Some(obs) = &self.obs {
            if !superset_possible {
                obs.filter_skips.inc();
            }
        }
        let entries: Vec<(u64, &Spec, u64)> = self
            .state
            .images
            .iter()
            .map(|img| (img.id, &img.spec, img.logical_bytes))
            .collect();
        let sizes = repo.size_table();
        let op = plan_over_with_peek(
            &entries,
            spec,
            self.alpha,
            MergeOrder::NearestFirst,
            DistanceMetric::PackageCount,
            &sizes,
            &NoConflicts,
            superset_possible,
        );
        drop(entries);

        match op {
            PlannedOp::Hit { image } => {
                let entry = WalEntry {
                    clock: now,
                    next_id: self.state.next_id,
                    op: WalOp::Touch { id: image.0 },
                };
                self.append_entry(&entry)?; // ← acknowledgement
                self.state.clock = now;
                let img = self
                    .state
                    .images
                    .iter_mut()
                    .find(|img| img.id == image.0)
                    .expect("planned hit image is indexed");
                img.last_used = now;
                img.use_count = img.use_count.saturating_add(1);
                let touched = transient_image(img);
                self.evictor.on_touch(&touched);
                self.note_packages(spec);
                self.maybe_checkpoint()?;
                if let Some(obs) = &self.obs {
                    obs.hits.inc();
                }
                Ok(Decision::Hit {
                    image: self.image_path(image.0),
                })
            }
            PlannedOp::Merge { image, .. } => {
                let old = self
                    .state
                    .images
                    .iter()
                    .find(|img| img.id == image.0)
                    .expect("planned merge image is indexed")
                    .clone();
                let merged_spec = old.spec.union(spec);
                // The union is built under a *fresh* id: the pre-merge
                // image stays intact on disk until the merge record is
                // acknowledged, so an unacknowledged merge loses
                // nothing (the orphaned build is quarantined on open).
                let new_id = self.state.next_id;
                let mut built = self.build_image(repo, new_id, &merged_spec)?;
                built.last_used = now;
                // Engine merge semantics: the union inherits the
                // absorbed image's use count, plus this request.
                built.use_count = old.use_count.saturating_add(1);
                let (victims, evictor) = self.plan_evictions(&built, Some(old.id));
                let mut evict = vec![old.id];
                evict.extend(victims.iter().copied());
                let entry = WalEntry {
                    clock: now,
                    next_id: new_id + 1,
                    op: WalOp::Merge {
                        image: built.clone(),
                        absorbed: old.id,
                        evict: victims,
                    },
                };
                self.append_entry(&entry)?; // ← acknowledgement
                self.evictor = evictor;
                self.state.clock = now;
                self.state.next_id = new_id + 1;
                self.state.images.retain(|img| !evict.contains(&img.id));
                self.state.images.push(built);
                self.delete_image_files(&evict)?;
                self.note_packages(spec);
                self.maybe_checkpoint()?;
                if let Some(obs) = &self.obs {
                    obs.merges.inc();
                }
                Ok(Decision::Merged {
                    image: self.image_path(new_id),
                })
            }
            PlannedOp::Insert => {
                let id = self.state.next_id;
                let mut built = self.build_image(repo, id, spec)?;
                built.last_used = now;
                let (evict, evictor) = self.plan_evictions(&built, None);
                let entry = WalEntry {
                    clock: now,
                    next_id: id + 1,
                    op: WalOp::Insert {
                        image: built.clone(),
                        evict: evict.clone(),
                    },
                };
                self.append_entry(&entry)?; // ← acknowledgement
                self.evictor = evictor;
                self.state.clock = now;
                self.state.next_id = id + 1;
                self.state.images.retain(|img| !evict.contains(&img.id));
                self.state.images.push(built);
                self.delete_image_files(&evict)?;
                self.note_packages(spec);
                self.maybe_checkpoint()?;
                if let Some(obs) = &self.obs {
                    obs.inserts.inc();
                }
                Ok(Decision::Inserted {
                    image: self.image_path(id),
                })
            }
        }
    }
}

/// The engine-side view of a stored image, for feeding evictor
/// lifecycle events. Logical bytes play the role of the engine's image
/// bytes; a legacy index without use counts reads as once-used.
fn transient_image(img: &StoredImage) -> Image {
    let mut t = Image::new(
        ImageId(img.id),
        img.spec.clone(),
        img.logical_bytes,
        img.last_used,
    );
    t.use_count = img.use_count.max(1);
    t
}

/// Rebuild the in-memory eviction state from a recovered index: every
/// surviving image is replayed into a fresh evictor in id order.
/// Deterministic, so two opens of the same directory agree on future
/// victims; past decisions never depend on it (replay reads the evict
/// lists the WAL recorded).
fn rebuild_evictor(
    eviction: EvictionPolicy,
    eviction_seed: u64,
    limit_logical_bytes: u64,
    state: &State,
) -> Box<dyn Evictor> {
    let config = CacheConfig {
        eviction,
        eviction_seed,
        limit_bytes: limit_logical_bytes,
        ..CacheConfig::default()
    };
    let mut evictor = make_evictor(&config);
    let mut images: Vec<&StoredImage> = state.images.iter().collect();
    images.sort_by_key(|img| img.id);
    for img in images {
        evictor.on_insert(&transient_image(img));
    }
    evictor
}

/// Build the membership filter over every package id live in `state`.
fn build_filter(state: &State) -> XorFilter {
    let mut keys: Vec<u64> = Vec::new();
    for img in &state.images {
        keys.extend(img.spec.iter().map(|p| u64::from(p.0)));
    }
    XorFilter::build(&keys)
}

/// Garbage collection over a cache directory's object store.
///
/// Image evictions delete the `.llimg` files but leave their source
/// objects behind (another live image may share them). These methods
/// find — and optionally delete — objects no live image references.
impl PersistentCache {
    /// Hashes of every object referenced by the live images, recomputed
    /// deterministically from their specs and the tree config.
    fn live_hashes(
        &self,
        repo: &Repository,
    ) -> std::collections::HashSet<landlord_store::ContentHash> {
        use landlord_shrinkwrap::filetree;
        let mut live = std::collections::HashSet::new();
        for img in &self.state.images {
            for pkg in img.spec.iter() {
                for file in filetree::package_tree(repo.meta(pkg), &self.tree_config) {
                    live.insert(landlord_store::ContentHash::of(&filetree::file_contents(
                        &file,
                    )));
                }
            }
        }
        live
    }

    /// Objects in the store that no live image references.
    pub fn orphaned_objects(&self, repo: &Repository) -> Vec<landlord_store::ContentHash> {
        use landlord_store::ObjectStore;
        let live = self.live_hashes(repo);
        self.store()
            .hashes()
            .into_iter()
            .filter(|h| !live.contains(h))
            .collect()
    }

    /// Delete every orphaned object; returns `(objects, bytes)` freed.
    pub fn prune(&self, repo: &Repository) -> io::Result<(usize, u64)> {
        let orphans = self.orphaned_objects(repo);
        let mut freed = 0u64;
        for &hash in &orphans {
            freed += self.store().remove(hash)?;
        }
        Ok((orphans.len(), freed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use landlord_core::spec::PackageId;
    use landlord_repo::RepoConfig;
    use landlord_shrinkwrap::ImageReader;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "landlord-pc-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn repo() -> Repository {
        Repository::generate(&RepoConfig::small_for_tests(61))
    }

    #[test]
    fn insert_hit_merge_cycle() {
        let dir = temp_dir("cycle");
        let r = repo();
        let mut cache =
            PersistentCache::open(&dir, 0.9, u64::MAX, FileTreeConfig::miniature()).unwrap();

        let a = r.closure_spec(&[PackageId(r.package_count() as u32 - 1)]);
        let d1 = cache.submit(&r, &a).unwrap();
        assert!(matches!(d1, Decision::Inserted { .. }));
        assert!(d1.image_path().exists());

        let d2 = cache.submit(&r, &a).unwrap();
        assert!(matches!(d2, Decision::Hit { .. }));

        // A near spec merges: the same closure plus one more seed.
        let b = r.closure_spec(&[
            PackageId(r.package_count() as u32 - 1),
            PackageId(r.package_count() as u32 - 2),
        ]);
        let d3 = cache.submit(&r, &b).unwrap();
        assert!(matches!(d3, Decision::Merged { .. }), "got {d3:?}");
        assert_eq!(cache.images().len(), 1);
        assert!(
            !d1.image_path().exists(),
            "absorbed image file is deleted after the merge is durable"
        );

        // The merged image file is a valid LLIMG covering the union.
        let img = ImageReader::parse(std::fs::File::open(d3.image_path()).unwrap()).unwrap();
        assert!(!img.is_empty());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn attached_metrics_count_decisions_and_io() {
        use landlord_obs::LogicalClock;
        use std::sync::Arc;

        let dir = temp_dir("metrics");
        let r = repo();
        let registry = MetricsRegistry::new(Arc::new(LogicalClock::new()));
        let mut cache =
            PersistentCache::open(&dir, 0.9, u64::MAX, FileTreeConfig::miniature()).unwrap();
        cache.attach_metrics(&registry);

        let a = r.closure_spec(&[PackageId(r.package_count() as u32 - 1)]);
        assert!(matches!(
            cache.submit(&r, &a).unwrap(),
            Decision::Inserted { .. }
        ));
        assert!(matches!(
            cache.submit(&r, &a).unwrap(),
            Decision::Hit { .. }
        ));
        let b = r.closure_spec(&[
            PackageId(r.package_count() as u32 - 1),
            PackageId(r.package_count() as u32 - 2),
        ]);
        assert!(matches!(
            cache.submit(&r, &b).unwrap(),
            Decision::Merged { .. }
        ));

        let snap = registry.snapshot();
        assert_eq!(snap.counters.get("persist.submits"), Some(&3));
        assert_eq!(snap.counters.get("persist.hits"), Some(&1));
        assert_eq!(snap.counters.get("persist.merges"), Some(&1));
        assert_eq!(snap.counters.get("persist.inserts"), Some(&1));
        assert_eq!(snap.counters.get("persist.images_built"), Some(&2));
        // Every submit appends exactly one record; below the cadence,
        // nothing checkpoints.
        assert_eq!(snap.counters.get("persist.wal_appends"), Some(&3));
        assert_eq!(snap.counters.get("persist.state_saves"), Some(&0));
        // The very first submit finds an empty cache: the filter
        // proves the miss and the hit scan is skipped.
        assert!(snap.counters.get("persist.filter_skips").copied() >= Some(1));
        assert!(snap.counters.get("persist.image_bytes_written").copied() > Some(0));
        // The backing store's I/O counters ride along.
        assert!(snap.counters.get("store.obj_puts").copied() > Some(0));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn state_survives_reopen() {
        let dir = temp_dir("reopen");
        let r = repo();
        let spec = r.closure_spec(&[PackageId(0)]);
        {
            let mut cache =
                PersistentCache::open(&dir, 0.8, u64::MAX, FileTreeConfig::miniature()).unwrap();
            cache.submit(&r, &spec).unwrap();
        }
        let mut cache =
            PersistentCache::open(&dir, 0.8, u64::MAX, FileTreeConfig::miniature()).unwrap();
        assert!(cache.last_recovery().clean(), "normal replay is not damage");
        assert_eq!(cache.images().len(), 1);
        let d = cache.submit(&r, &spec).unwrap();
        assert!(
            matches!(d, Decision::Hit { .. }),
            "persisted image must hit"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hits_append_to_wal_without_rewriting_state() {
        let dir = temp_dir("walhit");
        let r = repo();
        let spec = r.closure_spec(&[PackageId(0)]);
        let mut cache =
            PersistentCache::open(&dir, 0.8, u64::MAX, FileTreeConfig::miniature()).unwrap();
        cache.submit(&r, &spec).unwrap();
        let state_before = std::fs::read(dir.join("state.json")).unwrap();
        let wal_before = std::fs::metadata(dir.join("wal.log")).unwrap().len();
        for _ in 0..5 {
            assert!(matches!(
                cache.submit(&r, &spec).unwrap(),
                Decision::Hit { .. }
            ));
        }
        assert_eq!(
            std::fs::read(dir.join("state.json")).unwrap(),
            state_before,
            "hits must not rewrite the checkpoint"
        );
        assert!(
            std::fs::metadata(dir.join("wal.log")).unwrap().len() > wal_before,
            "hits append to the log"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_cadence_compacts_the_log() {
        let dir = temp_dir("walckpt");
        let r = repo();
        let mut options = PersistOptions::new(0.0, u64::MAX, FileTreeConfig::miniature());
        options.checkpoint_every = 3;
        let mut cache = PersistentCache::open_with(&dir, options).unwrap();
        let n = r.package_count() as u32;
        for i in 0..3 {
            cache
                .submit(&r, &r.closure_spec(&[PackageId(n - 1 - i)]))
                .unwrap();
        }
        // The third submit crossed the cadence: log truncated to magic.
        assert_eq!(
            std::fs::metadata(dir.join("wal.log")).unwrap().len(),
            landlord_wal::MAGIC.len() as u64,
            "checkpoint must truncate the log"
        );
        // And the checkpoint alone reproduces the cache.
        drop(cache);
        let cache =
            PersistentCache::open(&dir, 0.0, u64::MAX, FileTreeConfig::miniature()).unwrap();
        assert_eq!(cache.images().len(), 3);
        cache.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eviction_removes_files() {
        let dir = temp_dir("evict");
        let r = repo();
        // Tiny logical limit forces eviction after the second insert.
        let first = r.closure_spec(&[PackageId(r.package_count() as u32 - 1)]);
        let first_bytes: u64 = first.iter().map(|p| r.meta(p).bytes).sum();
        let mut cache =
            PersistentCache::open(&dir, 0.0, first_bytes + 1, FileTreeConfig::miniature()).unwrap();
        let d1 = cache.submit(&r, &first).unwrap();
        // A disjoint-ish second spec (alpha 0 forbids merging anyway).
        let second = r.closure_spec(&[PackageId(r.package_count() as u32 - 7)]);
        let d2 = cache.submit(&r, &second).unwrap();
        assert!(matches!(d2, Decision::Inserted { .. }));
        assert_eq!(cache.images().len(), 1, "first image evicted");
        assert!(!d1.image_path().exists(), "evicted file must be deleted");
        assert!(d2.image_path().exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn open_default(dir: &Path) -> io::Result<PersistentCache> {
        PersistentCache::open(dir, 0.8, u64::MAX, FileTreeConfig::miniature())
    }

    /// Populate a directory with two images and return it.
    fn populated(tag: &str) -> (PathBuf, Repository) {
        let dir = temp_dir(tag);
        let r = repo();
        let n = r.package_count() as u32;
        let mut cache = PersistentCache::open(&dir, 0.0, u64::MAX, FileTreeConfig::miniature())
            .expect("open fresh");
        cache
            .submit(&r, &r.closure_spec(&[PackageId(n - 1)]))
            .unwrap();
        cache
            .submit(&r, &r.closure_spec(&[PackageId(n - 7)]))
            .unwrap();
        (dir, r)
    }

    #[test]
    fn state_file_is_checksummed_and_round_trips() {
        let (dir, _r) = populated("ckfmt");
        let raw = std::fs::read(dir.join("state.json")).unwrap();
        assert!(raw.starts_with(b"LLSTATE1 "), "state carries its header");
        let cache = open_default(&dir).unwrap();
        assert!(cache.last_recovery().clean(), "clean dir needs no recovery");
        assert_eq!(cache.images().len(), 2);
        cache.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_truncated_and_empty_state_error_without_panic() {
        let (dir, _r) = populated("ckbad");
        let state = dir.join("state.json");
        let good = std::fs::read(&state).unwrap();

        // Truncated mid-payload: the checksum catches it.
        std::fs::write(&state, &good[..good.len() / 2]).unwrap();
        assert!(open_default(&dir).is_err(), "truncated state must error");

        // Flipped payload byte: also caught.
        let mut flipped = good.clone();
        let last = flipped.len() - 2;
        flipped[last] ^= 0x40;
        std::fs::write(&state, &flipped).unwrap();
        assert!(open_default(&dir).is_err(), "corrupted state must error");

        // Empty file: parses as neither header nor JSON.
        std::fs::write(&state, b"").unwrap();
        assert!(open_default(&dir).is_err(), "empty state must error");

        // Garbage JSON.
        std::fs::write(&state, b"{\"next_id\": \"not a number\"").unwrap();
        assert!(open_default(&dir).is_err(), "garbage state must error");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn headerless_state_is_refused_and_verify_exits_2() {
        let (dir, _r) = populated("ckheaderless");
        let raw = std::fs::read(dir.join("state.json")).unwrap();
        let nl = raw.iter().position(|&b| b == b'\n').unwrap();
        // Strip the header: a plain-JSON state that still parses, but
        // that no checksum vouches for.
        std::fs::write(dir.join("state.json"), &raw[nl + 1..]).unwrap();
        let err = open_default(&dir)
            .err()
            .expect("a header-less state must not open");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("LLSTATE1"), "{err}");
        let args =
            crate::args::Args::parse(["--cache-dir", dir.to_str().unwrap()].map(String::from))
                .unwrap();
        let verdict = crate::commands::verify(&args);
        assert_eq!(crate::commands::exit_code(&verdict), 2, "{verdict:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The WAL's reason to exist, held as a floor: at 100,000 images,
    /// appending one log record must cost at least 10x less than
    /// rewriting the whole state file, and the checkpoint plus the
    /// replayed log suffix must still load every image. Debug builds
    /// time the serializer, not the I/O model, so this runs only in
    /// release.
    #[test]
    #[ignore = "release-only timing floor: cargo test --release -p landlord-cli --lib \
                wal_append_beats_full_rewrite -- --ignored"]
    fn wal_append_beats_full_rewrite_at_100k_images() {
        const IMAGES: u64 = 100_000;
        const REWRITE_OPS: u64 = 4;
        const APPEND_OPS: u64 = 256;
        const REPLAY_RECORDS: u64 = 256;
        let dir = temp_dir("walfloor");
        std::fs::create_dir_all(&dir).unwrap();
        let mut state = State {
            next_id: IMAGES,
            clock: IMAGES,
            ..State::default()
        };
        for id in 0..IMAGES {
            let base = (id as u32).wrapping_mul(4);
            state.images.push(StoredImage {
                id,
                spec: Spec::from_ids([base, base + 1, base + 2, base + 3].map(PackageId)),
                logical_bytes: 4096,
                physical_bytes: 4096,
                last_used: id,
                use_count: 1,
            });
        }
        let touch = |i: u64| {
            let entry = WalEntry {
                clock: IMAGES + i,
                next_id: IMAGES,
                op: WalOp::Touch { id: i % IMAGES },
            };
            serde_json::to_vec(&entry).unwrap()
        };

        // Pre-WAL model: every operation rewrites the index.
        let kill = KillSwitch::never();
        let start = std::time::Instant::now();
        for i in 0..REWRITE_OPS {
            // Touch something so the serializer cannot be elided.
            state.clock = IMAGES + i;
            write_state_file(&dir, &state, &kill).unwrap();
        }
        let rewrite_ns = start.elapsed().as_nanos() / u128::from(REWRITE_OPS);

        // WAL model: every operation appends one record.
        let wal_path = dir.join("floor-wal.log");
        let mut wal = Wal::open(&wal_path, Arc::new(KillSwitch::never()))
            .unwrap()
            .wal;
        let start = std::time::Instant::now();
        for i in 0..APPEND_OPS {
            wal.append(&touch(i)).unwrap();
        }
        let append_ns = start.elapsed().as_nanos() / u128::from(APPEND_OPS);
        let speedup = rewrite_ns as f64 / append_ns.max(1) as f64;
        eprintln!(
            "{IMAGES} images: rewrite {rewrite_ns} ns/op, wal append {append_ns} ns/op ({speedup:.1}x)"
        );

        // Open path: the checkpoint plus a replayed log suffix.
        wal.truncate_for_compaction().unwrap();
        for i in 0..REPLAY_RECORDS {
            wal.append(&touch(i)).unwrap();
        }
        drop(wal);
        let mut loaded = parse_state(&std::fs::read(dir.join("state.json")).unwrap()).unwrap();
        let opened = Wal::open(&wal_path, Arc::new(KillSwitch::never())).unwrap();
        assert_eq!(opened.records.len() as u64, REPLAY_RECORDS);
        for record in &opened.records {
            let entry: WalEntry = serde_json::from_slice(&record.payload).unwrap();
            replay_entry(&mut loaded, &entry).unwrap();
        }
        assert_eq!(
            loaded.images.len() as u64,
            IMAGES,
            "replay must load every image"
        );
        assert!(
            speedup >= 10.0,
            "WAL append must beat a full state rewrite by >= 10x at {IMAGES} images, got {speedup:.1}x"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn leftover_tmp_state_is_quarantined() {
        let (dir, _r) = populated("cktmp");
        std::fs::write(dir.join("state.json.tmp"), b"torn half-written state").unwrap();
        let cache = open_default(&dir).unwrap();
        assert!(cache.last_recovery().quarantined_tmp_state);
        assert!(!dir.join("state.json.tmp").exists());
        assert!(dir.join("quarantine").join("state.json.tmp").exists());
        assert_eq!(cache.images().len(), 2, "durable state unaffected");
        cache.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_wal_tail_is_quarantined_and_stripped() {
        let (dir, _r) = populated("cktail");
        // Tear the log mid-frame, as a crash mid-append would.
        let wal_path = dir.join("wal.log");
        let mut bytes = std::fs::read(&wal_path).unwrap();
        bytes.extend_from_slice(&[0x7f; 9]); // half a frame header
        std::fs::write(&wal_path, &bytes).unwrap();

        let cache = open_default(&dir).unwrap();
        assert!(cache.last_recovery().quarantined_wal_tail);
        assert!(dir.join("quarantine").join("wal.tail").exists());
        assert_eq!(cache.images().len(), 2, "intact records still replay");
        cache.check_invariants().unwrap();
        drop(cache);
        // Recovery checkpointed: a second open is clean.
        let cache = open_default(&dir).unwrap();
        assert!(cache.last_recovery().clean());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repeated_crashes_never_overwrite_quarantined_artifacts() {
        let (dir, _r) = populated("ckquniq");
        for round in 0..3 {
            std::fs::write(
                dir.join("state.json.tmp"),
                format!("torn state from crash {round}"),
            )
            .unwrap();
            let cache = open_default(&dir).unwrap();
            assert!(cache.last_recovery().quarantined_tmp_state);
        }
        let qdir = dir.join("quarantine");
        let mut names: Vec<String> = std::fs::read_dir(&qdir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("state.json.tmp"))
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                "state.json.tmp".to_string(),
                "state.json.tmp.1".to_string(),
                "state.json.tmp.2".to_string()
            ],
            "each crash artifact keeps its own quarantine entry"
        );
        // And the contents are the three distinct artifacts.
        for (i, name) in names.iter().enumerate() {
            let content = std::fs::read_to_string(qdir.join(name)).unwrap();
            assert_eq!(content, format!("torn state from crash {i}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_image_is_quarantined_and_dropped() {
        let (dir, r) = populated("cktorn");
        let victim = {
            let cache = open_default(&dir).unwrap();
            cache.images()[0].clone()
        };
        let path = dir.join("images").join(format!("{}.llimg", victim.id));
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();

        let mut cache = open_default(&dir).unwrap();
        let rec = cache.last_recovery();
        assert_eq!(rec.quarantined_images, 1);
        assert_eq!(rec.dropped_missing_images, 1);
        assert_eq!(cache.images().len(), 1, "torn image forgotten");
        assert!(!path.exists());
        cache.check_invariants().unwrap();
        // The spec is servable again: it just rebuilds.
        cache.submit(&r, &victim.spec).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unindexed_image_and_object_tmps_are_swept() {
        let (dir, _r) = populated("ckstray");
        // An image written right before a crash that never got indexed.
        std::fs::write(dir.join("images").join("999.llimg"), b"almost an image").unwrap();
        // A torn object put.
        let fan = dir.join("objects").join("ab");
        std::fs::create_dir_all(&fan).unwrap();
        std::fs::write(fan.join("deadbeef.tmp1234"), b"half an object").unwrap();

        let cache = open_default(&dir).unwrap();
        let rec = cache.last_recovery();
        assert_eq!(rec.quarantined_images, 1);
        assert_eq!(rec.removed_object_tmps, 1);
        assert!(!dir.join("images").join("999.llimg").exists());
        assert!(!fan.join("deadbeef.tmp1234").exists());
        cache.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_sequence_gap_is_unrecoverable() {
        let (dir, _r) = populated("ckgap");
        // Rewrite the log with records that start past the checkpoint's
        // watermark: acknowledged history is missing.
        let entry = WalEntry {
            clock: 99,
            next_id: 99,
            op: WalOp::Touch { id: 0 },
        };
        let payload = serde_json::to_vec(&entry).unwrap();
        let mut bytes = landlord_wal::MAGIC.to_vec();
        bytes.extend_from_slice(&landlord_wal::encode_frame(40, &payload).unwrap());
        std::fs::write(dir.join("wal.log"), &bytes).unwrap();
        let err = open_default(&dir).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("acknowledged records are missing"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repair_quarantines_deep_corruption_and_prunes() {
        let (dir, r) = populated("ckrepair");
        let victim_id = {
            let cache = open_default(&dir).unwrap();
            cache.images()[0].id
        };
        // Same length, garbage content: size recovery can't see it,
        // only a deep parse can.
        let path = dir.join("images").join(format!("{victim_id}.llimg"));
        let len = std::fs::metadata(&path).unwrap().len() as usize;
        std::fs::write(&path, vec![0x5a; len]).unwrap();

        let mut cache = open_default(&dir).unwrap();
        assert!(cache.last_recovery().clean(), "sizes all match");
        let report = cache.repair(Some(&r)).unwrap();
        assert_eq!(report.quarantined_images, 1);
        assert!(
            report.pruned_objects > 0,
            "quarantined image must orphan objects"
        );
        assert_eq!(cache.images().len(), 1);
        cache.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovered_report_matches_uncrashed_replay() {
        // The golden determinism property in miniature: a cache that
        // reopened (checkpoint + replay) renders the same report as the
        // handle that never closed.
        let dir = temp_dir("ckgolden");
        let r = repo();
        let n = r.package_count() as u32;
        let live_report = {
            let mut cache = open_default(&dir).unwrap();
            cache
                .submit(&r, &r.closure_spec(&[PackageId(n - 1)]))
                .unwrap();
            cache
                .submit(&r, &r.closure_spec(&[PackageId(n - 7)]))
                .unwrap();
            cache
                .submit(&r, &r.closure_spec(&[PackageId(n - 1)]))
                .unwrap();
            cache.state_report_json()
        };
        let reopened = open_default(&dir).unwrap();
        assert!(reopened.last_recovery().clean());
        assert_eq!(
            reopened.state_report_json(),
            live_report,
            "replay must reproduce the live state byte-for-byte"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod gc_tests {
    use super::*;
    use landlord_core::spec::PackageId;
    use landlord_repo::RepoConfig;
    use landlord_store::ObjectStore;

    #[test]
    fn eviction_orphans_objects_and_prune_reclaims_them() {
        let dir = std::env::temp_dir().join(format!(
            "landlord-pc-gc-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let repo = Repository::generate(&RepoConfig::small_for_tests(61));
        let n = repo.package_count() as u32;

        // Limit sized to hold exactly one image at a time; alpha 0
        // forbids merging, so the second submit evicts the first.
        let first = repo.closure_spec(&[PackageId(n - 1)]);
        let first_bytes: u64 = first.iter().map(|p| repo.meta(p).bytes).sum();
        let mut cache = PersistentCache::open(
            &dir,
            0.0,
            first_bytes + 1,
            landlord_shrinkwrap::filetree::FileTreeConfig::miniature(),
        )
        .unwrap();

        cache.submit(&repo, &first).unwrap();
        assert!(
            cache.orphaned_objects(&repo).is_empty(),
            "everything live initially"
        );

        let second = repo.closure_spec(&[PackageId(n - 7)]);
        cache.submit(&repo, &second).unwrap();
        assert_eq!(cache.images().len(), 1, "first image evicted");

        let orphans = cache.orphaned_objects(&repo);
        assert!(!orphans.is_empty(), "evicted image must orphan objects");

        let before = cache.store().stored_bytes();
        let (count, freed) = cache.prune(&repo).unwrap();
        assert_eq!(count, orphans.len());
        assert!(freed > 0);
        assert_eq!(cache.store().stored_bytes(), before - freed);
        assert!(
            cache.orphaned_objects(&repo).is_empty(),
            "prune is complete"
        );

        // The live image still verifies: pruning touched only garbage.
        let live_img = cache.images()[0].clone();
        let d = cache.submit(&repo, &live_img.spec).unwrap();
        assert!(matches!(d, Decision::Hit { .. }));

        std::fs::remove_dir_all(&dir).ok();
    }
}
