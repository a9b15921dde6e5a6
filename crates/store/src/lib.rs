//! Persistent content-addressed result store.
//!
//! [`ResultStore`] maps 64-bit content fingerprints (the
//! `rchls-core` synthesis cache keys) to opaque JSON payloads on disk,
//! so synthesized results survive process restarts and can be shared by
//! a fleet of processes working the same design space. The store is the
//! second cache tier behind the in-memory LRU: a memory miss probes the
//! store, and a fresh synthesis writes its result back.
//!
//! Design rules (specified in `docs/store.md`):
//!
//! * **Sharded layout** — an entry for key `k` lives at
//!   `objects/<hh>/<hh>/<16-hex>.json` where `hh` are the two leading
//!   byte pairs of the key's hex form, keeping directories small at
//!   millions of entries.
//! * **Schema-versioned entries** — every file starts with a one-line
//!   JSON header (`magic`, `schema_version`, `fingerprint`,
//!   `payload_bytes`) followed by the payload line. Readers from a
//!   different schema era refuse the entry instead of misparsing it.
//! * **Atomic writes** — entries are written to `tmp/` and renamed into
//!   place, so a crash mid-write never leaves a half-entry under a live
//!   key; concurrent writers of the same key race benignly (both write
//!   the same deterministic content).
//! * **Corruption is quarantined, never trusted** — a truncated,
//!   misheadered, or wrongly-keyed entry is moved to `quarantine/` and
//!   reported as [`Lookup::Quarantined`]; the caller treats it as a
//!   miss and re-synthesizes. A wrong report is never returned.
//!
//! The store knows nothing about synthesis: payloads are opaque strings
//! (in practice JSON documents produced by `rchls-core`). That keeps
//! this crate dependency-light and the on-disk format stable against
//! engine evolution — payload-level schema changes are the header
//! version's job.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

mod gc;

pub use gc::{GcPolicy, GcReport};

/// The on-disk entry schema version. Bump when the header or payload
/// envelope changes shape; readers quarantine entries from other eras.
pub const STORE_SCHEMA_VERSION: u32 = 1;

/// The magic tag every entry header carries.
pub const STORE_MAGIC: &str = "rchls-store";

/// One lookup's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// The entry exists, validated end to end; here is its payload.
    Hit(String),
    /// No entry under this key.
    Miss,
    /// An entry existed but failed validation (truncated, wrong schema
    /// version, wrong fingerprint, unreadable header). It has been
    /// moved to `quarantine/` and the caller should treat the lookup as
    /// a miss.
    Quarantined,
}

/// A store-level failure (I/O on open or save).
#[derive(Debug)]
pub struct StoreError {
    op: &'static str,
    path: PathBuf,
    reason: String,
}

impl StoreError {
    fn new(op: &'static str, path: &Path, reason: impl fmt::Display) -> StoreError {
        StoreError {
            op,
            path: path.to_path_buf(),
            reason: reason.to_string(),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "store {} {}: {}",
            self.op,
            self.path.display(),
            self.reason
        )
    }
}

impl std::error::Error for StoreError {}

/// The one-line JSON header that opens every entry file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct EntryHeader {
    magic: String,
    schema_version: u32,
    fingerprint: u64,
    payload_bytes: u64,
}

/// Size and health counters of a store directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Live entries under `objects/`.
    pub objects: u64,
    /// Total bytes of the live entry files.
    pub object_bytes: u64,
    /// Files parked under `quarantine/`.
    pub quarantined: u64,
}

/// Monotone process-wide sequence for unique tmp/quarantine names
/// (combined with the process id, so concurrent processes on the same
/// store never collide). Deliberately process-wide rather than
/// per-instance: two `ResultStore` handles to the same root in one
/// process share the pid, and per-instance counters both starting at 0
/// would mint the same scratch name and truncate each other's
/// in-flight writes.
static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// A content-addressed result store rooted at one directory.
///
/// All methods take `&self`; the store is safe to share across threads
/// (writes are atomic renames, reads validate what they find).
#[derive(Debug)]
pub struct ResultStore {
    root: PathBuf,
}

impl ResultStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] when the directory skeleton cannot be
    /// created (permissions, `root` is a file, ...).
    pub fn open(root: impl Into<PathBuf>) -> Result<ResultStore, StoreError> {
        let root = root.into();
        for sub in ["objects", "tmp", "quarantine"] {
            let dir = root.join(sub);
            std::fs::create_dir_all(&dir).map_err(|e| StoreError::new("open", &dir, e))?;
        }
        Ok(ResultStore { root })
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The object path of `key`: `objects/<hh>/<hh>/<16-hex>.json`.
    fn object_path(&self, key: u64) -> PathBuf {
        let hex = format!("{key:016x}");
        self.root
            .join("objects")
            .join(&hex[0..2])
            .join(&hex[2..4])
            .join(format!("{hex}.json"))
    }

    /// A unique scratch file name (process id + process-wide sequence —
    /// no clocks or randomness, so writes stay deterministic to trace).
    fn scratch_name(&self, hex: &str, ext: &str) -> String {
        let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        format!("{hex}.{}.{n}.{ext}", std::process::id())
    }

    /// Looks up `key`, validating the entry end to end. Invalid entries
    /// are moved to `quarantine/` and reported as
    /// [`Lookup::Quarantined`].
    #[must_use]
    pub fn load(&self, key: u64) -> Lookup {
        self.load_file(&self.object_path(key), key)
    }

    /// Atomically writes `payload` under `key` (write to `tmp/`, then
    /// rename into place).
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] when the write or rename fails; the
    /// store is left without a partial entry under `key`.
    pub fn save(&self, key: u64, payload: &str) -> Result<(), StoreError> {
        self.save_file(&self.object_path(key), key, payload)
    }

    /// Moves the entry under `key` (if any) to `quarantine/`. Used by
    /// callers whose *payload-level* validation fails on an entry whose
    /// envelope was intact — e.g. a report that no longer deserializes
    /// after an engine schema change. Returns `true` when a file was
    /// quarantined.
    pub fn quarantine_object(&self, key: u64) -> bool {
        self.quarantine_file(&self.object_path(key))
    }

    /// Every live object key, ascending. (Directory listings come back
    /// in filesystem order; sorting makes iteration deterministic.)
    #[must_use]
    pub fn keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .object_files()
            .iter()
            .filter_map(|p| key_of(p))
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Size and health counters of this store.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let files = self.object_files();
        let object_bytes = files
            .iter()
            .map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
            .sum();
        StoreStats {
            objects: files.len() as u64,
            object_bytes,
            quarantined: count_files(&self.root.join("quarantine")),
        }
    }

    /// Evicts entries per `policy` (age cutoff first, then
    /// oldest-first down to the byte budget). See [`GcPolicy`].
    #[must_use]
    pub fn gc(&self, policy: GcPolicy) -> GcReport {
        gc::run(self, policy)
    }

    /// Every live entry file under `objects/`, sorted by path for
    /// deterministic iteration.
    pub(crate) fn object_files(&self) -> Vec<PathBuf> {
        let mut files = Vec::new();
        for d1 in sorted_dir(&self.root.join("objects")) {
            for d2 in sorted_dir(&d1) {
                files.extend(sorted_dir(&d2).into_iter().filter(|p| p.is_file()));
            }
        }
        files
    }

    fn load_file(&self, path: &Path, key: u64) -> Lookup {
        let mut text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Lookup::Miss,
            // Unreadable (permissions, not UTF-8, a directory in the
            // way): park it like any other invalid entry.
            Err(_) => {
                self.quarantine_file(path);
                return Lookup::Quarantined;
            }
        };
        match rchls_chaos::faultpoint!("store.read") {
            // A torn read hands validation half the file; the length
            // framing must reject it.
            Some(rchls_chaos::Fault::Torn) => text.truncate(text.len() / 2),
            // Any other injected fault behaves like the unreadable-file
            // arm above.
            Some(_) => {
                self.quarantine_file(path);
                return Lookup::Quarantined;
            }
            None => {}
        }
        match validate_entry(&text, key) {
            Ok(payload) => Lookup::Hit(payload.to_owned()),
            Err(_) => {
                self.quarantine_file(path);
                Lookup::Quarantined
            }
        }
    }

    fn save_file(&self, path: &Path, key: u64, payload: &str) -> Result<(), StoreError> {
        let header = EntryHeader {
            magic: STORE_MAGIC.to_owned(),
            schema_version: STORE_SCHEMA_VERSION,
            fingerprint: key,
            payload_bytes: payload.len() as u64,
        };
        let header_line =
            serde_json::to_string(&header).map_err(|e| StoreError::new("save", path, e))?;
        let tmp = self
            .root
            .join("tmp")
            .join(self.scratch_name(&format!("{key:016x}"), "tmp"));
        let write = |tmp: &Path| -> std::io::Result<()> {
            let mut f = std::fs::File::create(tmp)?;
            match rchls_chaos::faultpoint!("store.write") {
                // A torn write: intact header, payload cut short, no
                // terminator — then published as if nothing happened.
                // The reader's length framing must quarantine it.
                Some(rchls_chaos::Fault::Torn) => {
                    f.write_all(header_line.as_bytes())?;
                    f.write_all(b"\n")?;
                    f.write_all(&payload.as_bytes()[..payload.len() / 2])?;
                    return f.sync_all();
                }
                Some(_) => return Err(rchls_chaos::injected_io_error("store.write")),
                None => {}
            }
            f.write_all(header_line.as_bytes())?;
            f.write_all(b"\n")?;
            f.write_all(payload.as_bytes())?;
            f.write_all(b"\n")?;
            if rchls_chaos::faultpoint!("store.write.fsync").is_some() {
                return Err(rchls_chaos::injected_io_error("store.write.fsync"));
            }
            f.sync_all()
        };
        if let Err(e) = write(&tmp) {
            let _ = std::fs::remove_file(&tmp);
            return Err(StoreError::new("save", &tmp, e));
        }
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| StoreError::new("save", parent, e))?;
        }
        if rchls_chaos::faultpoint!("store.write.rename").is_some() {
            let _ = std::fs::remove_file(&tmp);
            return Err(StoreError::new(
                "save",
                path,
                rchls_chaos::injected_io_error("store.write.rename"),
            ));
        }
        std::fs::rename(&tmp, path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            StoreError::new("save", path, e)
        })
    }

    /// Best-effort move of `path` into `quarantine/` under a unique
    /// name. A failed move (entry raced away, exotic filesystem) falls
    /// back to deletion — an invalid entry must never stay live.
    fn quarantine_file(&self, path: &Path) -> bool {
        if !path.exists() {
            return false;
        }
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("entry")
            .to_owned();
        let dest = self
            .root
            .join("quarantine")
            .join(self.scratch_name(&stem, "json"));
        std::fs::rename(path, &dest)
            .or_else(|_| std::fs::remove_file(path))
            .is_ok()
    }

    /// The modification time of the entry under `key`, if it exists
    /// (the gc eviction clock).
    pub(crate) fn object_mtime(&self, path: &Path) -> SystemTime {
        std::fs::metadata(path)
            .and_then(|m| m.modified())
            .unwrap_or(SystemTime::UNIX_EPOCH)
    }
}

/// Validates one entry file's text against `key`, returning the payload
/// slice on success and the failure reason otherwise.
fn validate_entry(text: &str, key: u64) -> Result<&str, String> {
    let (header_line, rest) = text
        .split_once('\n')
        .ok_or_else(|| "missing payload line".to_owned())?;
    let header: EntryHeader =
        serde_json::from_str(header_line).map_err(|e| format!("unreadable header: {e}"))?;
    if header.magic != STORE_MAGIC {
        return Err(format!("bad magic {:?}", header.magic));
    }
    if header.schema_version != STORE_SCHEMA_VERSION {
        return Err(format!(
            "schema version {} (this reader speaks {STORE_SCHEMA_VERSION})",
            header.schema_version
        ));
    }
    if header.fingerprint != key {
        return Err(format!(
            "fingerprint {:016x} does not match the key {key:016x}",
            header.fingerprint
        ));
    }
    // The payload line must be exactly `payload_bytes` long and
    // newline-terminated — anything else is a truncated or padded file.
    let expected = header.payload_bytes as usize;
    if rest.len() != expected + 1 || !rest.ends_with('\n') {
        return Err(format!(
            "payload is {} bytes, header declares {expected}",
            rest.len().saturating_sub(usize::from(rest.ends_with('\n')))
        ));
    }
    Ok(&rest[..expected])
}

/// The key a live entry file encodes, if its name is `<16-hex>.json`.
fn key_of(path: &Path) -> Option<u64> {
    let stem = path.file_stem()?.to_str()?;
    if path.extension()?.to_str()? != "json" || stem.len() != 16 {
        return None;
    }
    u64::from_str_radix(stem, 16).ok()
}

/// The entries of `dir`, sorted by path (empty when unreadable).
fn sorted_dir(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries.filter_map(|e| e.ok().map(|e| e.path())).collect(),
        Err(_) => Vec::new(),
    };
    out.sort();
    out
}

fn count_files(dir: &Path) -> u64 {
    sorted_dir(dir).iter().filter(|p| p.is_file()).count() as u64
}

/// Ages `path`'s modification time to `mtime` — test-only hook for gc's
/// age policy (production code never rewrites mtimes).
#[doc(hidden)]
pub fn set_file_mtime(path: &Path, mtime: SystemTime) -> std::io::Result<()> {
    let f = std::fs::File::options().append(true).open(path)?;
    f.set_times(std::fs::FileTimes::new().set_modified(mtime))
}

/// `Duration` helper: days as a duration (gc flags speak days).
#[must_use]
pub fn days(n: u64) -> Duration {
    Duration::from_secs(n * 24 * 60 * 60)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh scratch root under the system temp dir, unique per test.
    fn scratch(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("rchls-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn save_then_load_round_trips() {
        let store = ResultStore::open(scratch("roundtrip")).unwrap();
        assert_eq!(store.load(7), Lookup::Miss);
        store.save(7, r#"{"x": 1}"#).unwrap();
        assert_eq!(store.load(7), Lookup::Hit(r#"{"x": 1}"#.to_owned()));
        // Overwrite wins atomically.
        store.save(7, r#"{"x": 2}"#).unwrap();
        assert_eq!(store.load(7), Lookup::Hit(r#"{"x": 2}"#.to_owned()));
        assert_eq!(store.keys(), vec![7]);
        let stats = store.stats();
        assert_eq!((stats.objects, stats.quarantined), (1, 0));
        assert!(stats.object_bytes > 0);
    }

    #[test]
    fn multiline_payloads_round_trip_by_length_framing() {
        // The header separates at the *first* newline and declares the
        // exact payload byte count, so payloads containing newlines
        // survive verbatim.
        let store = ResultStore::open(scratch("multiline")).unwrap();
        store.save(1, "{\"a\":\n1}").unwrap();
        assert_eq!(store.load(1), Lookup::Hit("{\"a\":\n1}".to_owned()));
    }

    #[test]
    fn truncated_entries_are_quarantined_then_missed() {
        let store = ResultStore::open(scratch("truncated")).unwrap();
        store.save(42, &"x".repeat(100)).unwrap();
        let path = store.object_path(42);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 30]).unwrap();
        assert_eq!(store.load(42), Lookup::Quarantined);
        // The bad file is out of the live tree: next lookup is a miss.
        assert_eq!(store.load(42), Lookup::Miss);
        assert_eq!(store.stats().quarantined, 1);
        // The key can be repopulated cleanly.
        store.save(42, "fresh").unwrap();
        assert_eq!(store.load(42), Lookup::Hit("fresh".to_owned()));
    }

    #[test]
    fn wrong_schema_version_is_quarantined() {
        let store = ResultStore::open(scratch("schema")).unwrap();
        store.save(9, "payload").unwrap();
        let path = store.object_path(9);
        let text = std::fs::read_to_string(&path).unwrap();
        let bumped = text.replace(
            &format!("\"schema_version\":{STORE_SCHEMA_VERSION}"),
            &format!("\"schema_version\":{}", STORE_SCHEMA_VERSION + 1),
        );
        assert_ne!(text, bumped, "the header must spell the version");
        std::fs::write(&path, bumped).unwrap();
        assert_eq!(store.load(9), Lookup::Quarantined);
        assert_eq!(store.load(9), Lookup::Miss);
    }

    #[test]
    fn fingerprint_mismatch_is_quarantined() {
        let store = ResultStore::open(scratch("fingerprint")).unwrap();
        store.save(1, "payload-of-one").unwrap();
        // Simulate a mis-filed entry: key 1's bytes under key 2's path.
        let from = store.object_path(1);
        let to = store.object_path(2);
        std::fs::create_dir_all(to.parent().unwrap()).unwrap();
        std::fs::copy(&from, &to).unwrap();
        assert_eq!(store.load(2), Lookup::Quarantined);
        assert_eq!(store.load(2), Lookup::Miss);
        // The correctly-filed original still answers.
        assert_eq!(store.load(1), Lookup::Hit("payload-of-one".to_owned()));
    }

    #[test]
    fn garbage_headers_are_quarantined() {
        let store = ResultStore::open(scratch("garbage")).unwrap();
        store.save(3, "p").unwrap();
        std::fs::write(store.object_path(3), "not json\np\n").unwrap();
        assert_eq!(store.load(3), Lookup::Quarantined);
        store.save(4, "p").unwrap();
        std::fs::write(store.object_path(4), "no newline at all").unwrap();
        assert_eq!(store.load(4), Lookup::Quarantined);
        assert_eq!(store.stats().quarantined, 2);
    }

    #[test]
    fn explicit_quarantine_demotes_entries_with_valid_envelopes() {
        let store = ResultStore::open(scratch("demote")).unwrap();
        store.save(5, "payload the caller cannot decode").unwrap();
        assert!(store.quarantine_object(5));
        assert!(!store.quarantine_object(5), "already gone");
        assert_eq!(store.load(5), Lookup::Miss);
        assert_eq!(store.stats().quarantined, 1);
    }

    #[test]
    fn keys_are_sorted_and_ignore_foreign_files() {
        let store = ResultStore::open(scratch("keys")).unwrap();
        for key in [0xfeed_u64, 0x0001, 0xbeef_0000_0000_0000] {
            store.save(key, "p").unwrap();
        }
        std::fs::write(store.root().join("objects/README"), "not an entry").unwrap();
        assert_eq!(store.keys(), vec![0x0001, 0xfeed, 0xbeef_0000_0000_0000]);
    }

    #[test]
    fn gc_by_size_evicts_oldest_first_with_key_tiebreak() {
        let store = ResultStore::open(scratch("gc-size")).unwrap();
        for key in [3u64, 1, 2] {
            store.save(key, &"x".repeat(10)).unwrap();
            // Equal mtimes force the deterministic (mtime, key)
            // tie-break: ascending keys evict first.
            set_file_mtime(&store.object_path(key), SystemTime::UNIX_EPOCH).unwrap();
        }
        let per_entry = store.stats().object_bytes / 3;
        let report = store.gc(GcPolicy {
            max_age: None,
            max_bytes: Some(per_entry),
        });
        assert_eq!((report.examined, report.evicted), (3, 2));
        assert_eq!(store.keys(), vec![3], "largest key survives the tie");
        assert!(report.kept_bytes <= per_entry);
        assert_eq!(report.evicted_bytes, 2 * per_entry);
    }

    #[test]
    fn gc_by_age_keeps_young_entries() {
        let store = ResultStore::open(scratch("gc-age")).unwrap();
        store.save(1, "old").unwrap();
        store.save(2, "new").unwrap();
        set_file_mtime(&store.object_path(1), SystemTime::UNIX_EPOCH).unwrap();
        let report = store.gc(GcPolicy {
            max_age: Some(days(30)),
            max_bytes: None,
        });
        assert_eq!((report.examined, report.evicted), (2, 1));
        assert_eq!(store.keys(), vec![2]);
        // A no-op policy touches nothing.
        let report = store.gc(GcPolicy {
            max_age: None,
            max_bytes: None,
        });
        assert_eq!((report.examined, report.evicted), (1, 0));
        assert_eq!(store.keys(), vec![2]);
    }

    #[test]
    fn two_handles_to_one_root_never_collide_on_scratch_names() {
        // Regression: the scratch sequence used to be per-instance, so
        // two handles in one process (same pid, both counting 0, 1, ...)
        // could mint the same tmp name and truncate each other's
        // in-flight writes. The sequence is process-wide now; racing
        // handles must always publish valid entries.
        let root = scratch("two-handles");
        let a = std::sync::Arc::new(ResultStore::open(&root).unwrap());
        let b = std::sync::Arc::new(ResultStore::open(&root).unwrap());
        let payload = format!("{{\"x\": \"{}\"}}", "y".repeat(4096));
        let spawn = |store: std::sync::Arc<ResultStore>, payload: String| {
            std::thread::spawn(move || {
                for _ in 0..50 {
                    store.save(7, &payload).unwrap();
                }
            })
        };
        let ta = spawn(a.clone(), payload.clone());
        let tb = spawn(b, payload.clone());
        ta.join().unwrap();
        tb.join().unwrap();
        // Same deterministic content from both writers: whoever won,
        // the published entry must validate and match.
        assert_eq!(a.load(7), Lookup::Hit(payload));
        assert_eq!(a.stats().quarantined, 0);
        // No stranded tmp files either.
        assert_eq!(count_files(&root.join("tmp")), 0);
    }

    #[test]
    fn concurrent_writers_of_one_key_leave_a_valid_entry() {
        // First-writer-wins under the race: with *different* payloads
        // racing on one key, the survivor must be exactly one writer's
        // bytes, never an interleaving.
        let root = scratch("racing-writers");
        let store = std::sync::Arc::new(ResultStore::open(&root).unwrap());
        let payloads: Vec<String> = (0..4)
            .map(|i| format!("{{\"writer\": {i}, \"pad\": \"{}\"}}", "z".repeat(2048)))
            .collect();
        let threads: Vec<_> = payloads
            .iter()
            .map(|p| {
                let store = store.clone();
                let p = p.clone();
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        store.save(9, &p).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        match store.load(9) {
            Lookup::Hit(survivor) => {
                assert!(
                    payloads.contains(&survivor),
                    "survivor must be one writer's payload, not a mix"
                );
            }
            other => panic!("expected a valid entry, got {other:?}"),
        }
        assert_eq!(store.stats().quarantined, 0);
    }

    #[test]
    fn store_error_reports_op_and_path() {
        let dir = scratch("error");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("objects"), "a file in the way").unwrap();
        let err = ResultStore::open(&dir).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("store open"), "{text}");
        assert!(text.contains("objects"), "{text}");
    }
}
