//! Fault-injection coverage for store I/O: every `store.*` injection
//! point, exercised through the public API.
//!
//! Lives in its own integration-test binary (not the unit-test module)
//! because an armed fault plan is process-global: unit tests run in one
//! process, and an armed plan would leak faults into unrelated tests
//! racing in sibling threads. Here the process is ours, and the tests
//! additionally serialize on [`chaos_lock`].

use rchls_store::{Lookup, ResultStore};
use std::path::PathBuf;

/// A fresh scratch root under the system temp dir, unique per test.
fn scratch(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("rchls-store-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// The fault plane is process-global; tests that arm it must not
/// overlap.
fn chaos_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn arm(plan: &str) {
    rchls_chaos::arm(rchls_chaos::FaultPlan::parse(plan).unwrap()).unwrap();
}

fn tmp_files(store: &ResultStore) -> usize {
    std::fs::read_dir(store.root().join("tmp"))
        .map(|entries| entries.filter_map(Result::ok).count())
        .unwrap_or(0)
}

#[test]
fn injected_write_faults_fail_saves_without_partial_entries() {
    let _guard = chaos_lock();
    let store = ResultStore::open(scratch("write")).unwrap();
    // Each point counts its own hits: save 1 dies at store.write (the
    // later points are never reached), save 2 passes store.write (hit
    // 2) and dies at fsync's first hit, save 3 dies at rename's first.
    arm(r#"{"schema_version": 1, "faults": [
        {"point": "store.write", "action": "error", "hits": [1]},
        {"point": "store.write.fsync", "action": "error", "hits": [1]},
        {"point": "store.write.rename", "action": "error", "hits": [1]}
    ]}"#);
    for expected in ["store.write", "store.write.fsync", "store.write.rename"] {
        let err = store.save(5, "payload").unwrap_err().to_string();
        assert!(err.contains("chaos: injected"), "{err}");
        assert!(err.contains(expected), "{err} should mention {expected}");
        assert_eq!(
            store.load(5),
            Lookup::Miss,
            "no partial entry after {expected}"
        );
        assert_eq!(tmp_files(&store), 0, "no stranded tmp after {expected}");
    }
    // Hit 4: no rule fires; the save goes through untouched.
    store.save(5, "payload").unwrap();
    assert_eq!(store.load(5), Lookup::Hit("payload".to_owned()));
    let report = rchls_chaos::disarm().unwrap();
    // 4 saves total: store.write saw all 4, fsync the 3 that got past
    // the body write, rename the 2 that got past fsync.
    let hits: Vec<u64> = report.points.iter().map(|p| p.hits).collect();
    assert_eq!(hits, vec![4, 3, 2]);
}

#[test]
fn injected_torn_writes_are_quarantined_on_load() {
    let _guard = chaos_lock();
    let store = ResultStore::open(scratch("torn")).unwrap();
    arm(r#"{"schema_version": 1, "faults": [
        {"point": "store.write", "action": "torn", "hits": [1]}
    ]}"#);
    // The torn write "succeeds" — the corruption is only caught by the
    // reader's length framing.
    store.save(6, &"x".repeat(200)).unwrap();
    assert_eq!(store.load(6), Lookup::Quarantined);
    assert_eq!(store.load(6), Lookup::Miss);
    assert_eq!(store.stats().quarantined, 1);
    rchls_chaos::disarm();
    // The key repopulates cleanly once the plan is gone.
    store.save(6, "fresh").unwrap();
    assert_eq!(store.load(6), Lookup::Hit("fresh".to_owned()));
}

#[test]
fn injected_read_faults_quarantine_live_entries() {
    let _guard = chaos_lock();
    let store = ResultStore::open(scratch("read")).unwrap();
    store.save(8, "first").unwrap();
    store.save(9, "second").unwrap();
    arm(r#"{"schema_version": 1, "faults": [
        {"point": "store.read", "action": "torn", "hits": [1]},
        {"point": "store.read", "action": "error", "hits": [2]}
    ]}"#);
    assert_eq!(store.load(8), Lookup::Quarantined); // torn
    assert_eq!(store.load(9), Lookup::Quarantined); // error
    rchls_chaos::disarm();
    assert_eq!(store.stats().quarantined, 2);
    // Both keys repopulate cleanly after the plan is disarmed.
    store.save(8, "fresh").unwrap();
    assert_eq!(store.load(8), Lookup::Hit("fresh".to_owned()));
}
