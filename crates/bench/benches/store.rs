//! Persistent-store performance: raw save/load envelope throughput and
//! the cost of answering a whole sweep from the on-disk tier with a
//! cold in-memory cache (the restart-recovery path).

use criterion::{criterion_group, criterion_main, Criterion};
use rchls_core::{Engine, FlowSpec, RedundancyModel};
use rchls_explorer::{explore, ExploreTask};
use rchls_reslib::Library;
use rchls_store::{Lookup, ResultStore};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;

/// A fresh scratch root under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("rchls-bench-store-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Envelope overhead: header encode + fsync + rename on save, read +
/// validate on load, over a typical report-sized payload.
fn bench_save_load(c: &mut Criterion) {
    let store = ResultStore::open(scratch("roundtrip")).unwrap();
    let payload = "x".repeat(2048);
    c.bench_function("store/save-2KiB", |b| {
        let mut key = 0u64;
        b.iter(|| {
            key += 1;
            store.save(key, &payload).unwrap();
        })
    });
    store.save(0, &payload).unwrap();
    c.bench_function("store/load-2KiB", |b| {
        b.iter(|| match store.load(0) {
            Lookup::Hit(p) => black_box(p.len()),
            other => panic!("warm load was {other:?}"),
        })
    });
}

/// The restart path: a sweep whose every point replays from the store
/// through a fresh engine's cold in-memory cache — decode + validate per
/// point, no synthesis.
fn bench_store_tier_sweep(c: &mut Criterion) {
    let flow = FlowSpec::default();
    let model = RedundancyModel::default();
    let store = Arc::new(ResultStore::open(scratch("tier")).unwrap());
    let grid: Vec<(u32, u32)> = [5u32, 6, 7]
        .iter()
        .flat_map(|&l| [7u32, 11].iter().map(move |&a| (l, a)))
        .collect();
    let task = [ExploreTask::new("builtin:diffeq", grid)];
    let session = || {
        Engine::new(Library::table1())
            .with_jobs(1)
            .with_store(Arc::clone(&store))
    };
    // Write the whole sweep through once.
    let _ = explore(&session(), &task, &flow, model).unwrap();
    c.bench_function("store/cold-memory-warm-disk-sweep", |b| {
        b.iter(|| black_box(explore(&session(), &task, &flow, model).unwrap()))
    });
}

criterion_group!(benches, bench_save_load, bench_store_tier_sweep);
criterion_main!(benches);
