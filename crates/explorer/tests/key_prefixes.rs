//! Cache-key accounting: an exploration reuses the prefix its engine
//! interned for each workload, however many grid points, strategies,
//! shards and repeats it runs.
//!
//! The metrics registry is process-global and `cargo test` runs a
//! binary's tests concurrently, so this binary holds a single test.

use rchls_core::{Engine, FlowSpec, RedundancyModel};
use rchls_explorer::{explore, explore_shard, ExploreTask};
use rchls_reslib::Library;
use rchls_telemetry::metrics;

#[test]
fn explorations_compute_one_key_prefix_per_task() {
    let (flow, model) = (FlowSpec::default(), RedundancyModel::default());
    let tasks = vec![
        ExploreTask::new("builtin:figure4a", vec![(5, 4), (6, 6), (7, 4)]),
        ExploreTask::new("builtin:diffeq", vec![(6, 11), (7, 7)]),
        ExploreTask::new("builtin:fir16", vec![(12, 8)]),
    ];
    let prefixes = || metrics::counter("synth_cache.key_prefixes").get();
    metrics::reset();
    let engine = Engine::new(Library::table1()).with_jobs(4);
    let out = explore(&engine, &tasks, &flow, model).unwrap();
    assert_eq!(out.sweeps.len(), tasks.len());
    // Six grid points × three strategies, keyed from three prefixes.
    assert_eq!(prefixes(), tasks.len() as u64);
    // A shard of an explored task reuses the engine's interned prefix.
    let shard = explore_shard(&engine, &tasks[0], &flow, model, 0, 2).unwrap();
    assert!(!shard.rows.is_empty());
    assert_eq!(prefixes(), tasks.len() as u64);
    // So does a repeated exploration on the same engine.
    assert_eq!(explore(&engine, &tasks, &flow, model).unwrap(), out);
    assert_eq!(prefixes(), tasks.len() as u64);
}
