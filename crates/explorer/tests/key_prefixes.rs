//! Cache-key accounting: an exploration walks each task's graph once for
//! its cache keys, however many grid points and strategies it runs.
//!
//! The metrics registry is process-global and `cargo test` runs a
//! binary's tests concurrently, so this binary holds a single test.

use rchls_core::{FlowSpec, RedundancyModel};
use rchls_explorer::{explore, explore_shard, ExploreTask, SweepExecutor, SynthCache};
use rchls_reslib::Library;
use rchls_telemetry::metrics;

#[test]
fn explorations_compute_one_key_prefix_per_task() {
    let lib = Library::table1();
    let (flow, model) = (FlowSpec::default(), RedundancyModel::default());
    let tasks = vec![
        ExploreTask::new(
            "figure4a",
            rchls_workloads::figure4a(),
            vec![(5, 4), (6, 6), (7, 4)],
        ),
        ExploreTask::new("diffeq", rchls_workloads::diffeq(), vec![(6, 11), (7, 7)]),
        ExploreTask::new("fir16", rchls_workloads::fir16(), vec![(12, 8)]),
    ];
    let prefixes = || metrics::counter("synth_cache.key_prefixes").get();
    metrics::reset();
    let cache = SynthCache::new();
    let out = explore(&tasks, &lib, &flow, model, SweepExecutor::new(4), &cache);
    assert_eq!(out.sweeps.len(), tasks.len());
    // Six grid points × three strategies, keyed from three prefixes.
    assert_eq!(prefixes(), tasks.len() as u64);
    // A shard of one task is one more.
    let shard = explore_shard(
        &tasks[0],
        &lib,
        &flow,
        model,
        &SweepExecutor::new(2),
        &cache,
        0,
        2,
    );
    assert!(!shard.rows.is_empty());
    assert_eq!(prefixes(), tasks.len() as u64 + 1);
}
