//! Cached handles to the global telemetry metrics this crate records.
//!
//! Every instrumentation site in `rchls-core` goes through one of these
//! accessors, so the registry lock is taken once per metric per process
//! and the hot paths only touch the returned atomics. The names below
//! are the crate's stable metrics vocabulary — the README's
//! "Observability" section documents them.

use rchls_telemetry::metrics::{
    self, Counter, Histogram, BYTE_BUCKETS, COUNT_BUCKETS, TIME_BUCKETS_MICROS,
};
use rchls_telemetry::{counter_handle, histogram_handle};
use std::sync::{Arc, OnceLock};

/// The metrics every memo table (see `engine::memo`) records, each
/// named `<table>.<metric>`.
pub(crate) struct TableMetrics {
    /// `.hits` — requests answered from the table or from another
    /// worker's computation of the same key.
    pub(crate) hits: Arc<Counter>,
    /// `.misses` — requests computed fresh.
    pub(crate) misses: Arc<Counter>,
    /// `.joined` — hits that waited on another worker's computation of
    /// the same key.
    pub(crate) joined: Arc<Counter>,
    /// `.inserts` — entries added (with no budget this is the resident
    /// size; under one, inserts minus evictions is).
    pub(crate) inserts: Arc<Counter>,
    /// `.evictions` — entries dropped to stay under the session cache
    /// budget.
    pub(crate) evictions: Arc<Counter>,
    /// `.resident_bytes` — approximate resident bytes, recorded after
    /// every insert.
    pub(crate) resident_bytes: Arc<Histogram>,
}

impl TableMetrics {
    fn named(table: &str) -> TableMetrics {
        let counter = |metric: &str| metrics::counter(&format!("{table}.{metric}"));
        TableMetrics {
            hits: counter("hits"),
            misses: counter("misses"),
            joined: counter("joined"),
            inserts: counter("inserts"),
            evictions: counter("evictions"),
            resident_bytes: metrics::histogram(&format!("{table}.resident_bytes"), BYTE_BUCKETS),
        }
    }
}

macro_rules! table_handle {
    ($(#[$doc:meta])* $fn_name:ident, $table:expr) => {
        $(#[$doc])*
        pub(crate) fn $fn_name() -> &'static TableMetrics {
            static HANDLE: OnceLock<TableMetrics> = OnceLock::new();
            HANDLE.get_or_init(|| TableMetrics::named($table))
        }
    };
}

table_handle!(
    /// `synth_cache.*` — the synthesis-report table.
    synth_cache, "synth_cache");
table_handle!(
    /// `starts_cache.*` — the uniform start-pool table.
    starts_cache, "starts_cache");
table_handle!(
    /// `alloc_cache.*` — the allocation-first design table.
    alloc_cache, "alloc_cache");

counter_handle!(
    /// `synth_cache.key_prefixes` — `(DFG, library)` cache-key prefixes
    /// computed for reuse (`engine::cache::KeyPrefix::new`): one per
    /// workload an engine interns and per explored task. One-off full
    /// keys (`CacheKey::for_point`) are not counted.
    synth_cache_key_prefixes, "synth_cache.key_prefixes");
counter_handle!(
    /// `scratch_pool.drops` — arenas released but not retained because
    /// pooling them would exceed the scratch byte budget.
    scratch_pool_drops, "scratch_pool.drops");
counter_handle!(
    /// `alloc_search.bound_pruned` — enumerated allocations the
    /// allocation search neither list-scheduled nor answered from a run
    /// family: the slack-aware bound proved them infeasible or unable to
    /// beat the incumbent.
    alloc_search_bound_pruned, "alloc_search.bound_pruned");
counter_handle!(
    /// `alloc_search.scheduled` — allocations the allocation search
    /// list-scheduled.
    alloc_search_scheduled, "alloc_search.scheduled");
counter_handle!(
    /// `alloc_search.family_hits` — allocations the allocation search
    /// answered from the record of an earlier run they would repeat,
    /// without list-scheduling them.
    alloc_search_family_hits, "alloc_search.family_hits");
counter_handle!(
    /// `alloc_search.early_exits` — list-scheduled allocations abandoned
    /// by an exact early exit (the run could no longer meet the latency
    /// bound).
    alloc_search_early_exits, "alloc_search.early_exits");
counter_handle!(
    /// `scratch_pool.lends` — arenas handed out by [`crate::ScratchPool`].
    scratch_pool_lends, "scratch_pool.lends");
counter_handle!(
    /// `scratch_pool.creates` — lends that had to allocate a new arena.
    scratch_pool_creates, "scratch_pool.creates");
counter_handle!(
    /// `core.lock_poisoned` — poisoned cache/registry locks recovered
    /// instead of aborting (see [`crate::sync`]).
    lock_poisoned, "core.lock_poisoned");
counter_handle!(
    /// `executor.jobs` — jobs completed by the sweep executor.
    executor_jobs, "executor.jobs");
counter_handle!(
    /// `executor.batches` — executor batch invocations.
    executor_batches, "executor.batches");

histogram_handle!(
    /// `phase.sched_micros` — scheduler-pass latency per invocation.
    sched_phase_micros, "phase.sched_micros", TIME_BUCKETS_MICROS);
histogram_handle!(
    /// `phase.bind_micros` — binder-pass latency per invocation.
    bind_phase_micros, "phase.bind_micros", TIME_BUCKETS_MICROS);
histogram_handle!(
    /// `phase.refine_micros` — refine-pass latency per strategy run.
    refine_phase_micros, "phase.refine_micros", TIME_BUCKETS_MICROS);
histogram_handle!(
    /// `phase.synth_micros` — whole-report latency per strategy run.
    synth_phase_micros, "phase.synth_micros", TIME_BUCKETS_MICROS);
histogram_handle!(
    /// `phase.alloc_micros` — allocation-first search latency per run.
    alloc_phase_micros, "phase.alloc_micros", TIME_BUCKETS_MICROS);
histogram_handle!(
    /// `executor.batch_jobs` — jobs per executor batch.
    executor_batch_jobs, "executor.batch_jobs", COUNT_BUCKETS);
histogram_handle!(
    /// `executor.queue_depth` — jobs still queued when a worker pulls one.
    executor_queue_depth, "executor.queue_depth", COUNT_BUCKETS);
histogram_handle!(
    /// `executor.worker_busy_micros` — per-worker busy time per batch.
    executor_worker_busy_micros, "executor.worker_busy_micros", TIME_BUCKETS_MICROS);

counter_handle!(
    /// `store.hits` — synthesis points answered from the on-disk store
    /// (the second cache tier) after a memory miss.
    store_hits, "store.hits");
counter_handle!(
    /// `store.misses` — on-disk store probes that found no usable
    /// entry (absent, quarantined, or a fingerprint collision).
    store_misses, "store.misses");
counter_handle!(
    /// `store.writes` — fresh results written back to the store.
    store_writes, "store.writes");
counter_handle!(
    /// `store.write_failures` — write-backs that failed (disk full,
    /// permissions); synthesis results are still returned.
    store_write_failures, "store.write_failures");
counter_handle!(
    /// `store.quarantined` — store entries demoted because their
    /// payload no longer decodes (engine schema drift), on top of the
    /// store's own envelope-level quarantines.
    store_quarantined, "store.quarantined");
histogram_handle!(
    /// `store.hit_micros` — on-disk store probe latency on hits.
    store_hit_micros, "store.hit_micros", TIME_BUCKETS_MICROS);
histogram_handle!(
    /// `store.miss_micros` — on-disk store probe latency on misses.
    store_miss_micros, "store.miss_micros", TIME_BUCKETS_MICROS);
