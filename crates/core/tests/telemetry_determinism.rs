//! The telemetry determinism suite.
//!
//! Telemetry is out-of-band by construction: installing a sink or
//! reading the metrics registry must never change a synthesis result,
//! and the *deterministic* counters (cache hits/misses, and
//! allocation-search counters over distinct-fingerprint jobs) must not
//! depend on the worker count. This suite holds the stack to both
//! contracts:
//!
//! * identical deterministic tallies at `--jobs 1` and `--jobs 8` (cold
//!   run all misses, warm re-run all hits), in a valid snapshot;
//! * on points where two `ours` jobs share their searches and a
//!   `combined` job reads its parts from the memo, and on the same jobs
//!   each listed twice, identical documents and cache tallies at both
//!   worker counts, with misses equal to the distinct keys computed and
//!   one Figure-6 run per distinct `ours` key;
//! * four threads asking for one fresh report at once compute it once,
//!   with one store read and one store write, and two of them asking for
//!   `combined` instead still run Figure 6 once;
//! * byte-identical batch documents with span sinks installed vs none;
//! * a structurally valid Chrome trace whose sched/bind/refine spans
//!   nest inside their enclosing `synth` span by timestamp containment.
//!
//! The sink registry and metrics registry are process-global, and the
//! tests in this binary share one process — every test serializes on
//! [`telemetry_lock`] so resets and sink installs can't interleave.

use rchls_core::engine::CacheStats;
use rchls_core::{Engine, FlowSpec, SynthJob};
use rchls_reslib::Library;
use rchls_telemetry::metrics::TIME_BUCKETS_MICROS;
use rchls_telemetry::{
    metrics, register_sink, trace_event_names, unregister_sink, AggregatorSink, ChromeTraceSink,
    SpanSink,
};
use serde::Value;
use std::collections::HashSet;
use std::sync::{Arc, Barrier, Mutex, MutexGuard, OnceLock};

/// Serializes tests that touch the process-global telemetry state.
/// Poisoning is ignored: a failed test must not cascade into the rest
/// of the suite.
fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Unregisters a sink id on drop, so an assertion failure mid-test
/// can't leave the global registry dirty for the next test.
struct SinkGuard(&'static str);

impl SinkGuard {
    fn install(sink: Arc<dyn SpanSink>) -> SinkGuard {
        let id: &'static str = match sink.id() {
            "chrome-trace" => "chrome-trace",
            "aggregator" => "aggregator",
            other => panic!("unexpected sink id {other:?}"),
        };
        register_sink(sink).expect("telemetry_lock holds off concurrent installs");
        SinkGuard(id)
    }
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        let _ = unregister_sink(self.0);
    }
}

/// Distinct-fingerprint jobs: every spec appears exactly once, so a cold
/// batch is all misses and a warm re-run all hits.
fn distinct_jobs() -> Vec<SynthJob> {
    let mut jobs: Vec<SynthJob> = (0..6u64)
        .map(|seed| SynthJob::new(format!("random:16x4@{seed}"), 8, 10))
        .collect();
    jobs.push(SynthJob::new("builtin:figure4a", 6, 4));
    jobs.push(SynthJob::new("builtin:diffeq", 6, 11));
    jobs
}

/// The deterministic counter subset: cache tallies, which single-flight
/// slots make independent of the worker count (misses are the distinct
/// keys), and allocation-search counters, which each distinct search
/// books once from the one thread that scans it (see also
/// `shared_searches_compute_once_at_any_worker_count`). Pool/executor
/// counters are deliberately excluded — lends and queue depths
/// legitimately vary with scheduling — and so are the `*.joined`
/// tallies, which count how often two workers happened to overlap.
const DETERMINISTIC_COUNTERS: &[&str] = &[
    "synth_cache.hits",
    "synth_cache.misses",
    "synth_cache.inserts",
    "starts_cache.hits",
    "starts_cache.misses",
    "alloc_cache.hits",
    "alloc_cache.misses",
    "alloc_search.bound_pruned",
    "alloc_search.scheduled",
    "alloc_search.early_exits",
    "alloc_search.family_hits",
    "synth_cache.key_prefixes",
];

#[test]
fn deterministic_counters_match_across_worker_counts() {
    let _lock = telemetry_lock();
    let jobs = distinct_jobs();
    let mut tallies: Vec<Vec<(&str, u64)>> = Vec::new();
    for workers in [1usize, 8] {
        metrics::reset();
        let engine = Engine::new(Library::table1()).with_jobs(workers);
        let cold = engine.run_batch(&jobs);
        let warm = engine.run_batch(&jobs);
        assert_eq!(
            serde_json::to_string(&cold).expect("batch documents serialize"),
            serde_json::to_string(&warm).expect("batch documents serialize"),
            "warm re-run changed the document at --jobs {workers}"
        );
        // Engine-level stats: the cold batch misses every point, the
        // warm re-run hits every one of them.
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, jobs.len() as u64, "--jobs {workers}");
        assert_eq!(stats.hits, jobs.len() as u64, "--jobs {workers}");
        metrics::validate_snapshot(&metrics::snapshot())
            .unwrap_or_else(|e| panic!("--jobs {workers}: invalid snapshot: {e}"));
        tallies.push(
            DETERMINISTIC_COUNTERS
                .iter()
                .map(|name| (*name, metrics::counter(name).get()))
                .collect(),
        );
    }
    assert_eq!(
        tallies[0], tallies[1],
        "deterministic counters diverged between --jobs 1 and --jobs 8"
    );
    let get = |name: &str| {
        tallies[0]
            .iter()
            .find(|(n, _)| *n == name)
            .expect("counter present")
            .1
    };
    assert_eq!(get("synth_cache.hits"), jobs.len() as u64);
    assert_eq!(get("synth_cache.misses"), jobs.len() as u64);
    // Workloads resolve on the calling thread, one key prefix each (every
    // job names its own workload); the warm batch walks no graph.
    assert_eq!(get("synth_cache.key_prefixes"), jobs.len() as u64);
    assert!(get("starts_cache.misses") > 0, "starts cache saw the batch");
    // The allocation searches ran and explain themselves: some
    // allocations were list-scheduled, some cut short, some answered by
    // an earlier run they would repeat, many never scheduled at all.
    assert!(get("alloc_search.scheduled") > 0, "alloc search scheduled");
    assert!(get("alloc_search.early_exits") > 0, "alloc search cut runs");
    assert!(get("alloc_search.family_hits") > 0, "alloc search families");
    assert!(get("alloc_search.bound_pruned") > 0, "alloc search pruned");
}

/// Three jobs on each point. The two `ours` jobs differ only in their
/// victim policy, so they have different report keys but ask for the
/// same start pools and the same allocation search, at `--jobs 8`
/// usually while the other is still computing them. The `combined` job
/// reads the default `ours` report and the `baseline` report from the
/// session memo. The L=8/A=64 corner's search schedules over a thousand
/// allocations, long enough for the second job to ask for it mid-scan.
fn shared_point_jobs() -> Vec<SynthJob> {
    let mut points: Vec<(String, u32, u32)> = (0..6u64)
        .map(|seed| (format!("random:16x4@{seed}"), 8, 10))
        .collect();
    points.push(("builtin:diffeq".to_owned(), 6, 11));
    points.push(("random:32x5@0".to_owned(), 8, 64));
    let min_loss = FlowSpec::default().with_victim("min-reliability-loss");
    points
        .into_iter()
        .flat_map(|(spec, latency, area)| {
            [
                SynthJob::new(spec.clone(), latency, area),
                SynthJob::new(spec.clone(), latency, area).with_flow(min_loss.clone()),
                SynthJob::new(spec, latency, area).with_strategy("combined"),
            ]
        })
        .collect()
}

/// Runs of the Figure-6 flow (`synthesize_report`) recorded so far.
fn figure6_runs() -> u64 {
    metrics::histogram("phase.synth_micros", TIME_BUCKETS_MICROS).count()
}

/// Counters that repeat at any worker count for any job set: the cache
/// tallies, since a request that finds its key in flight waits for it and
/// counts as a hit, and the allocation-search counters, since each
/// distinct search runs once, on the one thread that leads its slot.
const SHARED_COUNTERS: &[&str] = &[
    "synth_cache.hits",
    "synth_cache.misses",
    "starts_cache.hits",
    "starts_cache.misses",
    "alloc_cache.hits",
    "alloc_cache.misses",
    "alloc_search.bound_pruned",
    "alloc_search.scheduled",
    "alloc_search.early_exits",
    "alloc_search.family_hits",
];

#[test]
fn shared_searches_compute_once_at_any_worker_count() {
    let _lock = telemetry_lock();
    let shared = shared_point_jobs();
    // Every job twice in a row: at `--jobs 8` the two copies usually run
    // at once and ask for the same report.
    let doubled: Vec<SynthJob> = shared
        .iter()
        .flat_map(|job| [job.clone(), job.clone()])
        .collect();
    let mut searches: Vec<Vec<u64>> = Vec::new();
    for jobs in [shared, doubled] {
        let mut documents = Vec::new();
        let mut tallies: Vec<Vec<u64>> = Vec::new();
        for workers in [1usize, 8] {
            metrics::reset();
            let engine = Engine::new(Library::table1()).with_jobs(workers);
            let batch = engine.run_batch(&jobs);
            documents.push(serde_json::to_string(&batch).expect("batch documents serialize"));
            let misses = |table: &str| metrics::counter(&format!("{table}.misses")).get();
            assert_eq!(
                misses("synth_cache"),
                engine.memoized_points() as u64,
                "--jobs {workers}: one synthesis per distinct key"
            );
            assert_eq!(
                misses("alloc_cache"),
                engine.alloc_designs() as u64,
                "--jobs {workers}: one alloc search per distinct key"
            );
            assert_eq!(
                misses("starts_cache"),
                engine.starts_pools() as u64,
                "--jobs {workers}: one start pool per distinct key"
            );
            assert_eq!(engine.cache_stats().misses, misses("synth_cache"));
            assert!(
                metrics::counter("alloc_cache.hits").get() > 0,
                "--jobs {workers}: the two victim policies share one search"
            );
            // `combined` reads `ours` from the memo instead of running it.
            let ours_keys: HashSet<String> = jobs
                .iter()
                .filter(|job| job.strategy == "ours")
                .map(|job| serde_json::to_string(job).expect("jobs serialize"))
                .collect();
            assert_eq!(
                figure6_runs(),
                ours_keys.len() as u64,
                "--jobs {workers}: one Figure-6 run per distinct ours key"
            );
            assert!(
                metrics::counter("alloc_search.scheduled").get() > 0,
                "--jobs {workers}: the searches scheduled allocations"
            );
            tallies.push(
                SHARED_COUNTERS
                    .iter()
                    .map(|name| metrics::counter(name).get())
                    .collect(),
            );
        }
        assert_eq!(
            documents[0], documents[1],
            "batch documents differ between --jobs 1 and --jobs 8"
        );
        assert_eq!(
            tallies[0], tallies[1],
            "cache and search tallies diverged between --jobs 1 and --jobs 8"
        );
        let search_work = SHARED_COUNTERS.iter().zip(&tallies[0]);
        searches.push(
            search_work
                .filter(|(name, _)| name.starts_with("alloc_search."))
                .map(|(_, &count)| count)
                .collect(),
        );
    }
    // Doubling the jobs adds no distinct search, so no search work.
    assert_eq!(
        searches[0], searches[1],
        "the doubled batch did different search work"
    );
}

#[test]
fn concurrent_identical_synths_compute_once() {
    let _lock = telemetry_lock();
    let root = std::env::temp_dir().join(format!("rchls-single-flight-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = Arc::new(rchls_store::ResultStore::open(&root).expect("temp store opens"));
    let engine = Engine::new(Library::table1()).with_store(store);
    let job = SynthJob::new("random:64x8@0", 14, 24);
    let store_count = |name: &str| metrics::counter(&format!("store.{name}")).get();
    let (misses, writes) = (store_count("misses"), store_count("writes"));
    let barrier = Barrier::new(4);
    let reports: Vec<_> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    engine.synth(&job).expect("the point is feasible")
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    assert!(reports.windows(2).all(|pair| pair[0] == pair[1]));
    assert_eq!(engine.cache_stats(), CacheStats { hits: 3, misses: 1 });
    assert_eq!(store_count("misses"), misses + 1, "one store read");
    assert_eq!(store_count("writes"), writes + 1, "one store write");
    let _ = std::fs::remove_dir_all(&root);
}

/// Four threads on one fresh point, two asking for `combined` and two
/// for `ours`: whichever leads, the composite waits on its part's slot
/// while holding only its own, so nothing deadlocks, and Figure 6 runs
/// once. The report table misses once per key: `combined`, `ours` and
/// `baseline`.
#[test]
fn composites_and_their_parts_compute_once_under_contention() {
    let _lock = telemetry_lock();
    let engine = Engine::new(Library::table1());
    let job = |strategy: &str| SynthJob::new("random:64x8@0", 14, 24).with_strategy(strategy);
    let runs = figure6_runs();
    let barrier = Barrier::new(4);
    let reports: Vec<_> = std::thread::scope(|scope| {
        let threads: Vec<_> = ["combined", "ours", "combined", "ours"]
            .into_iter()
            .map(|strategy| {
                let (engine, barrier, job) = (&engine, &barrier, job(strategy));
                scope.spawn(move || {
                    barrier.wait();
                    engine.synth(&job).map(|r| r.design)
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    assert_eq!(reports[0], reports[2], "the two combined answers agree");
    assert_eq!(reports[1], reports[3], "the two ours answers agree");
    assert_eq!(reports[1], engine.synth(&job("ours")).map(|r| r.design));
    assert_eq!(figure6_runs(), runs + 1, "one Figure-6 run");
    assert_eq!(engine.cache_stats().misses, 3, "combined, ours, baseline");
    assert_eq!(engine.memoized_points(), 3);
}

#[test]
fn warm_synth_calls_reuse_the_interned_key_prefix() {
    let _lock = telemetry_lock();
    let workloads = ["builtin:figure4a", "builtin:diffeq", "random:16x4@3"];
    let jobs: Vec<SynthJob> = workloads
        .iter()
        .flat_map(|spec| {
            [
                SynthJob::new(*spec, 8, 10),
                SynthJob::new(*spec, 9, 12).with_strategy("combined"),
            ]
        })
        .collect();
    metrics::reset();
    let engine = Engine::new(Library::table1()).with_jobs(1);
    for i in 0..200 {
        engine
            .synth(&jobs[i % jobs.len()])
            .expect("every job is feasible");
    }
    assert_eq!(engine.cache_stats().hits, 200 - jobs.len() as u64);
    assert_eq!(
        metrics::counter("synth_cache.key_prefixes").get(),
        workloads.len() as u64,
        "one graph walk per interned workload, none per request"
    );
}

#[test]
fn batch_documents_are_byte_identical_with_sinks_installed() {
    let _lock = telemetry_lock();
    let jobs = distinct_jobs();
    let run = || {
        let batch = Engine::new(Library::table1()).with_jobs(8).run_batch(&jobs);
        serde_json::to_string(&batch).expect("batch documents serialize")
    };
    let plain = run();

    let trace = Arc::new(ChromeTraceSink::new());
    let aggregator = Arc::new(AggregatorSink::new());
    let traced = {
        let _trace_guard = SinkGuard::install(trace.clone());
        let _agg_guard = SinkGuard::install(aggregator.clone());
        run()
    };
    assert_eq!(
        plain, traced,
        "installing span sinks changed the batch document"
    );

    // The sinks really observed the run: the phase spans are present in
    // both the aggregator and the (structurally valid) Chrome trace.
    let summary = aggregator.summary();
    for phase in ["synth", "sched", "bind", "refine"] {
        let agg = summary
            .iter()
            .find(|(name, _)| name == phase)
            .unwrap_or_else(|| panic!("aggregator saw no {phase:?} span"));
        assert!(agg.1.count > 0, "{phase} count");
    }
    let names = trace_event_names(&trace.to_trace_json()).expect("valid Chrome trace");
    for phase in ["synth", "sched", "bind", "refine"] {
        assert!(
            names.iter().any(|n| n == phase),
            "trace missing {phase:?} span"
        );
    }
}

/// One trace event, as far as nesting is concerned.
struct TraceEvent {
    name: String,
    tid: u64,
    ts: u64,
    dur: u64,
}

/// Parses the fields the nesting check needs out of a trace document.
fn trace_events(doc: &str) -> Vec<TraceEvent> {
    let value: Value = serde_json::from_str(doc).expect("trace parses");
    let entries = value.as_map().expect("trace document is an object");
    let Some(Value::Seq(events)) = serde::map_get(entries, "traceEvents") else {
        panic!("missing traceEvents array");
    };
    events
        .iter()
        .map(|event| {
            let fields = event.as_map().expect("trace event is an object");
            let num = |key: &str| match serde::map_get(fields, key) {
                Some(Value::UInt(u)) => *u,
                other => panic!("trace event field {key:?} is not numeric: {other:?}"),
            };
            let Some(Value::Str(name)) = serde::map_get(fields, "name") else {
                panic!("trace event name is not a string");
            };
            TraceEvent {
                name: name.clone(),
                tid: num("tid"),
                ts: num("ts"),
                dur: num("dur"),
            }
        })
        .collect()
}

#[test]
fn trace_nests_phase_spans_within_synth() {
    let _lock = telemetry_lock();
    let trace = Arc::new(ChromeTraceSink::new());
    {
        let _guard = SinkGuard::install(trace.clone());
        let engine = Engine::new(Library::table1()).with_jobs(1);
        engine
            .synth(&SynthJob::new("builtin:diffeq", 6, 11))
            .expect("diffeq at (6, 11) is feasible");
    }
    let events = trace_events(&trace.to_trace_json());
    let synth = events
        .iter()
        .find(|e| e.name == "synth")
        .expect("trace has a synth span");
    // Chrome viewers nest complete events on a tid by timestamp
    // containment; each phase must have at least one span inside the
    // synth envelope on the same thread. Start and duration come from
    // independent clock reads truncated to whole microseconds, so the
    // end-side check allows a few microseconds of rounding skew.
    for phase in ["sched", "bind", "refine"] {
        assert!(
            events.iter().any(|e| e.name == phase
                && e.tid == synth.tid
                && e.ts >= synth.ts
                && e.ts + e.dur <= synth.ts + synth.dur + 16),
            "no {phase:?} span nested inside the synth span"
        );
    }
}
