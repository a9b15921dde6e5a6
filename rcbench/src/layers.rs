//! The traced run: replays a workload's generated inputs through each
//! layer's public calls with the span buffer installed, then turns the
//! spans, the returned values, the telemetry registry, and a few direct
//! per-layer probes into the per-layer metrics.

use crate::check::Failures;
use crate::report::Metrics;
use crate::trace::{self, Trace};
use crate::util::{mean, median, micros_since, percentile, ratio};
use rchls_core::engine::{BatchReport, CacheKey, JobOutcome};
use rchls_core::flow::{self, SynthRequest};
use rchls_core::{Engine, SynthJob, SynthReport};
use rchls_reslib::Library;
use rchls_telemetry::metrics::{self, BYTE_BUCKETS, COUNT_BUCKETS};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// One replayed request: its id in the trace, the job, and what came
/// back (`None` = infeasible).
pub struct Replayed {
    pub request: u64,
    pub job: SynthJob,
    pub report: Option<SynthReport>,
}

/// Runs one job through the same public calls `Engine::synth` makes —
/// resolve, key, then the memory tier (and below it the store and the
/// strategy) — with a benchmark span around each.
///
/// # Errors
///
/// A workload, flow or strategy that does not resolve.
pub fn synth_decomposed(engine: &Engine, job: &SynthJob) -> Result<Option<SynthReport>, String> {
    let workload = {
        let _s = trace::span("resolve");
        engine.workload(&job.workload)
    }
    .map_err(|e| e.to_string())?;
    job.flow.resolve().map_err(|e| e.to_string())?;
    let strategy = flow::strategy(&job.strategy)
        .ok_or_else(|| format!("unknown strategy {}", job.strategy))?;
    let token = strategy.fingerprint_token();
    let (library, bounds) = (engine.library(), job.bounds());
    let key = {
        let _s = trace::span("key");
        CacheKey::for_point(
            &workload.dfg,
            library,
            bounds,
            &job.flow,
            job.redundancy,
            &token,
        )
    };
    let _s = trace::span("mem");
    let cache = engine.cache();
    Ok(cache.get_or_compute(key, bounds, &token, || {
        strategy.run(
            &SynthRequest::new(&workload.dfg, library, bounds)
                .with_flow(job.flow.clone())
                .with_redundancy(job.redundancy)
                .with_scratch_pool(cache.scratch_pool())
                .with_starts_cache(cache.starts_cache()),
        )
    }))
}

/// Runs `work` over `jobs` on `threads` closed-loop caller threads that
/// pull jobs in order from a shared cursor (the executor's discipline).
/// Returns wall seconds and the outputs in job order.
pub fn run_shared<T: Send>(
    jobs: &[SynthJob],
    threads: usize,
    work: impl Fn(usize, &SynthJob) -> T + Sync,
) -> (f64, Vec<T>) {
    let cursor = AtomicUsize::new(0);
    let t = Instant::now();
    let mut outputs: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        mine.push((i, work(i, job)));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("caller thread"))
            .collect()
    });
    let wall = t.elapsed().as_secs_f64();
    outputs.sort_by_key(|(i, _)| *i);
    (wall, outputs.into_iter().map(|(_, out)| out).collect())
}

/// Replays `jobs` on `threads` callers with every request traced.
pub fn traced_engine_replay(
    engine: &Engine,
    jobs: &[SynthJob],
    threads: usize,
    failures: &mut Failures,
) -> (f64, Trace, Vec<Replayed>) {
    let recording = trace::Recording::start();
    let (wall, results) = run_shared(jobs, threads, |i, job| {
        let request = i as u64 + 1;
        let _r = trace::request(request);
        (request, synth_decomposed(engine, job))
    });
    let trace = recording.finish();
    let mut replayed = Vec::with_capacity(jobs.len());
    for ((request, result), job) in results.into_iter().zip(jobs) {
        match result {
            Ok(report) => replayed.push(Replayed {
                request,
                job: job.clone(),
                report,
            }),
            Err(e) => failures.fail(format!("traced replay: {e}")),
        }
    }
    (wall, trace, replayed)
}

/// Registry counters read right after the traced replay (the registry
/// is reset right before it).
#[derive(Debug, Default)]
pub struct Counts {
    pub mem_hits: u64,
    pub computes: u64,
    pub store_hits: u64,
    pub evictions: u64,
    pub resident_bytes: u64,
    pub starts_hits: u64,
    pub starts_misses: u64,
    pub alloc_hits: u64,
    pub alloc_misses: u64,
    pub quarantined: u64,
    pub queue_depth_p95: u64,
    pub rejected: u64,
}

impl Counts {
    pub fn read() -> Counts {
        let c = |name: &str| metrics::counter(name).get();
        Counts {
            mem_hits: c("synth_cache.hits"),
            computes: c("synth_cache.misses"),
            store_hits: c("store.hits"),
            evictions: c("synth_cache.evictions"),
            resident_bytes: metrics::histogram("synth_cache.resident_bytes", BYTE_BUCKETS).max(),
            starts_hits: c("starts_cache.hits"),
            starts_misses: c("starts_cache.misses"),
            alloc_hits: c("alloc_cache.hits"),
            alloc_misses: c("alloc_cache.misses"),
            quarantined: c("store.quarantined"),
            queue_depth_p95: metrics::histogram("serve.queue_depth", COUNT_BUCKETS)
                .percentile(0.95),
            rejected: c("serve.rejected_overloaded") + c("serve.rejected_conns"),
        }
    }
}

/// Client round trips against the daemon vs the same requests on an
/// in-process engine.
#[derive(Debug, Default)]
pub struct ServeProbe {
    pub rtt_us: Vec<f64>,
    pub engine_us: Vec<f64>,
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    pub library: &'a Library,
    pub trace: &'a Trace,
    pub replayed: &'a [Replayed],
    pub counts: Counts,
    /// Distinct start-pool and alloc-design keys the replay added.
    pub distinct_starts: u64,
    pub distinct_alloc: u64,
    /// Wall seconds of the same inputs untraced (through the plain public
    /// path) and traced.
    pub untraced_s: f64,
    pub traced_s: f64,
    /// Extra envelope-level quarantines reported by the store itself.
    pub store_quarantined: u64,
    /// Encode+save times (µs) and payload sizes (bytes) of written entries.
    pub store_writes: Vec<(f64, usize)>,
    pub executor_speedup: f64,
    pub serve: ServeProbe,
}

/// Names, units and (in `BENCHMARK.json`) directions of the per-layer
/// metrics, in report order.
pub fn layer_metrics(inputs: &LayerInputs<'_>) -> Metrics {
    let t = inputs.trace;
    let c = &inputs.counts;
    let mut m = Metrics::default();
    let probe_engine = Engine::new(inputs.library.clone()).with_jobs(1);

    // resolve: first resolution of every distinct spec.
    let specs: BTreeSet<&str> = inputs
        .replayed
        .iter()
        .map(|r| r.job.workload.as_str())
        .collect();
    let resolve_us: Vec<f64> = specs
        .iter()
        .map(|spec| {
            let t0 = Instant::now();
            let _ = rchls_workloads::load_workload(spec);
            micros_since(t0)
        })
        .collect();
    m.add(
        "resolve.calls",
        resolve_us.len() as f64,
        "count",
        resolve_us.len(),
    );
    m.add(
        "resolve.us_p50",
        median(&resolve_us),
        "us",
        resolve_us.len(),
    );

    // key: one fingerprint per replayed request.
    let key_us: Vec<f64> = inputs
        .replayed
        .iter()
        .filter_map(|r| {
            let w = probe_engine.workload(&r.job.workload).ok()?;
            let token = flow::strategy(&r.job.strategy)?.fingerprint_token();
            let t0 = Instant::now();
            let key = CacheKey::for_point(
                &w.dfg,
                inputs.library,
                r.job.bounds(),
                &r.job.flow,
                r.job.redundancy,
                &token,
            );
            let us = micros_since(t0);
            std::hint::black_box(key);
            Some(us)
        })
        .collect();
    m.add("key.calls", key_us.len() as f64, "count", key_us.len());
    m.add("key.us_p50", median(&key_us), "us", key_us.len());
    m.add("key.us_p99", percentile(&key_us, 0.99), "us", key_us.len());

    // mem: memory-tier answers vs lookups that went below it.
    let misses = c.computes + c.store_hits;
    let hit_us = t.leaves("mem");
    m.add("mem.hits", c.mem_hits as f64, "count", 1);
    m.add("mem.misses", misses as f64, "count", 1);
    m.add(
        "mem.hit_ratio",
        ratio(c.mem_hits as f64, (c.mem_hits + misses) as f64),
        "ratio",
        (c.mem_hits + misses) as usize,
    );
    m.add("mem.hit_us_p50", median(&hit_us), "us", hit_us.len());
    m.add("mem.evictions", c.evictions as f64, "count", 1);
    m.add(
        "mem.resident_mb",
        c.resident_bytes as f64 / (1 << 20) as f64,
        "MB",
        1,
    );

    // store: reads on the request path, writes probed directly.
    let reads = t.durations("store.load");
    let write_us: Vec<f64> = inputs.store_writes.iter().map(|w| w.0).collect();
    let sizes: Vec<f64> = inputs
        .store_writes
        .iter()
        .map(|w| w.1 as f64 / 1024.0)
        .collect();
    m.add("store.reads", reads.len() as f64, "count", reads.len());
    m.add("store.read_us_p50", median(&reads), "us", reads.len());
    m.add(
        "store.read_us_p99",
        percentile(&reads, 0.99),
        "us",
        reads.len(),
    );
    m.add(
        "store.writes",
        write_us.len() as f64,
        "count",
        write_us.len(),
    );
    m.add(
        "store.write_us_p50",
        median(&write_us),
        "us",
        write_us.len(),
    );
    m.add(
        "store.write_us_p99",
        percentile(&write_us, 0.99),
        "us",
        write_us.len(),
    );
    m.add("store.entry_kb_mean", mean(&sizes), "KB", sizes.len());
    m.add(
        "store.quarantined",
        (c.quarantined + inputs.store_quarantined) as f64,
        "count",
        1,
    );

    // starts / alloc caches: duplicate work is misses beyond distinct keys.
    m.add("starts.hits", c.starts_hits as f64, "count", 1);
    m.add("starts.misses", c.starts_misses as f64, "count", 1);
    m.add(
        "starts.dup_ratio",
        ratio(c.starts_misses as f64, inputs.distinct_starts as f64),
        "ratio",
        1,
    );
    m.add("alloc.cache_hits", c.alloc_hits as f64, "count", 1);
    m.add("alloc.cache_misses", c.alloc_misses as f64, "count", 1);
    m.add(
        "alloc.dup_ratio",
        ratio(c.alloc_misses as f64, inputs.distinct_alloc as f64),
        "ratio",
        1,
    );

    // alloc search: timed calls, plus the enumeration each one scanned.
    let alloc_us = t.durations("alloc");
    let by_request: BTreeMap<u64, &Replayed> =
        inputs.replayed.iter().map(|r| (r.request, r)).collect();
    let searched: BTreeSet<(String, u32)> = t
        .requests_with("alloc")
        .iter()
        .filter_map(|id| by_request.get(id))
        .map(|r| (r.job.workload.clone(), r.job.area))
        .collect();
    let (mut cap_hits, mut enumerated) = (0usize, 0usize);
    for (spec, area) in &searched {
        if let Ok(w) = probe_engine.workload(spec) {
            let (allocations, capped) = rchls_core::alloc_search::enumerate_allocations_with_cap(
                &w.dfg,
                inputs.library,
                *area,
            );
            enumerated += allocations.len();
            cap_hits += usize::from(capped);
        }
    }
    m.add(
        "alloc.calls",
        alloc_us.len() as f64,
        "count",
        alloc_us.len(),
    );
    m.add(
        "alloc.ms_total",
        alloc_us.iter().sum::<f64>() / 1e3,
        "ms",
        alloc_us.len(),
    );
    m.add(
        "alloc.ms_p50",
        median(&alloc_us) / 1e3,
        "ms",
        alloc_us.len(),
    );
    m.add(
        "alloc.ms_max",
        alloc_us.iter().copied().fold(0.0, f64::max) / 1e3,
        "ms",
        alloc_us.len(),
    );
    m.add("alloc.cap_hits", cap_hits as f64, "count", searched.len());
    m.add(
        "alloc.enumerated",
        enumerated as f64,
        "count",
        searched.len(),
    );

    // figure6 and the refine upgrades, with counters from the reports
    // each computed request returned.
    let computed: BTreeSet<u64> = t.requests_with("figure6");
    let diag_sum = |f: fn(&rchls_core::Diagnostics) -> u32| -> f64 {
        inputs
            .replayed
            .iter()
            .filter(|r| computed.contains(&r.request))
            .filter_map(|r| r.report.as_ref())
            .map(|r| f64::from(f(&r.diagnostics)))
            .sum()
    };
    let figure6_us = t.durations("figure6");
    let refine_us = t.durations("refine");
    let refine_ms: f64 = refine_us.iter().sum::<f64>() / 1e3;
    let alloc_ms: f64 = alloc_us.iter().sum::<f64>() / 1e3;
    m.add(
        "figure6.calls",
        figure6_us.len() as f64,
        "count",
        figure6_us.len(),
    );
    m.add(
        "figure6.ms_total",
        figure6_us.iter().sum::<f64>() / 1e3,
        "ms",
        figure6_us.len(),
    );
    m.add(
        "figure6.loop_iterations",
        diag_sum(|d| d.loop_iterations),
        "count",
        computed.len(),
    );
    m.add("refine.ms_total", refine_ms, "ms", refine_us.len());
    m.add(
        "refine.other_ms_total",
        (refine_ms - alloc_ms).max(0.0),
        "ms",
        refine_us.len(),
    );
    m.add(
        "refine.upgrades",
        diag_sum(|d| d.refine_upgrades),
        "count",
        computed.len(),
    );

    // sched / bind kernels: every real call, cached replays excluded.
    for (layer, calls, total, p50) in [
        ("sched", "sched.calls", "sched.ms_total", "sched.us_p50"),
        ("bind", "bind.calls", "bind.ms_total", "bind.us_p50"),
    ] {
        let us = t.durations(layer);
        m.add(calls, us.len() as f64, "count", us.len());
        m.add(total, us.iter().sum::<f64>() / 1e3, "ms", us.len());
        m.add(p50, median(&us), "us", us.len());
    }

    m.add("executor.speedup", inputs.executor_speedup, "x", 2);

    // export: the batch document of each replayed job.
    let export: Vec<(f64, f64)> = inputs
        .replayed
        .iter()
        .map(|r| {
            let doc = BatchReport {
                jobs: 1,
                memoized_points: 1,
                starts_pools: 0,
                alloc_designs: 0,
                outcomes: vec![outcome_of(&r.job, r.report.as_ref())],
            };
            let t0 = Instant::now();
            let text = serde_json::to_string(&doc).expect("batch reports serialize");
            (micros_since(t0), text.len() as f64 / 1024.0)
        })
        .collect();
    let export_us: Vec<f64> = export.iter().map(|e| e.0).collect();
    let export_kb: Vec<f64> = export.iter().map(|e| e.1).collect();
    m.add("export.us_p50", median(&export_us), "us", export_us.len());
    m.add("export.kb_mean", mean(&export_kb), "KB", export_kb.len());

    // serve: round trip vs the in-process engine on the same requests.
    let s = &inputs.serve;
    let overhead: Vec<f64> = s
        .rtt_us
        .iter()
        .zip(&s.engine_us)
        .map(|(r, e)| r - e)
        .collect();
    m.add("serve.rtt_us_p50", median(&s.rtt_us), "us", s.rtt_us.len());
    m.add(
        "serve.rtt_us_p99",
        percentile(&s.rtt_us, 0.99),
        "us",
        s.rtt_us.len(),
    );
    m.add(
        "serve.engine_us_p50",
        median(&s.engine_us),
        "us",
        s.engine_us.len(),
    );
    m.add(
        "serve.overhead_us_p50",
        median(&overhead),
        "us",
        overhead.len(),
    );
    m.add(
        "serve.queue_depth_p95",
        c.queue_depth_p95 as f64,
        "count",
        1,
    );
    m.add("serve.rejected", c.rejected as f64, "count", 1);

    // trace accounting: layer self times vs the request roots.
    let (layers, total) = t.layer_self_times();
    let share = |layer: &str| ratio(*layers.get(layer).unwrap_or(&0) as f64, total as f64);
    let requests = t.durations("request").len();
    m.add(
        "trace.unaccounted_ratio",
        share("unaccounted"),
        "ratio",
        requests,
    );
    m.add(
        "trace.overhead_ratio",
        ratio(inputs.traced_s, inputs.untraced_s) - 1.0,
        "ratio",
        2,
    );
    for (layer, name) in SHARE_METRICS {
        m.add(name, share(layer), "ratio", requests);
    }
    m
}

/// The per-layer share of end-to-end request time (self time ÷ summed
/// request time), one metric per layer of the trace's layer map.
pub const SHARE_METRICS: [(&str, &str); 13] = [
    ("resolve", "self_share.resolve"),
    ("key", "self_share.key"),
    ("mem", "self_share.mem"),
    ("store", "self_share.store"),
    ("starts", "self_share.starts"),
    ("alloc", "self_share.alloc"),
    ("figure6", "self_share.figure6"),
    ("upgrades", "self_share.upgrades"),
    ("strategy", "self_share.strategy"),
    ("sched", "self_share.sched"),
    ("bind", "self_share.bind"),
    ("executor", "self_share.executor"),
    ("serve", "self_share.serve"),
];

/// The batch-document outcome of one job result.
pub fn outcome_of(job: &SynthJob, report: Option<&SynthReport>) -> JobOutcome {
    JobOutcome {
        workload: job.workload.clone(),
        latency_bound: job.latency,
        area_bound: job.area,
        strategy: job.strategy.clone(),
        report: report.map(|r| SynthReport {
            design: r.design.clone(),
            diagnostics: r.diagnostics.scrubbed(),
        }),
        error: report.is_none().then(|| "infeasible".to_owned()),
    }
}
