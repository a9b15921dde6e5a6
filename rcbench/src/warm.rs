//! `warm_replay`: repeats of stored points through `Engine::synth` on a
//! session whose memory budget is below the working set, so most
//! requests hit memory and the rest come back from the on-disk store.

use crate::check::{self, Failures};
use crate::layers::{self, LayerInputs};
use crate::report::{Metrics, Outcome};
use crate::util::{median, micros_since, nproc, peak_rss_mb, GeoMean, Recorder, Rng};
use crate::Ctx;
use rchls_core::{CacheBudget, Engine, EngineError, SynthJob, SynthReport};
use rchls_reslib::Library;
use rchls_store::ResultStore;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const STRATEGIES: [&str; 3] = ["ours", "combined", "baseline"];

/// Store populations timed for `setup_s` (their median is reported).
const SETUP_REPS: usize = 5;

/// Share of the working set's report bytes the memory tier may hold.
const RESIDENT_FRACTION: f64 = 0.8;

/// Requests replayed by the traced run.
const TRACED_REQUESTS: usize = 1500;

/// Every `SAMPLE_EVERY`-th answer, up to `MAX_SAMPLES` of them, is
/// kept and checked against the cold result after the measured phase.
/// The cap keeps the kept reports from growing the process's peak RSS
/// with the run length.
const SAMPLE_EVERY: usize = 16;
const MAX_SAMPLES: usize = 1000;

/// The set of distinct points: builtins and small/medium random graphs
/// with all three strategies, plus the two largest random graphs with
/// the baseline (whose synthesis is cheap, so setup stays short, while
/// their keys are the most expensive). It is the same for every seed,
/// which drives the request stream: seed-drawn graphs here would let the
/// seed move the run's reliability and key cost.
pub fn pool() -> Vec<SynthJob> {
    let points = [
        ("builtin:fir16", 12, 8),
        ("builtin:fir16", 10, 12),
        ("builtin:ewf", 17, 16),
        ("builtin:ewf", 14, 20),
        ("builtin:diffeq", 6, 11),
        ("builtin:diffeq", 8, 8),
        ("builtin:ar-lattice", 16, 16),
        ("builtin:ar-lattice", 12, 24),
        ("builtin:butterfly8", 8, 24),
        ("random:64x6@2001", 16, 16),
        ("random:96x8@2002", 24, 24),
        ("random:128x8@2003", 20, 32),
    ];
    let mut jobs: Vec<SynthJob> = points
        .into_iter()
        .flat_map(|(spec, l, a)| STRATEGIES.map(|s| SynthJob::new(spec, l, a).with_strategy(s)))
        .collect();
    for spec in ["random:256x16@2004", "random:512x16@2005"] {
        jobs.push(SynthJob::new(spec, 64, 256).with_strategy("baseline"));
    }
    jobs
}

/// Seeded request stream `index` (pool indices): 0 is the caller's, 1
/// the untimed warm-up's.
fn stream(seed: u64, index: u64, pool_len: usize) -> impl Iterator<Item = usize> {
    let mut rng = Rng::new(seed, 500 + index);
    std::iter::repeat_with(move || rng.below(pool_len))
}

struct Session {
    store: Arc<ResultStore>,
    budget: CacheBudget,
    cold: Vec<Option<SynthReport>>,
}

impl Session {
    fn engine(&self, library: &Library, threads: usize) -> Engine {
        Engine::new(library.clone())
            .with_jobs(threads)
            .with_cache_budget(self.budget)
            .with_store(Arc::clone(&self.store))
    }
}

/// Computes the pool into a fresh store; the memory budget is set from
/// the working set it measured.
fn populate(
    dir: &Path,
    library: &Library,
    threads: usize,
    pool: &[SynthJob],
) -> Result<Session, String> {
    let store = Arc::new(ResultStore::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?);
    let engine = Engine::new(library.clone())
        .with_jobs(threads)
        .with_store(Arc::clone(&store));
    let cold: Vec<Option<SynthReport>> = engine
        .synth_batch(pool)
        .into_iter()
        .map(Result::ok)
        .collect();
    let working_set = engine.cache().resident_bytes() as f64;
    // The report table gets half of the session budget.
    let budget = CacheBudget::limited((2.0 * RESIDENT_FRACTION * working_set) as u64);
    Ok(Session {
        store,
        budget,
        cold,
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let library = Library::table1();
    let threads = nproc();
    let pool = pool();
    let mut setup = Vec::new();
    let mut session = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let s = populate(
            &ctx.scratch(&format!("store-{rep}")),
            &library,
            threads,
            &pool,
        )?;
        let engine = s.engine(&library, threads);
        setup.push(t.elapsed().as_secs_f64());
        session = Some((s, engine));
    }
    let (session, engine) = session.expect("at least one setup");
    let mut failures = Failures::default();
    let mut attempted = 0u64;
    for (job, cold) in pool.iter().zip(&session.cold) {
        attempted += 1;
        if let Some(report) = cold {
            let w = engine.workload(&job.workload).map_err(|e| e.to_string())?;
            failures.check(check::design_valid(&w.dfg, &library, job, &report.design));
        }
    }
    let mut rng = Rng::new(ctx.seed, 7);
    let small: Vec<usize> = (0..pool.len())
        .filter(|&i| pool[i].workload.starts_with("builtin:"))
        .collect();
    let picks: Vec<usize> = (0..2).map(|_| small[rng.below(small.len())]).collect();
    let subsample: Vec<SynthJob> = picks.iter().map(|&i| pool[i].clone()).collect();
    let expected: Vec<_> = picks
        .iter()
        .map(|&i| session.cold[i].as_ref().map(|r| r.design.clone()))
        .collect();
    check::reference_designs_match(&library, &subsample, &expected, &mut failures);
    attempted += subsample.len() as u64;
    if ctx.trace {
        return traced(ctx, &library, threads, &pool, &session, failures, attempted);
    }
    // Untimed: let the memory tier reach its steady state first.
    for i in stream(ctx.seed, 1, pool.len()).take(4 * pool.len()) {
        let _ = engine.synth(&pool[i]);
    }

    // One caller. Its eviction sequence, and so the run's mix of memory
    // and store hits, is a function of the seed; with two callers it
    // depended on how they interleaved, and the run kept both CPUs busy.
    let mut timings = Recorder::new(ctx.seconds, Rng::new(ctx.seed, 600));
    let mut reliability = GeoMean::default();
    let mut samples: Vec<(usize, Option<SynthReport>)> = Vec::new();
    let start = Instant::now();
    for (n, i) in stream(ctx.seed, 0, pool.len()).enumerate() {
        if start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        let t0 = Instant::now();
        let result = engine.synth(&pool[i]);
        timings.record(start.elapsed().as_secs_f64(), micros_since(t0));
        let report = match result {
            Ok(report) => {
                reliability.add(report.design.reliability.value());
                Some(report)
            }
            Err(EngineError::Infeasible { .. }) => None,
            Err(e) => {
                failures.fail(e.to_string());
                continue;
            }
        };
        if n % SAMPLE_EVERY == 0 && samples.len() < MAX_SAMPLES {
            samples.push((i, report));
        }
    }

    // Store-replayed and memory-served answers must equal the cold ones.
    let cold_bytes: Vec<String> = session
        .cold
        .iter()
        .map(|r| check::report_bytes(r.as_ref()))
        .collect();
    for (i, report) in &samples {
        attempted += 1;
        if check::report_bytes(report.as_ref()) != cold_bytes[*i] {
            failures.fail(format!(
                "{}: warm answer differs from cold",
                check::job_line(&pool[*i])
            ));
        }
    }
    let requests = timings.requests() as usize;
    attempted += requests as u64;
    let (ops, p50, p99) = Recorder::summarize(&[&timings]);
    let mut m = Metrics::default();
    m.add("setup_s", median(&setup), "s", setup.len());
    m.add("ops_per_s", ops, "1/s", requests);
    m.add("latency_p50_us", p50, "us", requests);
    m.add("latency_p99_us", p99, "us", requests);
    m.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
    m.add(
        "reliability_geomean",
        reliability.value(),
        "ratio",
        reliability.count(),
    );
    m.add(
        "feasible_ratio",
        reliability.count() as f64 / requests.max(1) as f64,
        "ratio",
        requests,
    );
    let cap_hit_points = session
        .cold
        .iter()
        .filter(|r| r.as_ref().is_some_and(|r| r.diagnostics.alloc_cap_hit))
        .count();
    let stats = engine.cache_stats();
    println!(
        "warm_replay: {} memory+store hits, {} computes, {} evictions",
        stats.hits,
        stats.misses,
        engine.cache_evictions()
    );
    Ok(Outcome {
        attempted,
        failures,
        metrics: m,
        inputs: recorded_inputs(ctx.seed, &pool),
        cap_hit_points,
    })
}

/// The pool, then the caller's stream parameters: the stream is a pure
/// function of the seed, so the pool plus the seed reproduce every
/// request.
fn recorded_inputs(seed: u64, pool: &[SynthJob]) -> Vec<String> {
    let mut lines: Vec<String> = pool.iter().map(check::job_line).collect();
    lines.push(format!(
        "caller: uniform pool indices from stream seed {seed}/500"
    ));
    lines
}

fn traced(
    ctx: &Ctx,
    library: &Library,
    threads: usize,
    pool: &[SynthJob],
    session: &Session,
    mut failures: Failures,
    mut attempted: u64,
) -> Result<Outcome, String> {
    // The caller's first requests.
    let requests: Vec<SynthJob> = stream(ctx.seed, 0, pool.len())
        .take(TRACED_REQUESTS)
        .map(|i| pool[i].clone())
        .collect();
    let plain = session.engine(library, threads);
    let (untraced_s, _) = layers::run_shared(&requests, 1, |_, job| plain.synth(job).is_ok());
    rchls_telemetry::metrics::reset();
    let engine = session.engine(library, threads);
    let (traced_s, trace, replayed) =
        layers::traced_engine_replay(&engine, &requests, 1, &mut failures);
    let counts = layers::Counts::read();
    let cold: std::collections::BTreeMap<String, String> = pool
        .iter()
        .zip(&session.cold)
        .map(|(job, r)| (check::job_line(job), check::report_bytes(r.as_ref())))
        .collect();
    for r in &replayed {
        attempted += 1;
        if cold.get(&check::job_line(&r.job)) != Some(&check::report_bytes(r.report.as_ref())) {
            failures.fail(format!(
                "{}: traced warm answer differs from cold",
                check::job_line(&r.job)
            ));
        }
    }
    let inputs = LayerInputs {
        library,
        trace: &trace,
        replayed: &replayed,
        counts,
        distinct_starts: engine.starts_pools() as u64,
        distinct_alloc: engine.alloc_designs() as u64,
        untraced_s,
        traced_s,
        store_quarantined: session.store.stats().quarantined,
        store_writes: Vec::new(),
        executor_speedup: 0.0,
        serve: layers::ServeProbe::default(),
    };
    let metrics = layers::layer_metrics(&inputs);
    ctx.write_trace(&trace)?;
    Ok(Outcome {
        attempted,
        failures,
        metrics,
        inputs: requests.iter().map(check::job_line).collect(),
        cap_hit_points: 0,
    })
}
