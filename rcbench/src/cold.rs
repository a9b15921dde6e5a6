//! `cold_batch`: fresh memory-only engines run `Engine::run_batch` over
//! seeded mixes of distinct points — the paper's synthesis itself.

use crate::check::{self, Failures};
use crate::layers::{self, LayerInputs};
use crate::report::{Metrics, Outcome};
use crate::util::{median, nproc, peak_rss_mb, percentile, GeoMean, Rng};
use crate::Ctx;
use rchls_core::{BatchReport, Engine, SynthJob};
use rchls_reslib::Library;
use std::time::Instant;

/// A random graph shape (`nodes`, `layers`) and its `(latency, area)`
/// bounds.
type Shape = (usize, usize, [(u32, u32); 3]);

/// Random graph shapes with their bounds, tight to loose; the first is
/// the allocation-heavy wide-area corner where the enumeration cap fires.
const SHAPES: [Shape; 4] = [
    (32, 5, [(8, 64), (10, 16), (14, 10)]),
    (64, 6, [(8, 64), (12, 24), (16, 16)]),
    (64, 8, [(8, 64), (14, 24), (20, 16)]),
    (96, 8, [(8, 64), (14, 32), (24, 24)]),
];

const BUILTINS: [(&str, [(u32, u32); 2]); 5] = [
    ("builtin:fir16", [(12, 8), (10, 12)]),
    ("builtin:ewf", [(17, 16), (14, 20)]),
    ("builtin:diffeq", [(6, 11), (8, 8)]),
    ("builtin:ar-lattice", [(16, 16), (12, 24)]),
    ("builtin:butterfly8", [(8, 24), (10, 16)]),
];

/// The three Table-2 strategies, `ours` and `combined` adjacent so two
/// workers run them on the same point at the same time.
const STRATEGIES: [&str; 3] = ["ours", "combined", "baseline"];

/// Engine constructions timed for `setup_s` (their median is reported).
const SETUP_REPS: usize = 101;

/// About how long one round takes on a 2-CPU machine. The round count is
/// fixed from `--seconds` up front, so a run's work (and the allocator
/// arenas its batches touch) depends on the arguments, not on timing.
const ROUND_SECONDS: f64 = 6.5;

fn rounds(seconds: f64) -> u64 {
    ((seconds / ROUND_SECONDS).round() as u64).max(1)
}

/// Round `round` of the seeded mix: every point with all three
/// strategies. The wide corners go first (longest jobs first, so the
/// cheap points even out the workers' finish times and no single corner
/// ends the batch alone), and the two workers always meet `ours` and
/// `combined` of a corner together.
pub fn round_jobs(seed: u64, round: u64) -> Vec<SynthJob> {
    let mut rng = Rng::new(seed, 1000 + round);
    let (mut points, mut cheap) = (Vec::new(), Vec::new());
    for (nodes, layers, bounds) in SHAPES {
        let spec = format!("random:{nodes}x{layers}@{}", rng.below(1_000_000));
        points.push((spec.clone(), bounds[0].0, bounds[0].1));
        cheap.extend(bounds[1..].iter().map(|&(l, a)| (spec.clone(), l, a)));
    }
    for (builtin, bounds) in BUILTINS {
        cheap.extend(bounds.iter().map(|&(l, a)| (builtin.to_owned(), l, a)));
    }
    points.extend(cheap);
    points
        .into_iter()
        .flat_map(|(spec, l, a)| {
            STRATEGIES.map(|s| SynthJob::new(spec.clone(), l, a).with_strategy(s))
        })
        .collect()
}

fn is_wide_corner(job: &SynthJob) -> bool {
    (job.latency, job.area) == (8, 64)
}

fn timed_setup(library: &Library, threads: usize) -> Vec<f64> {
    (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            let engine = Engine::new(library.clone()).with_jobs(threads);
            let secs = t.elapsed().as_secs_f64();
            drop(std::hint::black_box(engine));
            secs
        })
        .collect()
}

/// Validity of every outcome, plus a seeded subsample re-run through the
/// reference passes (wide corners excluded: the naive passes are slow
/// there and the search is the same).
fn check_batch(
    library: &Library,
    seed: u64,
    jobs: &[SynthJob],
    batch: &BatchReport,
    failures: &mut Failures,
) -> u64 {
    let checker = Engine::new(library.clone()).with_jobs(1);
    for (job, outcome) in jobs.iter().zip(&batch.outcomes) {
        failures.check(check::outcome_valid(&checker, job, outcome));
    }
    let mut rng = Rng::new(seed, 7);
    let cheap: Vec<usize> = (0..jobs.len())
        .filter(|&i| !is_wide_corner(&jobs[i]))
        .collect();
    let picks: Vec<usize> = (0..2).map(|_| cheap[rng.below(cheap.len())]).collect();
    let subsample: Vec<SynthJob> = picks.iter().map(|&i| jobs[i].clone()).collect();
    let expected: Vec<_> = picks
        .iter()
        .map(|&i| batch.outcomes[i].report.as_ref().map(|r| r.design.clone()))
        .collect();
    check::reference_designs_match(library, &subsample, &expected, failures);
    (jobs.len() + subsample.len()) as u64
}

fn cap_hits(batch: &BatchReport) -> usize {
    batch
        .outcomes
        .iter()
        .filter(|o| {
            o.report
                .as_ref()
                .is_some_and(|r| r.diagnostics.alloc_cap_hit)
        })
        .count()
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let library = Library::table1();
    let threads = nproc();
    let setup = timed_setup(&library, threads);
    if ctx.trace {
        return traced(ctx, &library, threads);
    }
    let mut failures = Failures::default();
    let (mut inputs, mut round_secs, mut reliability) =
        (Vec::new(), Vec::new(), GeoMean::default());
    let (mut jobs_done, mut attempted, mut cap_hit_points) = (0usize, 0u64, 0usize);
    let mut checked = Vec::new();
    for round in 0..rounds(ctx.seconds) {
        let jobs = round_jobs(ctx.seed, round);
        let engine = Engine::new(library.clone()).with_jobs(threads);
        let t = Instant::now();
        let batch = engine.run_batch(&jobs);
        round_secs.push(t.elapsed().as_secs_f64());
        inputs.extend(
            jobs.iter()
                .map(|j| format!("round {round}: {}", check::job_line(j))),
        );
        jobs_done += jobs.len();
        cap_hit_points += cap_hits(&batch);
        for outcome in &batch.outcomes {
            if let Some(report) = &outcome.report {
                reliability.add(report.design.reliability.value());
            }
        }
        checked.push((jobs, batch));
    }
    for (jobs, batch) in &checked {
        attempted += check_batch(&library, ctx.seed, jobs, batch, &mut failures);
    }
    // Every round runs the same number of jobs; the median round's rate
    // keeps one disturbed round from moving the result.
    let per_round = jobs_done as f64 / round_secs.len() as f64;
    let rates: Vec<f64> = round_secs.iter().map(|s| per_round / s).collect();
    let latency_us: Vec<f64> = round_secs.iter().map(|s| s * 1e6).collect();
    let mut m = Metrics::default();
    m.add("setup_s", median(&setup), "s", setup.len());
    m.add("ops_per_s", median(&rates), "1/s", jobs_done);
    m.add(
        "latency_p50_us",
        median(&latency_us),
        "us",
        latency_us.len(),
    );
    m.add(
        "latency_p99_us",
        percentile(&latency_us, 0.99),
        "us",
        latency_us.len(),
    );
    m.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
    m.add(
        "reliability_geomean",
        reliability.value(),
        "ratio",
        reliability.count(),
    );
    m.add(
        "feasible_ratio",
        reliability.count() as f64 / jobs_done as f64,
        "ratio",
        jobs_done,
    );
    Ok(Outcome {
        attempted,
        failures,
        metrics: m,
        inputs,
        cap_hit_points,
    })
}

/// Replays round 0 untraced (`run_batch`) and traced (decomposed on the
/// same number of caller threads), then probes the executor at 1 vs
/// `nproc` workers.
fn traced(ctx: &Ctx, library: &Library, threads: usize) -> Result<Outcome, String> {
    let mut failures = Failures::default();
    let jobs = round_jobs(ctx.seed, 0);
    let untraced_engine = Engine::new(library.clone()).with_jobs(threads);
    let t = Instant::now();
    let batch = untraced_engine.run_batch(&jobs);
    let untraced_s = t.elapsed().as_secs_f64();
    let mut attempted = check_batch(library, ctx.seed, &jobs, &batch, &mut failures);

    rchls_telemetry::metrics::reset();
    let engine = Engine::new(library.clone()).with_jobs(threads);
    let (traced_s, trace, replayed) =
        layers::traced_engine_replay(&engine, &jobs, threads, &mut failures);
    let counts = layers::Counts::read();
    for (r, outcome) in replayed.iter().zip(&batch.outcomes) {
        attempted += 1;
        if check::report_bytes(r.report.as_ref()) != check::report_bytes(outcome.report.as_ref()) {
            failures.fail(format!(
                "{}: traced replay differs from run_batch",
                check::job_line(&r.job)
            ));
        }
    }

    // The executor at 1 vs nproc workers on the first two points.
    let subset = &jobs[..6];
    let mut wall = [0.0; 2];
    let mut docs = Vec::new();
    for (slot, workers) in [1, threads].into_iter().enumerate() {
        let e = Engine::new(library.clone()).with_jobs(workers);
        let t = Instant::now();
        let b = e.run_batch(subset);
        wall[slot] = t.elapsed().as_secs_f64();
        docs.push(serde_json::to_string(&b.outcomes).expect("outcomes serialize"));
    }
    attempted += 1;
    if docs[0] != docs[1] {
        failures.fail("run_batch at 1 and nproc workers produced different bytes".to_owned());
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
        store_quarantined: 0,
        store_writes: Vec::new(),
        executor_speedup: wall[0] / wall[1],
        serve: layers::ServeProbe::default(),
    };
    let metrics = layers::layer_metrics(&inputs);
    ctx.write_trace(&trace)?;
    Ok(Outcome {
        attempted,
        failures,
        metrics,
        inputs: jobs.iter().map(check::job_line).collect(),
        cap_hit_points: cap_hits(&batch),
    })
}
