//! `serve_mixed`: an in-process daemon on a fresh store serving one
//! client connection, a closed loop over a seeded mix of repeat `synth`
//! requests, small `batch` requests, small `sweep` requests and rare
//! fresh `synth` points (compute plus store writes).

use crate::check::{self, Failures};
use crate::layers::{self, LayerInputs, Replayed, ServeProbe};
use crate::report::{Metrics, Outcome};
use crate::trace;
use crate::util::{median, micros_since, nproc, peak_rss_mb, GeoMean, Recorder, Rng};
use crate::Ctx;
use rchls_core::engine::{CacheKey, JobOutcome, Provenance, StoredEntry};
use rchls_core::{flow, CacheBudget, Engine, SynthJob, SynthReport};
use rchls_reslib::Library;
use rchls_serve::{
    response_error_kind, response_result, Client, ServeConfig, Server, ServerHandle,
};
use rchls_store::ResultStore;
use serde::{map_get, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

const STRATEGIES: [&str; 3] = ["ours", "combined", "baseline"];

/// Fresh-point shapes with base bounds that are cheap to synthesize.
const FRESH: [(&str, u32, u32); 3] = [("24x4", 10, 10), ("32x5", 10, 16), ("48x6", 14, 14)];

/// Fresh graphs per connection, and variants per graph: 3 strategies ×
/// 5 latencies × 3 areas. Together they give more distinct fresh points
/// than a connection sends in a minute.
const FRESH_GRAPHS: u64 = 512;
const FRESH_VARIANTS: u64 = 45;

/// Share of requests that are fresh points. Each one ends in a store
/// write, whose `fsync` takes from about a millisecond to tens of them
/// depending on the host's disk; at a quarter of the requests those
/// writes made throughput and p99 a measure of the disk. Rare fresh
/// points keep the write path in the mix but out of the percentiles.
const FRESH_SHARE: f64 = 1.0 / 512.0;

/// The sweeps clients send (workload, latencies, areas), all computed
/// once at boot. Each is 2% of the requests, and the `ewf` sweep is the
/// slowest kind of request that is not rare, so p99 falls inside the
/// `ewf` sweeps' latencies instead of on the step between two kinds.
const SWEEPS: [(&str, [u32; 2], [u32; 2]); 3] = [
    ("builtin:diffeq", [6, 8], [8, 11]),
    ("builtin:fir16", [10, 12], [8, 12]),
    ("builtin:ewf", [14, 17], [16, 20]),
];

/// The daemon's `--cache-budget`: the warm set stays resident while fresh
/// points churn through the LRU, so memory stays bounded however many
/// requests a run completes.
const CACHE_BUDGET_BYTES: u64 = 4 << 20;

/// Client connections, each a closed loop. One connection keeps at most
/// one request in the daemon, so a run needs one CPU at a time; with one
/// per CPU, throughput collapsed whenever the host took a CPU away.
const CONNECTIONS: usize = 1;

/// Daemon boots (with warm-up) timed for `setup_s`.
const SETUP_REPS: usize = 5;

/// Requests replayed on one connection by the traced run.
const TRACED_REQUESTS: usize = 400;

/// Warm repeats timed over the socket and in-process by the traced run.
const SERVE_PROBES: usize = 200;

/// At most this many answers are kept for the offline comparison.
const MAX_SAMPLES: usize = 300;

/// One generated request.
#[derive(Debug, Clone)]
enum Request {
    Synth(SynthJob),
    Batch(Vec<SynthJob>),
    Sweep {
        workload: &'static str,
        latencies: [u32; 2],
        areas: [u32; 2],
    },
}

impl Request {
    fn sweep((workload, latencies, areas): (&'static str, [u32; 2], [u32; 2])) -> Request {
        Request::Sweep {
            workload,
            latencies,
            areas,
        }
    }

    fn method(&self) -> &'static str {
        match self {
            Request::Synth(_) => "synth",
            Request::Batch(_) => "batch",
            Request::Sweep { .. } => "sweep",
        }
    }

    fn params(&self) -> Value {
        let key = |k: &str| Value::Str(k.to_owned());
        match self {
            Request::Synth(job) => serde_json::to_value(job),
            Request::Batch(jobs) => Value::Map(vec![(key("jobs"), serde_json::to_value(jobs))]),
            Request::Sweep {
                workload,
                latencies,
                areas,
            } => Value::Map(vec![
                (key("workload"), key(workload)),
                (key("latencies"), serde_json::to_value(&latencies.to_vec())),
                (key("areas"), serde_json::to_value(&areas.to_vec())),
            ]),
        }
    }

    fn line(&self) -> String {
        match self {
            Request::Synth(job) => format!("synth {}", check::job_line(job)),
            Request::Batch(jobs) => format!(
                "batch [{}]",
                jobs.iter()
                    .map(check::job_line)
                    .collect::<Vec<_>>()
                    .join("; ")
            ),
            Request::Sweep {
                workload,
                latencies,
                areas,
            } => format!("sweep {workload} L={latencies:?} A={areas:?}"),
        }
    }
}

/// The set warmed at setup: builtins and small/medium random graphs
/// with all three strategies. It is the same for every seed (the seed
/// drives the request streams and the fresh graphs): the warm answers
/// are most of the run, and seed-drawn graphs would move its
/// reliability and feasibility from seed to seed.
fn warm_set() -> Vec<SynthJob> {
    [
        ("builtin:fir16", 12, 8),
        ("builtin:ewf", 17, 16),
        ("builtin:diffeq", 6, 11),
        ("builtin:ar-lattice", 16, 16),
        ("builtin:butterfly8", 8, 24),
        ("random:32x5@3001", 10, 16),
        ("random:48x6@3002", 14, 14),
        ("random:64x6@3003", 16, 16),
    ]
    .into_iter()
    .flat_map(|(spec, l, a)| STRATEGIES.map(|s| SynthJob::new(spec, l, a).with_strategy(s)))
    .collect()
}

/// The `k`-th fresh point of a connection whose graphs are seeded from
/// `base`. Graphs are visited in turn, each at its next unused
/// (strategy, latency, area) variant, so every fresh point is a distinct
/// synthesis while the set of interned graphs (which no cache budget
/// bounds) stops growing after the first pass.
fn fresh_point(base: u64, k: u64) -> SynthJob {
    let (graph, variant) = (k % FRESH_GRAPHS, (k / FRESH_GRAPHS) % FRESH_VARIANTS);
    let (shape, l, a) = FRESH[(graph % 3) as usize];
    let spec = format!("random:{shape}@{}", base + graph);
    let (latency, area) = (l + (variant / 3 % 5) as u32, a + (variant / 15) as u32);
    SynthJob::new(spec, latency, area).with_strategy(STRATEGIES[(variant % 3) as usize])
}

/// Connection `conn`'s seeded request stream.
fn stream(seed: u64, conn: usize, warm: &[SynthJob]) -> impl Iterator<Item = Request> + '_ {
    let mut rng = Rng::new(seed, 3100 + conn as u64);
    // Seed-drawn fresh graphs, a disjoint block per connection.
    let base = (Rng::new(seed, 3200).below(1 << 20) as u64 * 2 + conn as u64) * FRESH_GRAPHS;
    let mut fresh = 0u64;
    std::iter::repeat_with(move || {
        let u = rng.unit();
        if u < FRESH_SHARE {
            fresh += 1;
            Request::Synth(fresh_point(base, fresh - 1))
        } else if u < 0.91 {
            Request::Synth(warm[rng.below(warm.len())].clone())
        } else if u < 0.94 {
            Request::Batch(
                (0..3)
                    .map(|_| warm[rng.below(warm.len())].clone())
                    .collect(),
            )
        } else {
            Request::sweep(SWEEPS[rng.below(SWEEPS.len())])
        }
    })
}

/// A booted, warmed daemon.
struct Daemon {
    handle: ServerHandle,
    addr: String,
    store: PathBuf,
}

impl Daemon {
    fn boot(
        dir: &Path,
        library: &Library,
        threads: usize,
        warm: &[SynthJob],
    ) -> Result<Daemon, String> {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            jobs: threads,
            store: Some(dir.display().to_string()),
            cache_budget: CacheBudget::limited(CACHE_BUDGET_BYTES),
            ..ServeConfig::default()
        };
        let handle =
            Server::start(config, library.clone()).map_err(|e| format!("daemon start: {e}"))?;
        let daemon = Daemon {
            addr: handle.addr().to_string(),
            handle,
            store: dir.to_path_buf(),
        };
        let mut client = daemon.connect()?;
        let warm_up = std::iter::once(Request::Batch(warm.to_vec()))
            .chain(SWEEPS.into_iter().map(Request::sweep));
        for request in warm_up {
            let doc = client
                .call(request.method(), Some(&request.params()), None)
                .map_err(|e| format!("warm-up: {e}"))?;
            if response_result(&doc).is_none() {
                return Err(format!("warm-up failed: {:?}", response_error_kind(&doc)));
            }
        }
        Ok(daemon)
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    fn stop(self) {
        if let Ok(mut client) = self.connect() {
            let _ = client.call("shutdown", None, None);
        }
        self.handle.shutdown();
        self.handle.join();
    }
}

/// Boots the daemon `SETUP_REPS` times (each on a fresh store, warmed),
/// keeping the last; returns it with the boot times.
fn setup(
    ctx: &Ctx,
    library: &Library,
    threads: usize,
    warm: &[SynthJob],
) -> Result<(Daemon, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = last.take() {
            Daemon::stop(previous);
        }
        let t = Instant::now();
        let daemon = Daemon::boot(
            &ctx.scratch(&format!("store-{rep}")),
            library,
            threads,
            warm,
        )?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(daemon);
    }
    Ok((last.expect("at least one setup"), times))
}

/// The job outcome documents in one answer (none for a sweep).
fn outcomes_of(method: &str, result: &Value) -> Vec<Value> {
    match method {
        "synth" => vec![result.clone()],
        "batch" => result
            .as_map()
            .and_then(|m| map_get(m, "outcomes"))
            .and_then(Value::as_seq)
            .map(<[Value]>::to_vec)
            .unwrap_or_default(),
        _ => Vec::new(),
    }
}

fn reliability_of(outcome: &Value) -> Option<f64> {
    let report = map_get(outcome.as_map()?, "report")?.as_map()?;
    match map_get(map_get(report, "design")?.as_map()?, "reliability")? {
        Value::Float(r) => Some(*r),
        Value::UInt(r) => Some(*r as f64),
        Value::Int(r) => Some(*r as f64),
        _ => None,
    }
}

/// The outcome document the offline engine gives for `job`.
fn offline(engine: &Engine, job: &SynthJob) -> String {
    let batch = engine.run_batch(std::slice::from_ref(job));
    serde_json::to_string(&serde_json::to_value(&batch.outcomes[0])).expect("values serialize")
}

/// Served = offline, and every served design valid.
fn check_served(engine: &Engine, samples: &[(SynthJob, Value)], failures: &mut Failures) -> u64 {
    for (job, served) in samples {
        let bytes = serde_json::to_string(served).expect("values serialize");
        if bytes != offline(engine, job) {
            failures.fail(format!(
                "{}: served outcome differs from offline",
                check::job_line(job)
            ));
            continue;
        }
        match serde_json::from_value::<JobOutcome>(served) {
            Ok(outcome) => failures.check(check::outcome_valid(engine, job, &outcome)),
            Err(e) => failures.fail(format!("{}: unparsable outcome: {e}", check::job_line(job))),
        }
    }
    samples.len() as u64
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let library = Library::table1();
    let threads = nproc();
    let warm = warm_set();
    let (daemon, setup_times) = setup(ctx, &library, threads, &warm)?;
    if ctx.trace {
        let result = traced(ctx, &library, threads, &warm, &daemon.addr);
        Daemon::stop(daemon);
        return result;
    }

    struct Conn {
        timings: Recorder,
        reliability: GeoMean,
        outcomes: usize,
        samples: Vec<(SynthJob, Value)>,
        errors: Vec<String>,
        sent: BTreeMap<&'static str, usize>,
    }
    let start = Instant::now();
    let conns: Vec<Result<Conn, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (daemon, warm) = (&daemon, &warm);
                scope.spawn(move || -> Result<Conn, String> {
                    let mut client = daemon.connect()?;
                    let mut conn = Conn {
                        timings: Recorder::new(ctx.seconds, Rng::new(ctx.seed, 3300 + c as u64)),
                        reliability: GeoMean::default(),
                        outcomes: 0,
                        samples: Vec::new(),
                        errors: Vec::new(),
                        sent: BTreeMap::new(),
                    };
                    for (n, request) in stream(ctx.seed, c, warm).enumerate() {
                        if start.elapsed().as_secs_f64() >= ctx.seconds {
                            break;
                        }
                        let params = request.params();
                        let t0 = Instant::now();
                        let response = client.call(request.method(), Some(&params), None);
                        conn.timings
                            .record(start.elapsed().as_secs_f64(), micros_since(t0));
                        *conn.sent.entry(request.method()).or_default() += 1;
                        let doc = match response {
                            Ok(doc) => doc,
                            Err(e) => {
                                conn.errors.push(format!("transport: {e}"));
                                client = daemon.connect()?;
                                continue;
                            }
                        };
                        let Some(result) = response_result(&doc) else {
                            conn.errors.push(format!(
                                "{} answered {:?}",
                                request.line(),
                                response_error_kind(&doc)
                            ));
                            continue;
                        };
                        for outcome in outcomes_of(request.method(), result) {
                            conn.outcomes += 1;
                            if let Some(r) = reliability_of(&outcome) {
                                conn.reliability.add(r);
                            }
                        }
                        if n % 16 == 0 && conn.samples.len() < MAX_SAMPLES / CONNECTIONS {
                            match &request {
                                Request::Synth(job) => {
                                    conn.samples.push((job.clone(), result.clone()))
                                }
                                Request::Batch(jobs) => {
                                    for (job, o) in jobs.iter().zip(outcomes_of("batch", result)) {
                                        conn.samples.push((job.clone(), o));
                                    }
                                }
                                Request::Sweep { .. } => {}
                            }
                        }
                    }
                    Ok(conn)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    Daemon::stop(daemon);

    let mut failures = Failures::default();
    let mut attempted = 0u64;
    let offline_engine = Engine::new(library.clone()).with_jobs(1);
    let conns: Vec<Conn> = conns.into_iter().collect::<Result<_, _>>()?;
    let (mut reliability, mut outcomes) = (GeoMean::default(), 0);
    let mut inputs: Vec<String> = warm
        .iter()
        .map(|j| format!("warm: {}", check::job_line(j)))
        .collect();
    for (c, conn) in conns.iter().enumerate() {
        reliability.merge(conn.reliability);
        outcomes += conn.outcomes;
        attempted += conn.timings.requests();
        for e in &conn.errors {
            failures.fail(e.clone());
        }
        attempted += check_served(&offline_engine, &conn.samples, &mut failures);
        let counts: Vec<String> = conn.sent.iter().map(|(m, n)| format!("{n} {m}")).collect();
        inputs.push(format!(
            "connection {c}: stream seed {}/{}: {} requests ({})",
            ctx.seed,
            3100 + c,
            conn.timings.requests(),
            counts.join(", ")
        ));
    }
    let requests = conns.iter().map(|c| c.timings.requests()).sum::<u64>() as usize;
    let timings: Vec<&Recorder> = conns.iter().map(|c| &c.timings).collect();
    let (ops, p50, p99) = Recorder::summarize(&timings);
    let mut m = Metrics::default();
    m.add("setup_s", median(&setup_times), "s", setup_times.len());
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
        reliability.count() as f64 / outcomes.max(1) as f64,
        "ratio",
        outcomes,
    );
    Ok(Outcome {
        attempted,
        failures,
        metrics: m,
        inputs,
        cap_hit_points: 0,
    })
}

/// A session fact from the daemon's `metrics` answer.
fn session_fact(client: &mut Client, name: &str) -> u64 {
    let Ok(doc) = client.call("metrics", None, None) else {
        return 0;
    };
    response_result(&doc)
        .and_then(Value::as_map)
        .and_then(|m| map_get(m, "session"))
        .and_then(Value::as_map)
        .and_then(|s| map_get(s, name))
        .and_then(|v| match v {
            Value::UInt(n) => Some(*n),
            _ => None,
        })
        .unwrap_or(0)
}

/// Replays the first requests of connection 0 on one connection,
/// untraced on one daemon and traced on a second identically warmed
/// one, then probes socket round trips, store writes and export.
fn traced(
    ctx: &Ctx,
    library: &Library,
    threads: usize,
    warm: &[SynthJob],
    addr: &str,
) -> Result<Outcome, String> {
    let requests: Vec<Request> = stream(ctx.seed, 0, warm).take(TRACED_REQUESTS).collect();
    let mut failures = Failures::default();
    let replay = |client: &mut Client, traced: bool| -> Result<(f64, Vec<Option<Value>>), String> {
        let t = Instant::now();
        let mut answers = Vec::with_capacity(requests.len());
        for (i, request) in requests.iter().enumerate() {
            let params = request.params();
            let _r = traced.then(|| trace::request(i as u64 + 1));
            let _s = traced.then(|| trace::span("serve.rtt"));
            let doc = client
                .call(request.method(), Some(&params), None)
                .map_err(|e| e.to_string())?;
            answers.push(response_result(&doc).cloned());
        }
        Ok((t.elapsed().as_secs_f64(), answers))
    };
    let (untraced_s, _) = replay(
        &mut Client::connect(addr).map_err(|e| e.to_string())?,
        false,
    )?;

    let daemon = Daemon::boot(&ctx.scratch("store-traced"), library, threads, warm)?;
    let mut client = daemon.connect()?;
    let (starts_before, alloc_before) = (
        session_fact(&mut client, "starts_pools"),
        session_fact(&mut client, "alloc_designs"),
    );
    rchls_telemetry::metrics::reset();
    let recording = trace::Recording::start();
    let replayed_answers = replay(&mut client, true);
    let trace = recording.finish();
    let (traced_s, answers) = replayed_answers?;
    let counts = layers::Counts::read();
    let distinct_starts = session_fact(&mut client, "starts_pools").saturating_sub(starts_before);
    let distinct_alloc = session_fact(&mut client, "alloc_designs").saturating_sub(alloc_before);

    let mut attempted = requests.len() as u64;
    let mut replayed = Vec::new();
    let mut samples = Vec::new();
    for (i, (request, answer)) in requests.iter().zip(&answers).enumerate() {
        let Some(result) = answer else {
            failures.fail(format!("{} was refused", request.line()));
            continue;
        };
        if let Request::Synth(job) = request {
            samples.push((job.clone(), result.clone()));
            let outcome: JobOutcome = serde_json::from_value(result).map_err(|e| e.to_string())?;
            replayed.push(Replayed {
                request: i as u64 + 1,
                job: job.clone(),
                report: outcome.report,
            });
        }
    }

    // Warm repeats: the socket round trip vs the same request in-process.
    let local = Engine::new(library.clone()).with_jobs(threads);
    let _ = local.run_batch(warm);
    let mut probe = ServeProbe::default();
    let mut rng = Rng::new(ctx.seed, 11);
    for _ in 0..SERVE_PROBES {
        let job = &warm[rng.below(warm.len())];
        let params = serde_json::to_value(job);
        let t0 = Instant::now();
        let doc = client
            .call("synth", Some(&params), None)
            .map_err(|e| e.to_string())?;
        probe.rtt_us.push(micros_since(t0));
        let t0 = Instant::now();
        let value = serde_json::to_value(&local.run_batch(std::slice::from_ref(job)).outcomes[0]);
        probe.engine_us.push(micros_since(t0));
        attempted += 1;
        if response_result(&doc) != Some(&value) {
            failures.fail(format!(
                "{}: served repeat differs from in-process",
                check::job_line(job)
            ));
        }
    }
    let store_quarantined = ResultStore::open(&daemon.store).map_or(0, |s| s.stats().quarantined);
    drop(client);
    Daemon::stop(daemon);
    attempted += check_served(
        &Engine::new(library.clone()).with_jobs(1),
        &samples,
        &mut failures,
    );

    // Fresh points are too rare in the replay to time writes on, so the
    // probe writes every distinct point it answered.
    let mut seen = BTreeSet::new();
    let distinct: Vec<&Replayed> = replayed
        .iter()
        .filter(|r| seen.insert(check::job_line(&r.job)))
        .collect();
    let store_writes = write_probe(&ctx.scratch("store-probe"), library, &distinct)?;

    let inputs = LayerInputs {
        library,
        trace: &trace,
        replayed: &replayed,
        counts,
        distinct_starts,
        distinct_alloc,
        untraced_s,
        traced_s,
        store_quarantined,
        store_writes,
        executor_speedup: 0.0,
        serve: probe,
    };
    let metrics = layers::layer_metrics(&inputs);
    ctx.write_trace(&trace)?;
    Ok(Outcome {
        attempted,
        failures,
        metrics,
        inputs: requests.iter().map(Request::line).collect(),
        cap_hit_points: 0,
    })
}

/// Times `encode_entry` + `ResultStore::save` for each of `points`, into
/// a store of its own. Returns (µs, payload bytes).
fn write_probe(
    dir: &Path,
    library: &Library,
    points: &[&Replayed],
) -> Result<Vec<(f64, usize)>, String> {
    let store = ResultStore::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let engine = Engine::new(library.clone()).with_jobs(1);
    let mut writes = Vec::new();
    for r in points {
        let job = &r.job;
        let Some(strategy) = flow::strategy(&job.strategy) else {
            continue;
        };
        let token = strategy.fingerprint_token();
        let workload = engine.workload(&job.workload).map_err(|e| e.to_string())?;
        let key = CacheKey::for_point(
            &workload.dfg,
            library,
            job.bounds(),
            &job.flow,
            job.redundancy,
            &token,
        );
        let entry = StoredEntry {
            strategy: token,
            bounds: job.bounds(),
            report: r.report.as_ref().map(|r| SynthReport {
                design: r.design.clone(),
                diagnostics: r.diagnostics.scrubbed(),
            }),
            provenance: Some(Provenance {
                workload: workload.spec.clone(),
                flow: job.flow.clone(),
                model: job.redundancy,
            }),
        };
        let t0 = Instant::now();
        let payload = rchls_core::engine::store_tier::encode_entry(&entry);
        store.save(key.raw(), &payload).map_err(|e| e.to_string())?;
        writes.push((micros_since(t0), payload.len()));
    }
    Ok(writes)
}
