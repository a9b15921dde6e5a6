//! Output checks. Every design is re-derived independently of the
//! synthesizer that produced it, and results reached by different paths
//! must be byte-identical. No design is pinned as a golden: the checks
//! hold for any correct search, so a better search still passes.

use rchls_core::{Design, Engine, FlowSpec, JobOutcome, SynthJob, SynthReport};
use rchls_dfg::Dfg;
use rchls_relmath::{replicated, serial_reliability};
use rchls_reslib::Library;

/// Failed checks, counted into the run's `failed` tally.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub first: Vec<String>,
}

impl Failures {
    pub fn fail(&mut self, what: String) {
        self.count += 1;
        if self.first.len() < 8 {
            self.first.push(what);
        }
    }

    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(what) = result {
            self.fail(what);
        }
    }
}

/// Re-derives a design's validity: every dependency respected, latency
/// and area within the job's bounds and equal to the reported values,
/// each instance running one version without overlapping operations,
/// and reliability recomputed from the library equal to the reported
/// value.
pub fn design_valid(
    dfg: &Dfg,
    library: &Library,
    job: &SynthJob,
    d: &Design,
) -> Result<(), String> {
    let tag = job_line(job);
    // Steps are 1-based; an operation starting at `s` with delay `d`
    // occupies steps `s..s + d` (exclusive end).
    let delay = |n| library.version(d.assignment.version(n)).delay();
    let finish = |n| d.schedule.start(n) + delay(n);
    if dfg.node_ids().any(|n| d.schedule.start(n) == 0) {
        return Err(format!("{tag}: an operation starts at step 0"));
    }
    for (u, v) in dfg.edges() {
        if d.schedule.start(v) < finish(u) {
            return Err(format!(
                "{tag}: {v:?} starts before its predecessor {u:?} finishes"
            ));
        }
    }
    let latency = dfg.node_ids().map(|n| finish(n) - 1).max().unwrap_or(0);
    if latency != d.latency || latency > job.latency {
        return Err(format!(
            "{tag}: latency {latency} (reported {}) vs bound {}",
            d.latency, job.latency
        ));
    }
    if d.replication.len() != d.binding.instance_count() {
        return Err(format!("{tag}: replication does not cover every instance"));
    }
    let mut area = 0;
    for (idx, (inst, &r)) in d.binding.instances().iter().zip(&d.replication).enumerate() {
        area += library.version(inst.version).area() * r;
        let mut busy: Vec<(u32, u32)> = Vec::new();
        for &n in &inst.nodes {
            if d.assignment.version(n) != inst.version || d.binding.instance_of(n).index() != idx {
                return Err(format!("{tag}: {n:?} bound to a unit of another version"));
            }
            busy.push((d.schedule.start(n), finish(n)));
        }
        busy.sort_unstable();
        if busy.windows(2).any(|w| w[1].0 < w[0].1) {
            return Err(format!("{tag}: unit u{idx} runs two operations at once"));
        }
    }
    if area != d.area || area > job.area {
        return Err(format!(
            "{tag}: area {area} (reported {}) vs bound {}",
            d.area, job.area
        ));
    }
    let reliability = serial_reliability(dfg.node_ids().map(|n| {
        let base = library.version(d.assignment.version(n)).reliability();
        replicated(base, d.replication[d.binding.instance_of(n).index()])
    }))
    .value();
    let reported = d.reliability.value();
    if (reliability - reported).abs() > 1e-12 * reliability.max(f64::MIN_POSITIVE) {
        return Err(format!(
            "{tag}: reliability {reliability} recomputed vs {reported} reported"
        ));
    }
    Ok(())
}

/// Checks one outcome: a feasible one must hold a valid design; an
/// error must be the canonical infeasibility answer.
pub fn outcome_valid(engine: &Engine, job: &SynthJob, outcome: &JobOutcome) -> Result<(), String> {
    match (&outcome.report, &outcome.error) {
        (Some(report), None) => {
            let workload = engine.workload(&job.workload).map_err(|e| e.to_string())?;
            design_valid(&workload.dfg, engine.library(), job, &report.design)
        }
        (None, Some(error)) if is_infeasible(error) => Ok(()),
        _ => Err(format!("{}: failed: {:?}", job_line(job), outcome.error)),
    }
}

/// Whether an engine error string is the canonical "no design meets the
/// bounds" answer (a correct answer, not a failure).
pub fn is_infeasible(error: &str) -> bool {
    error.starts_with("no ") && error.contains(" design for ") && error.contains(" meets ")
}

/// The deterministic bytes of a report: the design plus scrubbed
/// diagnostics.
pub fn report_bytes(report: Option<&SynthReport>) -> String {
    report.map_or_else(
        || "infeasible".to_owned(),
        |r| {
            let scrubbed = SynthReport {
                design: r.design.clone(),
                diagnostics: r.diagnostics.scrubbed(),
            };
            serde_json::to_string(&scrubbed).expect("reports serialize")
        },
    )
}

/// The flow with every slot that has a retained naive oracle switched
/// to it.
pub fn reference_flow() -> FlowSpec {
    FlowSpec::default()
        .with_scheduler("density-reference")
        .with_binder("left-edge-reference")
        .with_refine("greedy-reference")
}

/// Re-runs `jobs` through the `*-reference` passes on a fresh engine
/// and requires the same designs as `expected` (in job order).
pub fn reference_designs_match(
    library: &Library,
    jobs: &[SynthJob],
    expected: &[Option<Design>],
    failures: &mut Failures,
) {
    let engine = Engine::new(library.clone()).with_jobs(1);
    for (job, want) in jobs.iter().zip(expected) {
        let reference = job.clone().with_flow(reference_flow());
        let got = engine.synth(&reference).ok().map(|r| r.design);
        if got.as_ref() != want.as_ref() {
            failures.fail(format!(
                "{}: reference passes chose another design",
                job_line(job)
            ));
        }
    }
}

/// One line per job, the form generated inputs are recorded and
/// fingerprinted in.
pub fn job_line(job: &SynthJob) -> String {
    format!(
        "{} L={} A={} {}",
        job.workload, job.latency, job.area, job.strategy
    )
}
