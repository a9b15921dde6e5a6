//! The delta-kernel determinism suite.
//!
//! The optimized scheduling/binding kernels (scratch-reused, delta-cost,
//! bucket-pass) must be **byte-identical** to the retained naive
//! reference implementations on every input — this suite holds them to
//! it over the pinned random families `random:{8x3,32x6,64x8}@{0..4}`
//! and every builtin workload, and checks that whole engine batches stay
//! byte-identical across worker counts (`--jobs 1` vs `--jobs 8`) with
//! the scratch pool in play, and that a composite strategy reading its
//! parts from the session memo answers exactly what a direct run does.

use rchls_bind::{
    bind_coloring, bind_left_edge,
    reference::{bind_coloring_reference, bind_left_edge_reference},
    Assignment, BindScratch,
};
use rchls_core::{Bounds, CacheBudget, Engine, FlowSpec, SynthJob, SynthReport, SynthRequest};
use rchls_dfg::Dfg;
use rchls_reslib::Library;
use rchls_sched::{
    reference::{schedule_density_reference, schedule_force_directed_reference},
    schedule_density_with, schedule_force_directed_with, SchedScratch,
};
use std::sync::Arc;

/// The pinned corpus: three random families at five seeds each, plus
/// every builtin workload.
fn corpus() -> Vec<(String, Dfg)> {
    let mut graphs = Vec::new();
    for shape in ["8x3", "32x6", "64x8"] {
        for seed in 0..5u64 {
            let spec = format!("random:{shape}@{seed}");
            let w = rchls_workloads::load_workload(&spec).expect("pinned spec resolves");
            graphs.push((w.spec, w.dfg));
        }
    }
    for (name, dfg) in rchls_workloads::all_benchmarks() {
        graphs.push((format!("builtin:{name}"), dfg()));
    }
    graphs
}

/// A couple of latency budgets bracketing each graph's critical path.
fn latencies(dfg: &Dfg, lib: &Library, assignment: &Assignment) -> Vec<u32> {
    let delays = assignment.delays(dfg, lib);
    let min = rchls_sched::asap(dfg, &delays)
        .expect("corpus graphs are acyclic")
        .latency();
    vec![min, min + 3]
}

/// A seeded per-node choice among each class's versions, so 1-cycle and
/// 2-cycle nodes mix (Table 1 has both delays in each class). With `fit`
/// set, nodes start on the fastest version and a node takes its drawn
/// version only while the graph still fits in `fit` steps.
fn mixed_assignment(dfg: &Dfg, lib: &Library, seed: u64, fit: Option<u32>) -> Assignment {
    let mut mix = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut assignment = Assignment::from_fn(dfg, lib, |n| {
        lib.versions_of(dfg.node(n).class())
            .min_by_key(|(id, v)| (v.delay(), id.index()))
            .expect("table1 covers all classes")
            .0
    });
    let fits = |a: &Assignment| {
        fit.is_none_or(|steps| {
            let delays = a.delays(dfg, lib);
            rchls_sched::asap(dfg, &delays).expect("acyclic").latency() <= steps
        })
    };
    for n in dfg.node_ids() {
        mix ^= mix << 13;
        mix ^= mix >> 7;
        mix ^= mix << 17;
        let versions: Vec<_> = lib
            .versions_of(dfg.node(n).class())
            .map(|(id, _)| id)
            .collect();
        let fastest = assignment.version(n);
        assignment.set(n, versions[(mix % versions.len() as u64) as usize]);
        if !fits(&assignment) {
            assignment.set(n, fastest);
        }
    }
    assignment
}

/// Every latency from the critical path to six steps above it.
fn latency_range(dfg: &Dfg, lib: &Library, assignment: &Assignment) -> Vec<u32> {
    let min = latencies(dfg, lib, assignment)[0];
    (min..=min + 6).collect()
}

#[test]
fn delta_schedulers_match_naive_references_on_the_corpus() {
    let lib = Library::table1();
    // Uniform 2-cycle delays at two latencies, then seeded mixes of
    // 1-cycle and 2-cycle nodes at every latency up to six above the
    // critical path, then the allocation search's wide corners at L=8
    // (where random:64x8 and random:96x8 fit only 1-cycle versions).
    let mut cases = Vec::new();
    for (seed, (spec, dfg)) in (0u64..).zip(corpus()) {
        let uniform = Assignment::uniform(&dfg, &lib).expect("table1 covers all classes");
        let mixed = mixed_assignment(&dfg, &lib, seed, None);
        let delays = mixed.delays(&dfg, &lib);
        let one_cycle = dfg.node_ids().filter(|&n| delays.get(n) == 1).count();
        assert!(
            0 < one_cycle && one_cycle < dfg.node_count(),
            "{spec}: the mix has both 1-cycle and 2-cycle nodes"
        );
        let (uniform_ls, mixed_ls) = (
            latencies(&dfg, &lib, &uniform),
            latency_range(&dfg, &lib, &mixed),
        );
        cases.push((spec.clone(), dfg.clone(), uniform, uniform_ls));
        cases.push((format!("{spec} mixed"), dfg, mixed, mixed_ls));
    }
    for shape in ["32x5", "64x6", "64x8", "96x8"] {
        let spec = format!("random:{shape}@0");
        let dfg = rchls_workloads::load_workload(&spec)
            .expect("pinned spec resolves")
            .dfg;
        let fitted = mixed_assignment(&dfg, &lib, 8, Some(8));
        cases.push((format!("{spec} mixed"), dfg, fitted, vec![8]));
    }
    // One long-lived scratch across the whole corpus: exactly the reuse
    // pattern the engine's pool produces.
    let mut scratch = SchedScratch::new();
    for (spec, dfg, assignment, latencies) in cases {
        scratch.invalidate();
        let delays = assignment.delays(&dfg, &lib);
        for latency in latencies {
            let density = schedule_density_with(&dfg, &delays, latency, &mut scratch)
                .expect("latency >= critical path");
            let density_ref = schedule_density_reference(&dfg, &delays, latency).unwrap();
            assert_eq!(
                density, density_ref,
                "density diverged on {spec} at L={latency}"
            );

            let force = schedule_force_directed_with(&dfg, &delays, latency, &mut scratch)
                .expect("latency >= critical path");
            let force_ref = schedule_force_directed_reference(&dfg, &delays, latency).unwrap();
            assert_eq!(force, force_ref, "force diverged on {spec} at L={latency}");
        }
    }
}

#[test]
fn bucket_binders_match_naive_references_on_the_corpus() {
    let lib = Library::table1();
    let mut sched_scratch = SchedScratch::new();
    let mut bind_scratch = BindScratch::new();
    for (spec, dfg) in corpus() {
        sched_scratch.invalidate();
        let assignment = Assignment::uniform(&dfg, &lib).expect("table1 covers all classes");
        let delays = assignment.delays(&dfg, &lib);
        for latency in latencies(&dfg, &lib, &assignment) {
            let schedule =
                schedule_density_with(&dfg, &delays, latency, &mut sched_scratch).unwrap();
            let le =
                bind_left_edge_with_scratch(&dfg, &schedule, &assignment, &lib, &mut bind_scratch);
            assert_eq!(
                le,
                bind_left_edge_reference(&dfg, &schedule, &assignment, &lib),
                "left-edge diverged on {spec} at L={latency}"
            );
            assert_eq!(
                bind_coloring(&dfg, &schedule, &assignment, &lib),
                bind_coloring_reference(&dfg, &schedule, &assignment, &lib),
                "coloring diverged on {spec} at L={latency}"
            );
        }
    }
}

fn bind_left_edge_with_scratch(
    dfg: &Dfg,
    schedule: &rchls_sched::Schedule,
    assignment: &Assignment,
    lib: &Library,
    scratch: &mut BindScratch,
) -> rchls_bind::Binding {
    let with = rchls_bind::bind_left_edge_with(dfg, schedule, assignment, lib, scratch);
    // The scratch-less wrapper must agree with the reused-scratch path.
    assert_eq!(with, bind_left_edge(dfg, schedule, assignment, lib));
    with
}

/// The batch determinism contract under the session scratch pool: the
/// same jobs — optimized flows and reference flows alike — produce
/// byte-identical batch documents at `--jobs 1` and `--jobs 8`.
#[test]
fn pooled_batches_are_byte_identical_across_worker_counts() {
    let mut jobs = Vec::new();
    for shape in ["8x3", "32x6"] {
        for seed in 0..3u64 {
            let spec = format!("random:{shape}@{seed}");
            jobs.push(SynthJob::new(&spec, 8, 8));
            jobs.push(SynthJob::new(&spec, 10, 6).with_strategy("combined"));
            jobs.push(
                SynthJob::new(&spec, 9, 7).with_flow(
                    FlowSpec::default()
                        .with_scheduler("force-directed")
                        .with_binder("coloring"),
                ),
            );
        }
    }
    // random:64x8 is heavier; one point keeps the suite fast while still
    // exercising the acceptance workload.
    jobs.push(SynthJob::new("random:64x8@0", 14, 24));

    let serial = Engine::new(Library::table1()).with_jobs(1).run_batch(&jobs);
    let serial_doc = serde_json::to_string(&serial).expect("batch documents serialize");
    let parallel = Engine::new(Library::table1()).with_jobs(8).run_batch(&jobs);
    let parallel_doc = serde_json::to_string(&parallel).expect("batch documents serialize");
    assert_eq!(serial_doc, parallel_doc);
}

/// Whole-flow golden check on the acceptance workload: the optimized and
/// reference pass implementations produce byte-identical scrubbed
/// reports through the engine.
#[test]
fn reference_flows_reproduce_optimized_reports_on_random_64x8() {
    let engine = Engine::new(Library::table1()).with_jobs(1);
    let reference_flow = FlowSpec::default()
        .with_scheduler("density-reference")
        .with_binder("left-edge-reference");
    for (latency, area) in [(14, 24), (20, 32)] {
        let optimized = engine.synth(&SynthJob::new("random:64x8@0", latency, area));
        let reference = engine.synth(
            &SynthJob::new("random:64x8@0", latency, area).with_flow(reference_flow.clone()),
        );
        match (optimized, reference) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.design, b.design, "L={latency} A={area}");
                assert_eq!(
                    a.diagnostics.scrubbed(),
                    b.diagnostics.scrubbed(),
                    "L={latency} A={area}"
                );
            }
            (a, b) => panic!("feasibility diverged at L={latency} A={area}: {a:?} vs {b:?}"),
        }
    }
}

/// The incremental-reliability pin on the real corpus: for every pinned
/// graph and a deterministic family of mixed-version assignments, the
/// cached-prefix swap evaluation (`SerialProduct::swap_value`) is
/// **bit-for-bit** equal to the full `design_reliability` recompute, for
/// every `(node, version)` single swap — including after committing a
/// run of swaps, i.e. exactly the access pattern of the refine loop.
#[test]
fn incremental_reliability_matches_full_recompute_on_the_corpus() {
    use rchls_relmath::SerialProduct;
    let lib = Library::table1();
    for (spec, dfg) in corpus() {
        // A deterministic mixed assignment: cycle each class's versions
        // by a node-index + seed offset (xorshift-mixed so neighboring
        // nodes differ).
        let mut mix = 0x9E37_79B9u64;
        let mut assignment = Assignment::uniform(&dfg, &lib).expect("table1 covers all classes");
        for n in dfg.node_ids() {
            mix ^= mix << 13;
            mix ^= mix >> 7;
            mix ^= mix << 17;
            let versions: Vec<_> = lib
                .versions_of(dfg.node(n).class())
                .map(|(id, _)| id)
                .collect();
            assignment.set(n, versions[(mix as usize) % versions.len()]);
        }
        let mut product =
            SerialProduct::new(assignment.iter().map(|(_, v)| lib.version(v).reliability()));
        assert_eq!(
            product.value().to_bits(),
            assignment.design_reliability(&lib).value().to_bits(),
            "{spec}: cached product diverged from the assignment product"
        );
        let mut committed = 0u32;
        for n in dfg.node_ids() {
            for (v, ver) in lib.versions_of(dfg.node(n).class()) {
                let mut swapped = assignment.clone();
                swapped.set(n, v);
                assert_eq!(
                    product
                        .swap_value(n.index(), ver.reliability().value())
                        .to_bits(),
                    swapped.design_reliability(&lib).value().to_bits(),
                    "{spec}: swap ({n}, {}) diverged",
                    ver.name()
                );
            }
            // Commit every third node's swap so later checks run against
            // a mutated cached product, like the refine loop does.
            if n.index() % 3 == 0 {
                let versions: Vec<_> = lib
                    .versions_of(dfg.node(n).class())
                    .map(|(id, _)| id)
                    .collect();
                let v = versions[committed as usize % versions.len()];
                product.set(n.index(), lib.version(v).reliability().value());
                assignment.set(n, v);
                committed += 1;
            }
        }
        assert_eq!(
            product.value().to_bits(),
            assignment.design_reliability(&lib).value().to_bits(),
            "{spec}: committed product diverged"
        );
    }
}

/// The refine-kernel acceptance contract: over the pinned determinism
/// corpus, engine batches running the delta-evaluated `greedy` pass and
/// the full-recompute `greedy-reference` pass produce byte-identical
/// outcome documents (designs and scrubbed diagnostics), at `--jobs 1`
/// and `--jobs 8` alike — with the session starts cache and scratch pool
/// live on the `greedy` side and deliberately bypassed by the reference.
#[test]
fn greedy_reference_reproduces_greedy_batches_across_worker_counts() {
    let reference_flow = FlowSpec::default().with_refine("greedy-reference");
    let mut fast_jobs = Vec::new();
    let mut reference_jobs = Vec::new();
    let mut push = |spec: &str, latency: u32, area: u32| {
        fast_jobs.push(SynthJob::new(spec, latency, area));
        reference_jobs.push(SynthJob::new(spec, latency, area).with_flow(reference_flow.clone()));
    };
    for shape in ["8x3", "32x6"] {
        for seed in 0..5u64 {
            let spec = format!("random:{shape}@{seed}");
            push(&spec, 8, 8);
            push(&spec, 10, 6);
        }
    }
    // The acceptance workload: two random:64x8 seeds at the pinned
    // bound pairs (kept to two points per seed for suite runtime).
    for seed in 0..2u64 {
        let spec = format!("random:64x8@{seed}");
        push(&spec, 14, 24);
        push(&spec, 20, 32);
    }

    let strip = |mut batch: rchls_core::BatchReport| {
        // Outcomes carry no flow field, so the documents are directly
        // comparable; drop the session cache sizes, which legitimately
        // differ (the reference flow is a distinct cache key and
        // deliberately bypasses the starts cache).
        batch.memoized_points = 0;
        batch.starts_pools = 0;
        batch.alloc_designs = 0;
        serde_json::to_string(&batch).expect("batch documents serialize")
    };
    let mut seen = Vec::new();
    for workers in [1usize, 8] {
        let fast = strip(
            Engine::new(Library::table1())
                .with_jobs(workers)
                .run_batch(&fast_jobs),
        );
        let reference = strip(
            Engine::new(Library::table1())
                .with_jobs(workers)
                .run_batch(&reference_jobs),
        );
        assert_eq!(fast, reference, "greedy vs reference at --jobs {workers}");
        seen.push(fast);
    }
    assert_eq!(seen[0], seen[1], "worker count changed the document");
}

/// `combined` under an engine reads its `ours` and `baseline` parts from
/// the session memo; a plain `Strategy::run` computes them. The two must
/// give the same report (wall times scrubbed) at every point of the
/// corpus, at two bounds per graph, whether the batch lists `combined`
/// before its parts or after them, at `--jobs 1` and `--jobs 8`, at cache
/// budget 0 and unlimited, and through a cold store and then a warm one.
#[test]
fn memoized_parts_reproduce_direct_combined_runs() {
    let lib = Library::table1();
    let combined = rchls_core::flow::strategy("combined").expect("built-in");
    let scrub = |r: SynthReport| SynthReport {
        diagnostics: r.diagnostics.scrubbed(),
        ..r
    };
    let mut points = Vec::new();
    for (spec, dfg) in corpus() {
        let assignment = Assignment::uniform(&dfg, &lib).expect("table1 covers all classes");
        let n = u32::try_from(dfg.node_count()).expect("small graphs");
        let ls = latencies(&dfg, &lib, &assignment);
        for bounds in [Bounds::new(ls[0], n / 4 + 2), Bounds::new(ls[1], n / 2 + 4)] {
            let direct = combined.run(&SynthRequest::new(&dfg, &lib, bounds));
            points.push((spec.clone(), bounds, direct.ok().map(scrub)));
        }
    }
    let feasible = points.iter().filter(|p| p.2.is_some()).count();
    assert!(
        0 < feasible && feasible < points.len(),
        "both answers occur"
    );
    let jobs = |combined_first: bool| -> Vec<SynthJob> {
        let mut order = ["ours", "baseline", "combined"];
        if combined_first {
            order.rotate_right(1);
        }
        points
            .iter()
            .flat_map(|(spec, bounds, _)| {
                order.map(|id| SynthJob::new(spec, bounds.latency, bounds.area).with_strategy(id))
            })
            .collect()
    };
    let root = std::env::temp_dir().join(format!("rchls-parts-{}", std::process::id()));
    for combined_first in [true, false] {
        for workers in [1usize, 8] {
            for budget in [CacheBudget::limited(0), CacheBudget::UNLIMITED] {
                let _ = std::fs::remove_dir_all(&root);
                let store = Arc::new(rchls_store::ResultStore::open(&root).expect("temp store"));
                for tier in ["cold", "warm"] {
                    let engine = Engine::new(lib.clone())
                        .with_jobs(workers)
                        .with_cache_budget(budget)
                        .with_store(Arc::clone(&store));
                    let jobs = jobs(combined_first);
                    let batch = engine.run_batch(&jobs);
                    let combined_outcomes = jobs
                        .iter()
                        .zip(&batch.outcomes)
                        .filter(|(job, _)| job.strategy == "combined");
                    for ((job, outcome), (_, _, direct)) in combined_outcomes.zip(&points) {
                        assert_eq!(
                            &outcome.report,
                            direct,
                            "{} at {}: combined first {combined_first}, --jobs {workers}, \
                             budget {budget}, {tier} store",
                            job.workload,
                            job.bounds()
                        );
                    }
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
