//! Golden equivalence on the deterministic sweep fixtures: the `ours`
//! strategy matches the Figure-6 `Synthesizer` for every pass
//! combination, the optimized kernels match their `*-reference` twins,
//! and an explicit pipelining interval past the latency bound matches
//! the interval at the bound, all byte for byte.

use rchls_core::{
    flow, Bounds, Design, FlowSpec, Strategy, SynthReport, SynthRequest, Synthesizer,
};
use rchls_dfg::Dfg;
use rchls_reslib::Library;

/// The deterministic sweep fixtures: per benchmark, the bound pairs the
/// explorer determinism suite pins (trimmed to keep debug runtime sane).
fn fixtures() -> Vec<(Dfg, Vec<Bounds>)> {
    vec![
        (
            rchls_workloads::figure4a(),
            vec![Bounds::new(5, 4), Bounds::new(6, 6), Bounds::new(8, 8)],
        ),
        (
            rchls_workloads::diffeq(),
            vec![Bounds::new(5, 11), Bounds::new(7, 9)],
        ),
    ]
}

/// Byte-identical comparison through the serde rendering (catches any
/// field drift `PartialEq` might coalesce).
fn bytes(design: &Design) -> String {
    serde_json::to_string(design).expect("designs serialize")
}

/// A report's deterministic bytes: the design plus wall-time-scrubbed
/// diagnostics.
fn report_bytes(r: &SynthReport) -> String {
    serde_json::to_string(&SynthReport {
        design: r.design.clone(),
        diagnostics: r.diagnostics.scrubbed(),
    })
    .expect("reports serialize")
}

fn run_trait(
    strategy: &dyn Strategy,
    dfg: &Dfg,
    lib: &Library,
    bounds: Bounds,
    flow: &FlowSpec,
) -> Option<Design> {
    strategy
        .run(&SynthRequest::new(dfg, lib, bounds).with_flow(flow.clone()))
        .ok()
        .map(|r| r.design)
}

#[test]
fn ours_matches_synthesizer_for_every_pass_combination() {
    let lib = Library::table1();
    let ours = flow::strategy("ours").unwrap();
    for (dfg, points) in fixtures() {
        for scheduler in ["density", "force-directed"] {
            for binder in ["left-edge", "coloring"] {
                for victim in ["max-delay", "min-reliability-loss"] {
                    for refine in ["greedy", "off"] {
                        let spec = FlowSpec::default()
                            .with_scheduler(scheduler)
                            .with_binder(binder)
                            .with_victim(victim)
                            .with_refine(refine);
                        for &bounds in &points {
                            let legacy = Synthesizer::with_flow(&dfg, &lib, &spec)
                                .unwrap()
                                .synthesize(bounds)
                                .ok();
                            let trait_api = run_trait(&*ours, &dfg, &lib, bounds, &spec);
                            assert_eq!(
                                legacy.as_ref().map(bytes),
                                trait_api.as_ref().map(bytes),
                                "{} {scheduler}/{binder}/{victim}/{refine} at {bounds}",
                                dfg.name()
                            );
                        }
                    }
                }
            }
        }
    }
}

/// An explicit interval past the latency bound folds nothing further, so
/// `Pipelined` clamps it to `Ld`: every longer interval gives the report
/// bytes of `ii = Ld` (and never sizes a residue table by the raw
/// interval, which at `u32::MAX` would abort on allocation).
#[test]
fn pipelined_intervals_past_the_latency_bound_match_the_bound() {
    let lib = Library::table1();
    for (dfg, points) in fixtures() {
        for &bounds in &points {
            let at = |ii: u32| {
                let strategy = flow::strategy(&format!("pipelined@ii={ii}")).unwrap();
                strategy
                    .run(&SynthRequest::new(&dfg, &lib, bounds))
                    .map(|r| report_bytes(&r))
                    .map_err(|e| e.to_string())
            };
            let ld = bounds.latency;
            let reference = at(ld);
            for ii in [ld + 1, 2 * ld + 3, u32::MAX] {
                assert_eq!(at(ii), reference, "II={ii} at {bounds} on {}", dfg.name());
            }
        }
    }
}

#[test]
fn redundancy_is_deterministic_and_dominates_baseline() {
    // `redundancy` has no pre-refactor entry point; its golden contract
    // is determinism (two runs, byte-identical designs) plus dominance
    // over the baseline whose design space it contains.
    let lib = Library::table1();
    let spec = FlowSpec::default();
    let redundancy = flow::strategy("redundancy").unwrap();
    let baseline = flow::strategy("baseline").unwrap();
    for (dfg, points) in fixtures() {
        for &bounds in &points {
            let a = run_trait(&*redundancy, &dfg, &lib, bounds, &spec);
            let b = run_trait(&*redundancy, &dfg, &lib, bounds, &spec);
            assert_eq!(a.as_ref().map(bytes), b.as_ref().map(bytes));
            if let (Some(red), Some(base)) = (&a, &run_trait(&*baseline, &dfg, &lib, bounds, &spec))
            {
                assert!(
                    red.reliability.value() + 1e-12 >= base.reliability.value(),
                    "redundancy below baseline at {bounds} on {}",
                    dfg.name()
                );
            }
        }
    }
}

/// The tentpole golden: for **all 16 pass combinations** and both the
/// `ours` and `baseline` strategies, swapping the optimized scheduler
/// and binder for their retained naive references
/// (`density-reference`, `left-edge-reference`, ...) produces
/// byte-identical `SynthReport`s (designs and scrubbed diagnostics) —
/// the delta-cost kernels change nothing but wall time.
#[test]
fn optimized_and_reference_kernels_agree_across_all_combos_and_strategies() {
    let lib = Library::table1();
    for (dfg, points) in fixtures() {
        for scheduler in ["density", "force-directed"] {
            for binder in ["left-edge", "coloring"] {
                for victim in ["max-delay", "min-reliability-loss"] {
                    for refine in ["greedy", "off"] {
                        let optimized = FlowSpec::default()
                            .with_scheduler(scheduler)
                            .with_binder(binder)
                            .with_victim(victim)
                            .with_refine(refine);
                        let reference = optimized
                            .clone()
                            .with_scheduler(format!("{scheduler}-reference"))
                            .with_binder(format!("{binder}-reference"));
                        for strategy_id in ["ours", "baseline"] {
                            let strategy = flow::strategy(strategy_id).unwrap();
                            for &bounds in &points {
                                let fast = strategy
                                    .run(
                                        &SynthRequest::new(&dfg, &lib, bounds)
                                            .with_flow(optimized.clone()),
                                    )
                                    .ok();
                                let slow = strategy
                                    .run(
                                        &SynthRequest::new(&dfg, &lib, bounds)
                                            .with_flow(reference.clone()),
                                    )
                                    .ok();
                                assert_eq!(
                                    fast.as_ref().map(report_bytes),
                                    slow.as_ref().map(report_bytes),
                                    "{} {strategy_id} {scheduler}/{binder}/{victim}/{refine} \
                                     at {bounds}",
                                    dfg.name()
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The refine-kernel golden: for every scheduler/binder/victim
/// combination and the three refining strategies, swapping the
/// delta-evaluated `greedy` pass for its retained full-recompute
/// `greedy-reference` produces byte-identical `SynthReport`s (designs
/// and scrubbed diagnostics). The fast side runs with a session
/// `ScratchPool` *and* `StartsCache` attached (shared across every
/// combo, so pools intern and replay across flows) while the reference
/// side recomputes everything fresh — proving the O(1) latency test,
/// the area lower-bound screen, the cached reliability product, and the
/// interned start pools change nothing but wall time.
#[test]
fn greedy_and_greedy_reference_agree_across_combos_and_strategies() {
    let lib = Library::table1();
    let scratch = rchls_core::ScratchPool::new();
    let starts = rchls_core::engine::StartsCache::new();
    for (dfg, points) in fixtures() {
        for scheduler in ["density", "force-directed"] {
            for binder in ["left-edge", "coloring"] {
                for victim in ["max-delay", "min-reliability-loss"] {
                    let fast_flow = FlowSpec::default()
                        .with_scheduler(scheduler)
                        .with_binder(binder)
                        .with_victim(victim);
                    let reference_flow = fast_flow.clone().with_refine("greedy-reference");
                    for strategy_id in ["ours", "baseline", "combined"] {
                        let strategy = flow::strategy(strategy_id).unwrap();
                        for &bounds in &points {
                            let fast = strategy
                                .run(
                                    &SynthRequest::new(&dfg, &lib, bounds)
                                        .with_flow(fast_flow.clone())
                                        .with_scratch_pool(&scratch)
                                        .with_starts_cache(&starts),
                                )
                                .ok();
                            let slow = strategy
                                .run(
                                    &SynthRequest::new(&dfg, &lib, bounds)
                                        .with_flow(reference_flow.clone()),
                                )
                                .ok();
                            assert_eq!(
                                fast.as_ref().map(report_bytes),
                                slow.as_ref().map(report_bytes),
                                "{} {strategy_id} {scheduler}/{binder}/{victim} at {bounds}",
                                dfg.name()
                            );
                        }
                    }
                }
            }
        }
    }
}
