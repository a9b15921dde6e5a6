//! Golden equivalence: every built-in strategy and pass combination must
//! produce **byte-identical** designs through the trait-based flow API
//! (`Strategy::run` over a `SynthRequest`) and through the pre-refactor
//! entry points (`Synthesizer::synthesize`, `synthesize_nmr_baseline`,
//! `synthesize_combined`, `synthesize_pipelined`), pinned on the
//! deterministic sweep fixtures.

use rchls_core::flow::Pipelined;
use rchls_core::{
    flow, synthesize_combined, synthesize_nmr_baseline, Bounds, Design, FlowSpec, RedundancyModel,
    Strategy, SynthRequest, Synthesizer,
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

#[test]
fn baseline_and_combined_match_their_legacy_entry_points() {
    let lib = Library::table1();
    let model = RedundancyModel::default();
    let spec = FlowSpec::default();
    let baseline = flow::strategy("baseline").unwrap();
    let combined = flow::strategy("combined").unwrap();
    for (dfg, points) in fixtures() {
        for &bounds in &points {
            let legacy_base = synthesize_nmr_baseline(&dfg, &lib, bounds, model).ok();
            let trait_base = run_trait(&*baseline, &dfg, &lib, bounds, &spec);
            assert_eq!(
                legacy_base.as_ref().map(bytes),
                trait_base.as_ref().map(bytes),
                "baseline at {bounds} on {}",
                dfg.name()
            );
            let legacy_comb = synthesize_combined(&dfg, &lib, bounds, &spec, model).ok();
            let trait_comb = run_trait(&*combined, &dfg, &lib, bounds, &spec);
            assert_eq!(
                legacy_comb.as_ref().map(bytes),
                trait_comb.as_ref().map(bytes),
                "combined at {bounds} on {}",
                dfg.name()
            );
        }
    }
}

#[test]
fn pipelined_matches_its_legacy_entry_point() {
    let lib = Library::table1();
    let spec = FlowSpec::default();
    for (dfg, points) in fixtures() {
        for &bounds in &points {
            for ii in [2u32, bounds.latency] {
                let legacy = Synthesizer::new(&dfg, &lib)
                    .synthesize_pipelined(bounds, ii)
                    .ok();
                let strategy = Pipelined::with_ii(ii);
                let trait_api = run_trait(&strategy, &dfg, &lib, bounds, &spec);
                assert_eq!(
                    legacy.as_ref().map(bytes),
                    trait_api.as_ref().map(bytes),
                    "pipelined II={ii} at {bounds} on {}",
                    dfg.name()
                );
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
    let report_bytes = |r: &rchls_core::SynthReport| {
        serde_json::to_string(&rchls_core::SynthReport {
            design: r.design.clone(),
            diagnostics: r.diagnostics.scrubbed(),
        })
        .expect("reports serialize")
    };
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
                                    fast.as_ref().map(&report_bytes),
                                    slow.as_ref().map(&report_bytes),
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
    let report_bytes = |r: &rchls_core::SynthReport| {
        serde_json::to_string(&rchls_core::SynthReport {
            design: r.design.clone(),
            diagnostics: r.diagnostics.scrubbed(),
        })
        .expect("reports serialize")
    };
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
                                fast.as_ref().map(&report_bytes),
                                slow.as_ref().map(&report_bytes),
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
