//! Property-based tests for the synthesis engine on random DAGs.
//!
//! Case counts are kept small: every case runs the full portfolio engine
//! (greedy + uniform starts + allocation search + refinement).

use proptest::prelude::*;
use rchls_core::explore::sweep;
use rchls_core::{flow, monte_carlo_reliability, Bounds, SynthRequest, Synthesizer};
use rchls_dfg::{Dfg, NodeId, OpKind};
use rchls_reslib::Library;

fn small_dag() -> impl Strategy<Value = Dfg> {
    (3usize..10).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..n);
        let kinds = proptest::collection::vec(0u8..5, n);
        (Just(n), edges, kinds).prop_map(|(_n, edges, kinds)| {
            let mut g = Dfg::new("random");
            for (i, k) in kinds.iter().enumerate() {
                g.add_node(OpKind::ALL[*k as usize], format!("v{i}"));
            }
            for (a, b) in edges {
                let (lo, hi) = (a.min(b), a.max(b));
                if lo != hi {
                    let _ = g.add_edge(NodeId::new(lo as u32), NodeId::new(hi as u32));
                }
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn synthesized_designs_respect_bounds(g in small_dag(), l_extra in 0u32..6, area in 4u32..20) {
        let lib = Library::table1();
        // Latency bound relative to the graph's fastest critical path.
        let min = {
            let fast = rchls_bind::Assignment::from_fn(&g, &lib, |n| {
                lib.fastest_id(g.node(n).class()).expect("table1 covers all classes")
            });
            rchls_sched::asap(&g, &fast.delays(&g, &lib)).unwrap().latency()
        };
        let bounds = Bounds::new(min + l_extra, area);
        let result = Synthesizer::new(&g, &lib).synthesize(bounds);
        if let Ok(d) = result {
            prop_assert!(d.latency <= bounds.latency);
            prop_assert!(d.area <= bounds.area);
            let delays = d.assignment.delays(&g, &lib);
            d.schedule.validate(&g, &delays).unwrap();
            d.binding.assert_valid(&g, &d.schedule, &delays);
            // Reported reliability matches the product model.
            let expect = d.assignment.design_reliability(&lib);
            prop_assert!((d.reliability.value() - expect.value()).abs() < 1e-12);
        }
    }

    #[test]
    fn combined_dominates_both_strategies(g in small_dag()) {
        let lib = Library::table1();
        let bounds = Bounds::new(3 * g.node_count() as u32, 16);
        let run = |id: &str| {
            let strategy = flow::strategy(id).expect("built-in");
            strategy.run(&SynthRequest::new(&g, &lib, bounds)).map(|r| r.design)
        };
        let (ours, base, comb) = (run("ours"), run("baseline"), run("combined"));
        if let Ok(c) = &comb {
            prop_assert!(c.latency <= bounds.latency && c.area <= bounds.area);
            if let Ok(o) = &ours {
                prop_assert!(c.reliability.value() + 1e-12 >= o.reliability.value());
            }
            if let Ok(b) = &base {
                prop_assert!(c.reliability.value() + 1e-12 >= b.reliability.value());
            }
        } else {
            // Combined fails only when both branches fail.
            prop_assert!(ours.is_err() && base.is_err());
        }
    }

    #[test]
    fn sweep_columns_are_monotone_under_dominance(g in small_dag()) {
        let lib = Library::table1();
        let n = g.node_count() as u32;
        let grid: Vec<(u32, u32)> = [2 * n, 3 * n]
            .iter()
            .flat_map(|&l| [6u32, 10, 14].map(move |a| (l, a)))
            .collect();
        let rows = sweep(&g, &lib, &grid);
        for a in &rows {
            for b in &rows {
                if a.latency_bound <= b.latency_bound && a.area_bound <= b.area_bound {
                    for (va, vb) in [(a.baseline, b.baseline), (a.ours, b.ours), (a.combined, b.combined)] {
                        if let (Some(x), Some(y)) = (va, vb) {
                            prop_assert!(y + 1e-12 >= x, "dominated cell beat its superior");
                        }
                        // Feasibility is inherited too.
                        if va.is_some() {
                            prop_assert!(vb.is_some());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn monte_carlo_agrees_with_analytic(g in small_dag(), seed in 0u64..1000) {
        let lib = Library::table1();
        let bounds = Bounds::new(3 * g.node_count() as u32, 12);
        let result = Synthesizer::new(&g, &lib).synthesize(bounds);
        if let Ok(d) = result {
            let emp = monte_carlo_reliability(&d, &g, &lib, 20_000, seed);
            prop_assert!(
                (emp - d.reliability.value()).abs() < 0.02,
                "empirical {} vs analytic {}", emp, d.reliability.value()
            );
        }
    }
}
