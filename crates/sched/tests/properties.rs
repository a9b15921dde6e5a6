//! Property-based tests for the schedulers on random DAGs.

use proptest::prelude::*;
use rchls_dfg::{Dfg, NodeId, OpClass, OpKind};
use rchls_sched::{
    alap, asap, schedule_density, schedule_force_directed, Delays, Mobility, Schedule,
};

/// Random DAG plus random per-node delays in 1..=3.
fn random_case() -> impl Strategy<Value = (Dfg, Vec<u32>)> {
    (2usize..25).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..(n * 2));
        let kinds = proptest::collection::vec(0u8..5, n);
        let delays = proptest::collection::vec(1u32..=3, n);
        (Just(n), edges, kinds, delays).prop_map(|(_n, edges, kinds, delays)| {
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
            (g, delays)
        })
    })
}

fn mk_delays(g: &Dfg, raw: &[u32]) -> Delays {
    Delays::from_fn(g, |n| raw[n.index()])
}

fn check(s: &Schedule, g: &Dfg, d: &Delays, latency_bound: Option<u32>) {
    s.validate(g, d).unwrap();
    if let Some(l) = latency_bound {
        assert!(s.latency() <= l, "latency {} > bound {}", s.latency(), l);
    }
}

proptest! {
    #[test]
    fn asap_is_earliest_feasible((g, raw) in random_case()) {
        let d = mk_delays(&g, &raw);
        let s = asap(&g, &d).unwrap();
        check(&s, &g, &d, None);
        // No node can move earlier without violating a dependence.
        for n in g.node_ids() {
            let lower = g.preds(n).iter().map(|&p| s.start(p) + d.get(p)).max().unwrap_or(1);
            prop_assert_eq!(s.start(n), lower);
        }
    }

    #[test]
    fn alap_is_latest_feasible((g, raw) in random_case()) {
        let d = mk_delays(&g, &raw);
        let min = asap(&g, &d).unwrap().latency();
        let s = alap(&g, &d, min + 3).unwrap();
        check(&s, &g, &d, Some(min + 3));
        for n in g.node_ids() {
            let upper = g
                .succs(n)
                .iter()
                .map(|&x| s.start(x) - 1)
                .min()
                .unwrap_or(min + 3);
            prop_assert_eq!(s.start(n) + d.get(n) - 1, upper);
        }
    }

    #[test]
    fn mobility_windows_are_consistent((g, raw) in random_case()) {
        let d = mk_delays(&g, &raw);
        let a = asap(&g, &d).unwrap();
        let l = alap(&g, &d, a.latency() + 2).unwrap();
        let m = Mobility::new(&a, &l);
        for n in g.node_ids() {
            prop_assert!(m.earliest(n) <= m.latest(n));
            prop_assert!(m.slack(n) <= a.latency() + 2);
        }
    }

    #[test]
    fn density_valid_at_various_latencies((g, raw) in random_case(), extra in 0u32..5) {
        let d = mk_delays(&g, &raw);
        let min = asap(&g, &d).unwrap().latency();
        let s = schedule_density(&g, &d, min + extra).unwrap();
        check(&s, &g, &d, Some(min + extra));
    }

    #[test]
    fn density_peak_stays_close_to_asap_envelope((g, raw) in random_case()) {
        // The density scheduler is a heuristic, but with generous slack it
        // should essentially never need more units of a class than ASAP
        // (the fully greedy packing); allow one unit of heuristic slop.
        let d = mk_delays(&g, &raw);
        let a = asap(&g, &d).unwrap();
        let s = schedule_density(&g, &d, a.latency() + 4).unwrap();
        for class in OpClass::ALL {
            prop_assert!(
                s.peak_usage(&g, &d, class) <= a.peak_usage(&g, &d, class) + 1,
                "class {} regressed badly", class
            );
        }
    }

    #[test]
    fn force_directed_valid((g, raw) in random_case(), extra in 0u32..4) {
        let d = mk_delays(&g, &raw);
        let min = asap(&g, &d).unwrap().latency();
        let s = schedule_force_directed(&g, &d, min + extra).unwrap();
        check(&s, &g, &d, Some(min + extra));
    }
}
