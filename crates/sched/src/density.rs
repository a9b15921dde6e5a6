//! The paper's partition-density scheduler (time-constrained).
//!
//! Section 6: *"The scheduling algorithm partitions the data-flow graph
//! into the number of cycles determined by ASAP scheduling, and calculates
//! the density of each partition for a specific type of operation. The
//! total partition density is found by adding the probabilities with which
//! a node can be scheduled within a partition. Then, it schedules an
//! operation in the least dense partition in which the operation can be
//! scheduled."*
//!
//! Concretely: every unplaced operation contributes `1 / |window|` of
//! probability to each start step in its mobility window (spread over its
//! delay for multi-cycle operations); placed operations contribute 1 to the
//! steps they occupy. Operations are placed in order of increasing initial
//! mobility, each into the feasible start that minimizes the density of the
//! partitions it would occupy — which evens out the per-step load and
//! thereby minimizes the number of functional units a binder needs.
//!
//! Two entry points share one algorithm: [`schedule_density_with`] runs on
//! a caller-provided [`SchedScratch`] (cached topological order, zero
//! per-call allocation of intermediates) and is the synthesis hot path;
//! [`schedule_density`] wraps it with a fresh scratch. Both are
//! byte-identical to [`crate::reference::schedule_density_reference`], the
//! retained naive implementation — the determinism suite holds them to it.

use crate::delays::Delays;
use crate::error::ScheduleError;
use crate::schedule::Schedule;
use crate::scratch::SchedScratch;
use rchls_dfg::{Dfg, NodeId, OpClass};

/// Dependence-consistent mobility windows under a partial assignment
/// (the naive allocating form, retained for the reference scheduler).
pub(crate) struct Windows {
    pub es: Vec<u32>,
    pub ls: Vec<u32>,
}

/// Recomputes start-step windows given fixed assignments for some nodes.
///
/// Fixed nodes have a collapsed window; unfixed nodes' windows shrink as
/// their neighbours are pinned.
pub(crate) fn windows(
    dfg: &Dfg,
    delays: &Delays,
    latency: u32,
    fixed: &[Option<u32>],
) -> Result<Windows, ScheduleError> {
    let order = dfg.topological_order()?;
    let mut es = vec![1u32; dfg.node_count()];
    for &n in &order {
        let mut e = dfg
            .preds(n)
            .iter()
            .map(|&p| es[p.index()] + delays.get(p))
            .max()
            .unwrap_or(1);
        if let Some(s) = fixed[n.index()] {
            debug_assert!(s >= e, "fixed start violates a dependence");
            e = s;
        }
        es[n.index()] = e;
    }
    let mut ls = vec![0u32; dfg.node_count()];
    for &n in order.iter().rev() {
        let finish = dfg
            .succs(n)
            .iter()
            .map(|&s| ls[s.index()] - 1)
            .min()
            .unwrap_or(latency);
        let mut l = finish + 1 - delays.get(n);
        if let Some(s) = fixed[n.index()] {
            l = s;
        }
        ls[n.index()] = l;
    }
    Ok(Windows { es, ls })
}

/// Time-constrained scheduling by partition density (the paper's
/// scheduler) on a fresh scratch.
///
/// # Errors
///
/// Returns [`ScheduleError::Graph`] for cyclic graphs and
/// [`ScheduleError::DeadlineTooTight`] if `latency` is below the
/// critical-path minimum.
///
/// # Examples
///
/// ```
/// use rchls_dfg::{DfgBuilder, OpKind};
/// use rchls_sched::{schedule_density, Delays};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Two independent adds with a 2-step budget get spread across steps,
/// // so one adder instance suffices.
/// let g = DfgBuilder::new("indep").ops(&["a", "b"], OpKind::Add).build()?;
/// let d = Delays::uniform(&g, 1);
/// let s = schedule_density(&g, &d, 2)?;
/// assert_ne!(s.start(g.node_by_label("a").unwrap()), s.start(g.node_by_label("b").unwrap()));
/// # Ok(())
/// # }
/// ```
pub fn schedule_density(
    dfg: &Dfg,
    delays: &Delays,
    latency: u32,
) -> Result<Schedule, ScheduleError> {
    schedule_density_with(dfg, delays, latency, &mut SchedScratch::new())
}

/// [`schedule_density`] on a reusable [`SchedScratch`] — the synthesis
/// hot path. Byte-identical output; zero intermediate allocations once
/// the scratch is warm.
///
/// # Errors
///
/// Same contract as [`schedule_density`].
pub fn schedule_density_with(
    dfg: &Dfg,
    delays: &Delays,
    latency: u32,
    scratch: &mut SchedScratch,
) -> Result<Schedule, ScheduleError> {
    let _span = rchls_telemetry::span!("sched.density");
    scratch.ensure_topo(dfg)?;
    // Feasibility exactly as asap+alap validation reports it.
    let minimum = scratch.asap_latency(dfg, delays)?;
    if latency < minimum {
        return Err(ScheduleError::DeadlineTooTight {
            requested: latency,
            minimum,
        });
    }
    if dfg.is_empty() {
        return Ok(Schedule::new(Vec::new(), delays));
    }

    let n = dfg.node_count();
    scratch.fixed.clear();
    scratch.fixed.resize(n, None);
    // Initial (all-unfixed) windows give the ASAP/ALAP mobility used for
    // the placement order: increasing initial mobility, then node id.
    scratch.fill_windows(dfg, delays, latency);
    let mut order = std::mem::take(&mut scratch.order);
    order.clear();
    order.extend(dfg.node_ids());
    {
        let (es, ls) = (&scratch.es, &scratch.ls);
        order.sort_by_key(|&n| (ls[n.index()] - es[n.index()], n.index()));
    }

    // The windows go stale with each placement and are rebuilt before the
    // next, except after a placement into a one-step window: the forward
    // pass would recompute that node's earliest start from the same
    // predecessors and the backward pass its latest start, both to the
    // step it took, and every other node reads only its neighbours'
    // windows, so no window moves. Such a node needs no density either:
    // the minimum over one start is that start. The fill above is current
    // for the first victim.
    let mut stale = false;
    for &victim in &order {
        if stale {
            scratch.fill_windows(dfg, delays, latency);
        }
        let (es, ls) = (scratch.es[victim.index()], scratch.ls[victim.index()]);
        debug_assert!(es <= ls, "window collapsed below feasibility");
        stale = es < ls;
        if !stale {
            scratch.fixed[victim.index()] = Some(es);
            continue;
        }
        let class = dfg.node(victim).class();
        fill_class_density(scratch, dfg, delays, latency, class, Some(victim));
        let d = delays.get(victim);
        let density = &scratch.density;
        let best = (es..=ls)
            .min_by(|&a, &b| {
                let da: f64 = (a..a + d).map(|t| density[(t - 1) as usize]).sum();
                let db: f64 = (b..b + d).map(|t| density[(t - 1) as usize]).sum();
                da.total_cmp(&db).then(a.cmp(&b))
            })
            .expect("window es..=ls is nonempty");
        scratch.fixed[victim.index()] = Some(best);
    }
    scratch.order = order;

    let starts: Vec<u32> = scratch
        .fixed
        .iter()
        .map(|s| s.expect("every node was placed"))
        .collect();
    let schedule = Schedule::new(starts, delays);
    schedule.validate(dfg, delays)?;
    Ok(schedule)
}

/// Per-step expected occupancy ("partition density") for one class under
/// the current partial assignment, written into `scratch.density`.
/// `skip` excludes one node (the one being placed) from the distribution.
///
/// Iteration order and arithmetic match [`class_density`] exactly, so the
/// scratch path selects byte-identical schedules.
pub(crate) fn fill_class_density(
    scratch: &mut SchedScratch,
    dfg: &Dfg,
    delays: &Delays,
    latency: u32,
    class: OpClass,
    skip: Option<NodeId>,
) {
    scratch.density.clear();
    scratch.density.resize(latency as usize, 0.0);
    for n in dfg.node_ids() {
        if Some(n) == skip || dfg.node(n).class() != class {
            continue;
        }
        let d = delays.get(n);
        match scratch.fixed[n.index()] {
            Some(s) => {
                for t in s..s + d {
                    scratch.density[(t - 1) as usize] += 1.0;
                }
            }
            None => {
                let (es, ls) = (scratch.es[n.index()], scratch.ls[n.index()]);
                let width = f64::from(ls - es + 1);
                for s in es..=ls {
                    for t in s..s + d {
                        scratch.density[(t - 1) as usize] += 1.0 / width;
                    }
                }
            }
        }
    }
}

/// Per-step expected occupancy for one class (the naive allocating form,
/// retained for the reference scheduler).
pub(crate) fn class_density(
    dfg: &Dfg,
    delays: &Delays,
    latency: u32,
    fixed: &[Option<u32>],
    w: &Windows,
    class: OpClass,
    skip: Option<NodeId>,
) -> Vec<f64> {
    let mut density = vec![0.0f64; latency as usize];
    for n in dfg.node_ids() {
        if Some(n) == skip || dfg.node(n).class() != class {
            continue;
        }
        let d = delays.get(n);
        match fixed[n.index()] {
            Some(s) => {
                for t in s..s + d {
                    density[(t - 1) as usize] += 1.0;
                }
            }
            None => {
                let (es, ls) = (w.es[n.index()], w.ls[n.index()]);
                let width = f64::from(ls - es + 1);
                for s in es..=ls {
                    for t in s..s + d {
                        density[(t - 1) as usize] += 1.0 / width;
                    }
                }
            }
        }
    }
    density
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asap::asap;
    use rchls_dfg::DfgBuilder;
    use rchls_dfg::OpKind;

    /// The paper's Figure 4(a) example: six additions.
    fn figure4a() -> Dfg {
        DfgBuilder::new("fig4a")
            .ops(&["A", "B", "C", "D", "E", "F"], OpKind::Add)
            .dep("A", "C")
            .dep("B", "C")
            .dep("C", "D")
            .dep("C", "E")
            .dep("D", "F")
            .dep("E", "F")
            .build()
            .unwrap()
    }

    #[test]
    fn density_respects_dependences_and_latency() {
        let g = figure4a();
        let d = Delays::uniform(&g, 1);
        let s = schedule_density(&g, &d, 5).unwrap();
        s.validate(&g, &d).unwrap();
        assert!(s.latency() <= 5);
    }

    #[test]
    fn density_balances_independent_ops() {
        // 4 independent adds over 4 steps: perfectly balanced means peak 1.
        let g = DfgBuilder::new("indep")
            .ops(&["a", "b", "c", "d"], OpKind::Add)
            .build()
            .unwrap();
        let d = Delays::uniform(&g, 1);
        let s = schedule_density(&g, &d, 4).unwrap();
        assert_eq!(s.peak_usage(&g, &d, OpClass::Adder), 1);
    }

    #[test]
    fn density_with_slack_uses_fewer_units_than_asap() {
        let g = figure4a();
        let d = Delays::uniform(&g, 1);
        // ASAP packs A and B into step 1 (2 adders); with L=6 the density
        // scheduler can serialize all six ops onto one adder (6 ops need
        // at least 6 steps for peak 1).
        let asap_peak = asap(&g, &d).unwrap().peak_usage(&g, &d, OpClass::Adder);
        let dens_peak = schedule_density(&g, &d, 6)
            .unwrap()
            .peak_usage(&g, &d, OpClass::Adder);
        assert_eq!(asap_peak, 2);
        assert_eq!(dens_peak, 1);
        // At L=5 the pigeonhole bound is 2, and density achieves it.
        let peak5 = schedule_density(&g, &d, 5)
            .unwrap()
            .peak_usage(&g, &d, OpClass::Adder);
        assert_eq!(peak5, 2);
    }

    #[test]
    fn density_multicycle_mixed_delays() {
        let g = DfgBuilder::new("mix")
            .op("m1", OpKind::Mul)
            .op("m2", OpKind::Mul)
            .op("s", OpKind::Add)
            .dep("m1", "s")
            .dep("m2", "s")
            .build()
            .unwrap();
        let d = Delays::from_fn(&g, |n| {
            if g.node(n).kind() == OpKind::Mul {
                2
            } else {
                1
            }
        });
        // Minimum latency 3; with 5 steps the two multiplies can serialize.
        let s = schedule_density(&g, &d, 5).unwrap();
        s.validate(&g, &d).unwrap();
        assert_eq!(s.peak_usage(&g, &d, OpClass::Multiplier), 1);
    }

    #[test]
    fn density_rejects_infeasible_latency() {
        let g = figure4a();
        let d = Delays::uniform(&g, 1);
        assert!(matches!(
            schedule_density(&g, &d, 3),
            Err(ScheduleError::DeadlineTooTight { minimum: 4, .. })
        ));
    }

    #[test]
    fn density_at_exact_critical_path() {
        let g = figure4a();
        let d = Delays::uniform(&g, 1);
        let s = schedule_density(&g, &d, 4).unwrap();
        assert_eq!(s.latency(), 4);
        s.validate(&g, &d).unwrap();
    }

    #[test]
    fn density_is_deterministic() {
        let g = figure4a();
        let d = Delays::uniform(&g, 1);
        assert_eq!(
            schedule_density(&g, &d, 6).unwrap(),
            schedule_density(&g, &d, 6).unwrap()
        );
    }

    #[test]
    fn scratch_reuse_across_latencies_and_graphs_matches_fresh() {
        let g = figure4a();
        let d = Delays::uniform(&g, 1);
        let mut scratch = SchedScratch::new();
        for latency in 4..=8 {
            let reused = schedule_density_with(&g, &d, latency, &mut scratch).unwrap();
            let fresh = schedule_density(&g, &d, latency).unwrap();
            assert_eq!(reused, fresh, "latency {latency}");
        }
        // Switching to a different-size graph re-binds automatically.
        let g2 = DfgBuilder::new("indep")
            .ops(&["a", "b", "c"], OpKind::Add)
            .build()
            .unwrap();
        let d2 = Delays::uniform(&g2, 1);
        let reused = schedule_density_with(&g2, &d2, 3, &mut scratch).unwrap();
        assert_eq!(reused, schedule_density(&g2, &d2, 3).unwrap());
    }
}
