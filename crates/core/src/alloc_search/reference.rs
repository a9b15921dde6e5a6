//! The retained naive allocation search: the oracle the optimized kernels
//! in the parent module are held to.
//!
//! [`schedule_on_allocation_reference`] is the version-aware list
//! scheduler in its plainest form — a full unit scan per ready
//! operation, no early exits, the design built for every allocation
//! that schedules. [`best_allocation_design_reference`] runs
//! it on every enumerated allocation in enumeration order and keeps the
//! first one attaining the maximum reliability, with no bound, no
//! ordering, and no pruning. It enumerates through
//! [`super::enumerate_allocations_with_cap`], which the optimized search
//! does not call (that search walks its allocations class by class), so
//! the two share only the cap's value, and a bug in the walk or in any
//! bound, exit, or pick shows up as a divergence instead of cancelling
//! out. The
//! `greedy-reference` refine pass builds its portfolio through this
//! search.

use super::enumerate_allocations_with_cap;
use crate::bounds::Bounds;
use crate::flow::Diagnostics;
use rchls_bind::{Assignment, Binding, Instance, InstanceId};
use rchls_dfg::{Dfg, NodeId, OpClass};
use rchls_reslib::{Library, VersionId};
use rchls_sched::Schedule;

/// Reusable buffers for the reference scheduler — one set serves every
/// allocation of a search.
#[derive(Debug, Default)]
struct ReferenceScratch {
    topo: Vec<NodeId>,
    remaining_path: Vec<u32>,
    start: Vec<Option<u32>>,
    finish: Vec<u32>,
    owner: Vec<usize>,
    ready: Vec<NodeId>,
    // Event-driven readiness state: unscheduled-predecessor counts, the
    // latest predecessor finish seen so far, and per-step buckets of
    // nodes that become ready at that step.
    pending_preds: Vec<u32>,
    max_pred_finish: Vec<u32>,
    events: Vec<Vec<NodeId>>,
}

impl ReferenceScratch {
    /// (Re)computes the cached topological order for `dfg`. Returns
    /// `false` for cyclic graphs.
    fn prepare(&mut self, dfg: &Dfg) -> bool {
        match dfg.topological_order() {
            Ok(order) => {
                self.topo = order;
                true
            }
            Err(_) => false,
        }
    }
}

/// The naive form of [`super::schedule_on_allocation`]: the same
/// decisions, reached by scanning every unit for every ready operation
/// and running every allocation to the end of the latency budget.
///
/// Ready operations are started in priority order (longest remaining path
/// under optimistic per-class minimum delays). Each op picks, among the
/// free units of its class, the most reliable one that still lets its
/// downstream chain finish within the bound; if none looks safe, the op
/// waits while a one-step wait can still meet the bound, and otherwise
/// takes the fastest free unit.
///
/// Returns `None` when the allocation cannot complete the graph within
/// `latency_bound` under this heuristic.
pub fn schedule_on_allocation_reference(
    dfg: &Dfg,
    library: &Library,
    allocation: &[(VersionId, u32)],
    latency_bound: u32,
) -> Option<(Assignment, Schedule, Binding)> {
    let mut scratch = ReferenceScratch::default();
    if !scratch.prepare(dfg) {
        return None;
    }
    schedule_in(dfg, library, allocation, latency_bound, &mut scratch)
}

struct Unit {
    version: VersionId,
    free_at: u32, // first step this unit can start a new op
    nodes: Vec<NodeId>,
}

/// [`schedule_on_allocation_reference`] on reusable buffers
/// (`scratch.prepare` must have succeeded for `dfg`). Readiness is
/// event-driven: each node tracks its count of unscheduled predecessors
/// and the latest predecessor finish; when the count hits zero the node
/// is bucketed at step `max_pred_finish + 1`, the first step a full
/// rescan (`all preds started && finished < step`) would admit it. The
/// ready list carries deferred nodes forward and is re-sorted by the
/// `(longest remaining path, node index)` key every step.
fn schedule_in(
    dfg: &Dfg,
    library: &Library,
    allocation: &[(VersionId, u32)],
    latency_bound: u32,
    scratch: &mut ReferenceScratch,
) -> Option<(Assignment, Schedule, Binding)> {
    let mut units: Vec<Unit> = allocation
        .iter()
        .flat_map(|&(v, n)| {
            (0..n).map(move |_| Unit {
                version: v,
                free_at: 1,
                nodes: Vec::new(),
            })
        })
        .collect();
    if units.is_empty() && !dfg.is_empty() {
        return None;
    }

    // Optimistic remaining-path lengths (per-class minimum delays).
    let min_delay = |n: NodeId| {
        library
            .min_delay(dfg.node(n).class())
            .expect("allocation covers every used class")
    };
    scratch.remaining_path.clear();
    scratch.remaining_path.resize(dfg.node_count(), 0);
    for &n in scratch.topo.iter().rev() {
        let down = dfg
            .succs(n)
            .iter()
            .map(|&s| scratch.remaining_path[s.index()])
            .max()
            .unwrap_or(0);
        scratch.remaining_path[n.index()] = down + min_delay(n);
    }
    let remaining_path = &scratch.remaining_path;

    scratch.start.clear();
    scratch.start.resize(dfg.node_count(), None);
    scratch.finish.clear();
    scratch.finish.resize(dfg.node_count(), 0);
    scratch.owner.clear();
    scratch.owner.resize(dfg.node_count(), 0);
    let (start, finish, owner) = (&mut scratch.start, &mut scratch.finish, &mut scratch.owner);
    let mut remaining = dfg.node_count();
    // The fastest delay actually available per class in this allocation —
    // the deferral horizon: as long as starting *now* on such a unit would
    // still meet the deadline, waiting for one to free up is viable.
    let mut class_min: Vec<(OpClass, u32)> = Vec::new();
    for class in OpClass::ALL {
        let d = units
            .iter()
            .filter(|u| library.version(u.version).class() == class)
            .map(|u| library.version(u.version).delay())
            .min();
        if let Some(d) = d {
            class_min.push((class, d));
        }
    }
    // Event-driven readiness: seed the sources at step 1, then bucket
    // each node when its last predecessor is scheduled.
    let pending = &mut scratch.pending_preds;
    pending.clear();
    pending.extend(dfg.node_ids().map(|n| dfg.preds(n).len() as u32));
    let max_fin = &mut scratch.max_pred_finish;
    max_fin.clear();
    max_fin.resize(dfg.node_count(), 0);
    let buckets = latency_bound as usize + 2;
    if scratch.events.len() < buckets {
        scratch.events.resize_with(buckets, Vec::new);
    }
    for bucket in &mut scratch.events[..buckets] {
        bucket.clear();
    }
    let events = &mut scratch.events;
    events[1].extend(dfg.node_ids().filter(|&n| dfg.preds(n).is_empty()));
    let ready = &mut scratch.ready;
    ready.clear();
    for step in 1..=latency_bound {
        if remaining == 0 {
            break;
        }
        ready.append(&mut events[step as usize]);
        ready.sort_by_key(|&n| (std::cmp::Reverse(remaining_path[n.index()]), n.index()));
        let mut scheduled_any = false;
        for &n in ready.iter() {
            let class = dfg.node(n).class();
            let downstream = remaining_path[n.index()] - min_delay(n);
            // One pass over the units: every comparator ends on the unit
            // index, so each minimum is unique and a strict `is-less`
            // scan finds exactly the element `min_by` would.
            let mut best_safe: Option<usize> = None; // most reliable deadline-safe free unit
            let mut best_fast: Option<usize> = None; // fastest free unit
            for (i, u) in units.iter().enumerate() {
                if u.free_at > step {
                    continue;
                }
                let ver = library.version(u.version);
                if ver.class() != class {
                    continue;
                }
                let fast_better = match best_fast {
                    None => true,
                    Some(b) => (ver.delay(), i) < (library.version(units[b].version).delay(), b),
                };
                if fast_better {
                    best_fast = Some(i);
                }
                if step - 1 + ver.delay() + downstream <= latency_bound {
                    let safe_better = match best_safe {
                        None => true,
                        Some(b) => {
                            let vb = library.version(units[b].version);
                            vb.reliability()
                                .value()
                                .total_cmp(&ver.reliability().value())
                                .then(ver.delay().cmp(&vb.delay()))
                                .then(i.cmp(&b))
                                == std::cmp::Ordering::Less
                        }
                    };
                    if safe_better {
                        best_safe = Some(i);
                    }
                }
            }
            if best_fast.is_none() {
                continue; // no free unit of this class at all
            }
            let pick: Option<usize> = if best_safe.is_some() {
                // Most reliable among deadline-safe units.
                best_safe
            } else {
                // No safe unit is free. If a fast-enough unit exists in the
                // allocation and starting now on it would still meet the
                // deadline, defer the op: forcing it onto a slow unit now
                // would wreck a downstream chain that a one-step wait saves.
                let horizon = class_min
                    .iter()
                    .find(|(c, _)| *c == class)
                    .map(|&(_, d)| d)
                    .expect("class covered by allocation");
                if step - 1 + horizon + downstream <= latency_bound {
                    continue; // wait for a safe unit
                }
                // Doomed either way: grab the fastest to limit the damage.
                best_fast
            };
            let Some(idx) = pick else { continue };
            let delay = library.version(units[idx].version).delay();
            let fin = step + delay - 1;
            start[n.index()] = Some(step);
            finish[n.index()] = fin;
            units[idx].free_at = step + delay;
            units[idx].nodes.push(n);
            owner[n.index()] = idx;
            remaining -= 1;
            scheduled_any = true;
            for &s in dfg.succs(n) {
                pending[s.index()] -= 1;
                max_fin[s.index()] = max_fin[s.index()].max(fin);
                if pending[s.index()] == 0 {
                    // First admissible step: strictly after the latest
                    // predecessor finish (fin >= step, so this bucket is
                    // always in the future — never mutated mid-visit).
                    let at = max_fin[s.index()] + 1;
                    if at <= latency_bound {
                        events[at as usize].push(s);
                    }
                }
            }
        }
        if scheduled_any {
            ready.retain(|&n| start[n.index()].is_none());
        }
    }
    if remaining > 0 || finish.iter().copied().max().unwrap_or(0) > latency_bound {
        return None;
    }

    let assignment = Assignment::from_fn(dfg, library, |n| units[owner[n.index()]].version);
    let delays = assignment.delays(dfg, library);
    let starts: Vec<u32> = start.iter().map(|s| s.unwrap_or(1)).collect();
    let schedule = Schedule::new(starts, &delays);
    schedule.validate(dfg, &delays).ok()?;
    // Compact: drop unused units and renumber owners.
    let mut instances: Vec<Instance> = Vec::new();
    let mut owner_map = vec![InstanceId::new(0); dfg.node_count()];
    for unit in units.into_iter().filter(|u| !u.nodes.is_empty()) {
        let id = InstanceId::new(instances.len() as u32);
        for &n in &unit.nodes {
            owner_map[n.index()] = id;
        }
        instances.push(Instance {
            version: unit.version,
            nodes: unit.nodes,
        });
    }
    let binding = Binding::new(instances, owner_map);
    Some((assignment, schedule, binding))
}

/// The naive allocation search: the same capped enumeration as
/// [`super::best_allocation_design_diag`], every enumerated allocation
/// list-scheduled by [`schedule_on_allocation_reference`] in enumeration
/// order, and the first design attaining the maximum reliability kept.
/// Records the same [`Diagnostics::alloc_cap_hit`] flag. By contract the
/// optimized search returns exactly this design; it is orders of
/// magnitude slower on wide area bounds.
pub fn best_allocation_design_reference(
    dfg: &Dfg,
    library: &Library,
    bounds: Bounds,
    diagnostics: &mut Diagnostics,
) -> Option<(Assignment, Schedule, Binding)> {
    let mut scratch = ReferenceScratch::default();
    if !scratch.prepare(dfg) {
        return None;
    }
    let (allocations, capped) = enumerate_allocations_with_cap(dfg, library, bounds.area);
    diagnostics.alloc_cap_hit |= capped;
    let mut best: Option<(f64, (Assignment, Schedule, Binding))> = None;
    for allocation in &allocations {
        if let Some(candidate) = schedule_in(dfg, library, allocation, bounds.latency, &mut scratch)
        {
            let rel = candidate.0.design_reliability(library).value();
            if best.as_ref().is_none_or(|(best_rel, _)| rel > *best_rel) {
                best = Some((rel, candidate));
            }
        }
    }
    best.map(|(_, design)| design)
}
