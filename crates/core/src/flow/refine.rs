//! The greedy refinement kernel: portfolio starts plus lazy-greedy
//! version upgrades, in a delta-evaluated fast form (`"greedy"`) and a
//! full-recompute naive reference (`"greedy-reference"`).
//!
//! # The decision procedure
//!
//! Both passes run **the same algorithm** — only the evaluation machinery
//! differs — so their `SynthReport`s (designs *and* deterministic
//! diagnostics) are byte-identical, which the golden suites assert on
//! every pinned workload. Per upgrade iteration:
//!
//! 1. every `(node, version)` candidate whose version is strictly more
//!    reliable than the node's current one gets its exact reliability
//!    gain (new design product minus the incumbent product);
//! 2. candidates are ordered by `(gain desc, node index, version
//!    order)` — a max-gain move queue;
//! 3. the queue is scanned lazily: the first candidate that survives the
//!    latency test, the area screens, and a real schedule-and-bind *is*
//!    the iteration's winner (any candidate behind it has no larger
//!    gain), so scanning stops there. A candidate whose gain falls to
//!    the no-gain threshold ends the scan outright — nothing behind it
//!    can win either.
//!
//! Screened-out candidates count as `rejected_moves`; the scheduler and
//! binder run — and are counted — only for scanned candidates that pass
//! every screen, which is what turns the former
//! O(iterations × nodes × versions) schedule-and-bind storm into a
//! handful of calls per accepted upgrade.
//!
//! # Delta evaluation (the `"greedy"` pass)
//!
//! * **Reliability gains** come from a cached
//!   [`rchls_relmath::SerialProduct`]: a single-swap product is replayed
//!   from the cached prefix, bit-for-bit equal to the full recompute
//!   (property-pinned in `rchls-relmath`), without rebuilding the
//!   assignment.
//! * **Latency** is tested in O(1) per candidate. With `head[n]` /
//!   `tail[n]` the longest delay-weighted paths into and out of `n`
//!   under the *incumbent* delays (which exclude `n`'s own delay), a
//!   single-node swap to delay `d'` yields the exact critical path
//!   `max(longest path avoiding n, head[n] + d' + tail[n])` — and the
//!   path avoiding `n` is bounded by the incumbent's critical path,
//!   which is within the latency bound (the incumbent is feasible). So
//!   `head[n] + d' + tail[n] > Ld` *iff* the full ASAP recompute would
//!   exceed the bound. The arrays are rebuilt once per accepted move
//!   (they depend only on the incumbent assignment), never per
//!   candidate.
//! * **Area** is screened by a sound lower bound before the binder runs:
//!   a unit of version `v` can execute at most `⌊Ld / delay(v)⌋`
//!   operations inside the latency budget, so any valid binding needs at
//!   least `Σ_v ⌈count(v) / ⌊Ld/delay(v)⌋⌉ · area(v)` area. The per-move
//!   bound is maintained as a delta over cached per-version counts
//!   (invalidation is keyed on the accepted move's two versions — the
//!   only counts a single-node swap changes); candidates whose bound
//!   already exceeds `Ad` are rejected without scheduling or binding.
//!
//! The reference pass recomputes all three from scratch per candidate —
//! full `design_reliability` products, full ASAP latency, recounted
//! version multisets — so the golden equality between the two passes
//! *proves* every cached form above, not just exercises it.

use crate::alloc_search;
use crate::bounds::Bounds;
use crate::error::SynthesisError;
use crate::flow::{Diagnostics, FlowState, RefinePass};
use crate::synth::Synthesizer;
use rchls_bind::Assignment;
use rchls_dfg::NodeId;
use rchls_relmath::SerialProduct;
use rchls_reslib::{Library, VersionId};

/// Gains at or below this threshold are treated as "no improvement": the
/// upgrade loop stops rather than chase float dust.
const GAIN_EPSILON: f64 = 1e-15;

/// One enqueued upgrade candidate: replace `node`'s version with
/// `version` for an exact reliability gain of `gain`. `order` is the
/// version's position in the library's class iteration, the final
/// tie-break so both kernels scan queues in the same order.
#[derive(Debug, Clone, Copy)]
struct MoveCandidate {
    gain: f64,
    node: NodeId,
    order: u32,
    version: VersionId,
}

/// Sorts a move queue by `(gain desc, node index, version order)`.
fn sort_queue(moves: &mut [MoveCandidate]) {
    moves.sort_by(|a, b| {
        b.gain
            .total_cmp(&a.gain)
            .then(a.node.index().cmp(&b.node.index()))
            .then(a.order.cmp(&b.order))
    });
}

/// Assembles the starting-design portfolio both greedy passes share: the
/// Figure-6 result (when feasible), every uniform single-version design
/// meeting the bounds, and the best allocation-first design; the most
/// reliable member wins. `memoized_starts` selects the session-interned
/// uniform-start pool and the bound-guided allocation search (the fast
/// pass) or a fresh start pool and the naive allocation scan (the
/// reference) — both pairs are identical by construction, which the
/// golden and engine determinism suites check.
fn portfolio_best(
    synth: &Synthesizer<'_>,
    figure6: Result<FlowState, SynthesisError>,
    bounds: Bounds,
    diagnostics: &mut Diagnostics,
    memoized_starts: bool,
) -> Result<FlowState, SynthesisError> {
    let dfg = synth.dfg();
    let library = synth.library();
    let mut candidates: Vec<FlowState> = Vec::new();
    if let Ok(x) = &figure6 {
        candidates.push(x.clone());
    }
    let alloc = if memoized_starts {
        candidates.extend(synth.uniform_feasible_starts(bounds)?);
        synth.alloc_design(bounds, diagnostics)
    } else {
        candidates.extend(synth.uniform_feasible_starts_fresh(bounds)?);
        alloc_search::best_allocation_design_reference(dfg, library, bounds, diagnostics)
    };
    candidates.extend(alloc.map(|(assignment, schedule, binding)| FlowState {
        assignment,
        schedule,
        binding,
    }));
    diagnostics
        .candidate_pool_sizes
        .push(u32::try_from(candidates.len()).unwrap_or(u32::MAX));
    let Some(best) = candidates.into_iter().max_by(|a, b| {
        let ra = a.assignment.design_reliability(library).value();
        let rb = b.assignment.design_reliability(library).value();
        ra.total_cmp(&rb)
    }) else {
        return Err(figure6.expect_err("no candidates implies figure6 failed"));
    };
    Ok(best)
}

/// The default portfolio-and-upgrade pass (id `"greedy"`), in its
/// delta-evaluated, lazily-prioritized form.
///
/// Pools the Figure-6 result with every *uniform* single-version
/// assignment that meets the bounds and the best allocation-first design,
/// starts from the most reliable pool member, and repeatedly applies the
/// single-node version upgrade with the largest reliability gain that
/// keeps both bounds satisfied. This extension recovers mixed-version
/// optima the one-pass Figure-6 greedy can miss (e.g. the paper's own
/// Figure-7(b) FIR design). See the `flow/refine` module docs for the move
/// queue, the O(1) latency test, and the area lower-bound screen that
/// make each iteration cheap.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyRefine;

impl RefinePass for GreedyRefine {
    fn id(&self) -> &str {
        "greedy"
    }

    fn description(&self) -> &str {
        "portfolio starts + lazy-greedy delta-evaluated version upgrades (default)"
    }

    fn run(
        &self,
        synth: &Synthesizer<'_>,
        figure6: Result<FlowState, SynthesisError>,
        bounds: Bounds,
        diagnostics: &mut Diagnostics,
    ) -> Result<FlowState, SynthesisError> {
        let best = portfolio_best(synth, figure6, bounds, diagnostics, true)?;
        upgrade_loop_delta(synth, best, bounds, diagnostics)
    }
}

/// The retained naive greedy pass (id `"greedy-reference"`): the same
/// lazy-greedy decision procedure as [`GreedyRefine`], with every
/// quantity re-derived from first principles per candidate — full
/// `design_reliability` products, full ASAP latency per scanned move,
/// recounted version multisets through an independently written area
/// floor (`area_floor_reference`), an independently written queue
/// ordering (`sort_queue_reference`), a fresh (never memoized)
/// uniform start pool, and the naive allocation scan
/// ([`alloc_search::best_allocation_design_reference`]: every enumerated
/// allocation list-scheduled by the unit-scanning reference scheduler).
/// Nothing but the procedure spec and the allocation enumeration is
/// shared with the optimized pass, so a bug in any optimized screen,
/// cache, bound, or comparator shows up as a golden-suite divergence
/// instead of cancelling out. Byte-identical reports, one to two orders
/// of magnitude slower; kept so whole flows can be replayed through the
/// naive kernels and diffed against the optimized ones (the CI golden
/// tests do exactly that).
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyReferenceRefine;

impl RefinePass for GreedyReferenceRefine {
    fn id(&self) -> &str {
        "greedy-reference"
    }

    fn description(&self) -> &str {
        "naive reference of the greedy refine pass (byte-identical, slow; for equivalence tests)"
    }

    fn run(
        &self,
        synth: &Synthesizer<'_>,
        figure6: Result<FlowState, SynthesisError>,
        bounds: Bounds,
        diagnostics: &mut Diagnostics,
    ) -> Result<FlowState, SynthesisError> {
        let best = portfolio_best(synth, figure6, bounds, diagnostics, false)?;
        upgrade_loop_reference(synth, best, bounds, diagnostics)
    }
}

/// The reference kernel's own queue ordering, written out from the
/// decision-procedure spec rather than shared with the optimized pass —
/// so an ordering bug in [`sort_queue`] shows up as a golden-suite
/// divergence instead of cancelling out.
fn sort_queue_reference(moves: &mut [MoveCandidate]) {
    moves.sort_by(|a, b| match b.gain.total_cmp(&a.gain) {
        std::cmp::Ordering::Equal => match a.node.index().cmp(&b.node.index()) {
            std::cmp::Ordering::Equal => a.order.cmp(&b.order),
            node_order => node_order,
        },
        gain_order => gain_order,
    });
}

/// The reference kernel's area lower bound, recomputed from first
/// principles per candidate (fresh multiset count, explicit
/// ceiling-division arithmetic) and deliberately *not* shared with the
/// optimized pass's [`area_floor`]/[`version_area_floor`] helpers, for
/// the same divergence-detection reason.
fn area_floor_reference(library: &Library, assignment: &Assignment, latency_bound: u32) -> u64 {
    let mut counts = vec![0u32; library.iter().count()];
    for (_, v) in assignment.iter() {
        counts[v.index()] += 1;
    }
    let mut floor = 0u64;
    for (slot, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let ver = library.version(VersionId::new(slot as u32));
        let capacity = latency_bound / ver.delay().max(1);
        if capacity == 0 {
            floor += u64::MAX / 2;
            continue;
        }
        let instances = u64::from(count).div_ceil(u64::from(capacity));
        floor += instances * u64::from(ver.area());
    }
    floor
}

/// The delay of `version` under `library`, as the area-bound capacity
/// divisor `⌊Ld / delay⌋` (0 when the unit cannot run at all within the
/// budget).
fn unit_capacity(library: &Library, version: VersionId, latency_bound: u32) -> u32 {
    latency_bound / library.version(version).delay().max(1)
}

/// The area a valid binding must spend on `count` operations of
/// `version` within the latency budget: `⌈count / capacity⌉ · area`.
/// Returns an over-the-bound sentinel when the unit cannot execute at
/// all (callers only reach that case for versions the latency test has
/// already excluded).
fn version_area_floor(
    library: &Library,
    version: VersionId,
    count: u32,
    latency_bound: u32,
) -> u64 {
    if count == 0 {
        return 0;
    }
    let capacity = unit_capacity(library, version, latency_bound);
    if capacity == 0 {
        return u64::MAX / 2;
    }
    u64::from(count.div_ceil(capacity)) * u64::from(library.version(version).area())
}

/// The full area lower bound for a version-count multiset.
fn area_floor(library: &Library, counts: &[u32], latency_bound: u32) -> u64 {
    counts
        .iter()
        .enumerate()
        .map(|(v, &c)| version_area_floor(library, VersionId::new(v as u32), c, latency_bound))
        .sum()
}

/// The delta-evaluated upgrade loop behind [`GreedyRefine`].
///
/// Candidate designs are evaluated at the full latency budget
/// (`bounds.latency`), which maximizes sharing and therefore gives each
/// upgrade its best chance of fitting the area bound; reliability is
/// independent of the schedule, so this loses nothing.
fn upgrade_loop_delta(
    synth: &Synthesizer<'_>,
    mut state: FlowState,
    bounds: Bounds,
    diagnostics: &mut Diagnostics,
) -> Result<FlowState, SynthesisError> {
    let dfg = synth.dfg();
    let library = synth.library();
    let n = dfg.node_count();
    let topo = dfg
        .topological_order()
        .map_err(rchls_sched::ScheduleError::from)?;

    // Cached incumbent state: the serial reliability product (exact-swap
    // evaluable), the per-version operation counts with their area
    // floor, and the head/tail longest-path arrays for the O(1) latency
    // test. All of it is invalidated only by an accepted move.
    let mut product = SerialProduct::new(
        state
            .assignment
            .iter()
            .map(|(_, v)| library.version(v).reliability()),
    );
    let version_slots = library.iter().count();
    let mut counts = vec![0u32; version_slots];
    for (_, v) in state.assignment.iter() {
        counts[v.index()] += 1;
    }
    let mut incumbent_floor = area_floor(library, &counts, bounds.latency);
    let mut head = vec![0u32; n];
    let mut tail = vec![0u32; n];
    let delay_of =
        |assignment: &Assignment, node: NodeId| library.version(assignment.version(node)).delay();

    let mut moves: Vec<MoveCandidate> = Vec::new();
    let mut cand = state.assignment.clone();
    loop {
        diagnostics.loop_iterations += 1;
        // head[x] / tail[x]: longest delay sums strictly before/after x
        // under the incumbent delays (x's own delay excluded from both).
        for &x in &topo {
            head[x.index()] = dfg
                .preds(x)
                .iter()
                .map(|&p| head[p.index()] + delay_of(&state.assignment, p))
                .max()
                .unwrap_or(0);
        }
        for &x in topo.iter().rev() {
            tail[x.index()] = dfg
                .succs(x)
                .iter()
                .map(|&s| delay_of(&state.assignment, s) + tail[s.index()])
                .max()
                .unwrap_or(0);
        }

        let state_rel = product.value();
        moves.clear();
        for node in dfg.node_ids() {
            let cur = state.assignment.version(node);
            let cur_r = library.version(cur).reliability().value();
            for (order, (v, ver)) in library.versions_of(dfg.node(node).class()).enumerate() {
                let r = ver.reliability().value();
                if r <= cur_r {
                    continue;
                }
                moves.push(MoveCandidate {
                    gain: product.swap_value(node.index(), r) - state_rel,
                    node,
                    order: order as u32,
                    version: v,
                });
            }
        }
        sort_queue(&mut moves);

        let mut winner = None;
        for mv in &moves {
            if mv.gain <= GAIN_EPSILON {
                // Everything behind this entry gains no more; the whole
                // remaining queue is dead.
                diagnostics.rejected_moves += 1;
                break;
            }
            let new_delay = library.version(mv.version).delay();
            if head[mv.node.index()] + new_delay + tail[mv.node.index()] > bounds.latency {
                diagnostics.rejected_moves += 1;
                continue;
            }
            // Area lower bound after the swap, as a delta over the
            // incumbent floor: only the two touched versions change.
            let cur = state.assignment.version(mv.node);
            let floor = incumbent_floor
                - version_area_floor(library, cur, counts[cur.index()], bounds.latency)
                + version_area_floor(library, cur, counts[cur.index()] - 1, bounds.latency)
                - version_area_floor(
                    library,
                    mv.version,
                    counts[mv.version.index()],
                    bounds.latency,
                )
                + version_area_floor(
                    library,
                    mv.version,
                    counts[mv.version.index()] + 1,
                    bounds.latency,
                );
            if floor > u64::from(bounds.area) {
                diagnostics.rejected_moves += 1;
                continue;
            }
            cand.clone_from(&state.assignment);
            cand.set(mv.node, mv.version);
            let (schedule, binding) = synth.schedule_and_bind(&cand, bounds.latency)?;
            if binding.total_area(library) > bounds.area {
                diagnostics.rejected_moves += 1;
                continue;
            }
            winner = Some((mv.node, mv.version, schedule, binding));
            break;
        }

        match winner {
            Some((node, version, schedule, binding)) => {
                diagnostics.refine_upgrades += 1;
                let old = state.assignment.version(node);
                counts[old.index()] -= 1;
                counts[version.index()] += 1;
                incumbent_floor = area_floor(library, &counts, bounds.latency);
                product.set(node.index(), library.version(version).reliability().value());
                state.assignment.set(node, version);
                state.schedule = schedule;
                state.binding = binding;
                debug_assert_eq!(
                    product.value().to_bits(),
                    state
                        .assignment
                        .design_reliability(library)
                        .value()
                        .to_bits(),
                    "cached product drifted from the assignment"
                );
            }
            None => break,
        }
    }
    Ok(state)
}

/// The full-recompute upgrade loop behind [`GreedyReferenceRefine`]:
/// decision-for-decision the procedure above, with every screen
/// evaluated from first principles.
fn upgrade_loop_reference(
    synth: &Synthesizer<'_>,
    mut state: FlowState,
    bounds: Bounds,
    diagnostics: &mut Diagnostics,
) -> Result<FlowState, SynthesisError> {
    let dfg = synth.dfg();
    let library = synth.library();
    let mut moves: Vec<MoveCandidate> = Vec::new();
    loop {
        diagnostics.loop_iterations += 1;
        let state_rel = state.assignment.design_reliability(library).value();
        moves.clear();
        for node in dfg.node_ids() {
            let cur_r = library
                .version(state.assignment.version(node))
                .reliability()
                .value();
            for (order, (v, ver)) in library.versions_of(dfg.node(node).class()).enumerate() {
                if ver.reliability().value() <= cur_r {
                    continue;
                }
                // Full product recompute for every candidate.
                let mut swapped = state.assignment.clone();
                swapped.set(node, v);
                moves.push(MoveCandidate {
                    gain: swapped.design_reliability(library).value() - state_rel,
                    node,
                    order: order as u32,
                    version: v,
                });
            }
        }
        sort_queue_reference(&mut moves);

        let mut winner = None;
        for mv in &moves {
            if mv.gain <= GAIN_EPSILON {
                diagnostics.rejected_moves += 1;
                break;
            }
            let mut cand = state.assignment.clone();
            cand.set(mv.node, mv.version);
            // Full ASAP critical-path recompute.
            if synth.min_latency(&cand)? > bounds.latency {
                diagnostics.rejected_moves += 1;
                continue;
            }
            // Area lower bound from a freshly recounted multiset.
            if area_floor_reference(library, &cand, bounds.latency) > u64::from(bounds.area) {
                diagnostics.rejected_moves += 1;
                continue;
            }
            let (schedule, binding) = synth.schedule_and_bind(&cand, bounds.latency)?;
            if binding.total_area(library) > bounds.area {
                diagnostics.rejected_moves += 1;
                continue;
            }
            winner = Some((cand, schedule, binding));
            break;
        }

        match winner {
            Some((assignment, schedule, binding)) => {
                diagnostics.refine_upgrades += 1;
                state = FlowState {
                    assignment,
                    schedule,
                    binding,
                };
            }
            None => break,
        }
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowSpec;
    use rchls_dfg::{Dfg, DfgBuilder, OpKind};
    use rchls_reslib::Library;

    fn figure4a() -> Dfg {
        DfgBuilder::new("figure4a")
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
    fn greedy_and_reference_reports_are_identical() {
        let g = figure4a();
        let lib = Library::table1();
        for (latency, area) in [(5u32, 4u32), (6, 4), (8, 8), (20, 10)] {
            let bounds = Bounds::new(latency, area);
            let fast = Synthesizer::with_flow(&g, &lib, &FlowSpec::default())
                .unwrap()
                .synthesize_report(bounds)
                .unwrap();
            let slow = Synthesizer::with_flow(
                &g,
                &lib,
                &FlowSpec::default().with_refine("greedy-reference"),
            )
            .unwrap()
            .synthesize_report(bounds)
            .unwrap();
            assert_eq!(fast.design, slow.design, "design at {bounds}");
            assert_eq!(
                fast.diagnostics.scrubbed(),
                slow.diagnostics.scrubbed(),
                "diagnostics at {bounds}"
            );
        }
    }

    #[test]
    fn area_floor_is_a_valid_binding_bound() {
        let lib = Library::table1();
        // Three ops on adder1 (2cc) within Ld=4: each unit runs at most
        // 2 ops, so two units minimum -> floor 2 * area(adder1).
        let a1 = lib.version_by_name("adder1").unwrap();
        let mut counts = vec![0u32; lib.iter().count()];
        counts[a1.index()] = 3;
        let unit_area = u64::from(lib.version(a1).area());
        assert_eq!(area_floor(&lib, &counts, 4), 2 * unit_area);
        // A unit too slow for the budget floors at the sentinel.
        assert!(version_area_floor(&lib, a1, 1, 1) > u64::from(u32::MAX));
        assert_eq!(version_area_floor(&lib, a1, 0, 1), 0);
    }

    #[test]
    fn move_queue_orders_by_gain_then_source_order() {
        let node = NodeId::new;
        let v = VersionId::new;
        let mut moves = vec![
            MoveCandidate {
                gain: 0.1,
                node: node(2),
                order: 0,
                version: v(0),
            },
            MoveCandidate {
                gain: 0.3,
                node: node(1),
                order: 1,
                version: v(1),
            },
            MoveCandidate {
                gain: 0.3,
                node: node(1),
                order: 0,
                version: v(2),
            },
            MoveCandidate {
                gain: 0.3,
                node: node(0),
                order: 5,
                version: v(3),
            },
        ];
        sort_queue(&mut moves);
        let picks: Vec<u32> = moves.iter().map(|m| m.version.index() as u32).collect();
        assert_eq!(picks, vec![3, 2, 1, 0]);
    }
}
