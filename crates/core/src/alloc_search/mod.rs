//! Allocation-first design-space search.
//!
//! The Figure-6 greedy descends from the most-reliable assignment and can
//! get stuck when the only feasible designs mix versions in ways no
//! single-group move reaches (the paper's own Figure-7(b) FIR design —
//! two ripple-carry adders, two carry-save multipliers and one Brent-Kung
//! adder — is exactly such a point). This module searches from the other
//! end: enumerate *allocations* (multisets of unit versions whose total
//! area fits the bound), schedule the graph against each allocation with a
//! version-aware list scheduler, and keep the most reliable feasible
//! design.
//!
//! # The enumeration and its cap
//!
//! Allocations are enumerated in lexicographic order of their unit counts
//! (versions class by class, in library order, each count rising from
//! zero), with no more units of a version than the graph has operations
//! of its class; allocations missing a class the graph uses are dropped.
//! The lattice is not small: at L=8/A=64 the `random:{64x6,64x8,96x8}`
//! graphs of 64–96 nodes hold 163k–227k allocations. The enumeration
//! therefore stops after the first 200 000 raw allocations: the leaves of
//! the lexicographic walk, counted before allocations missing a class are
//! dropped. A capped search covers exactly that prefix and reports it
//! through [`Diagnostics::alloc_cap_hit`].
//!
//! The search never stores the lattice. An allocation is one count vector
//! per class, and the lexicographic order walks the first class's vectors
//! and, under each, the second class's vectors that still fit. So the
//! second class's vectors are listed once (289 multiplier vectors on
//! `random:64x8@0` at L=8/A=64), and the first class's are walked one by
//! one only until the raw count reaches the cap (4 586 adder vectors
//! there). [`enumerate_allocations_with_cap`] still materializes the same
//! prefix for the reference search and for callers that want the list.
//!
//! # The search
//!
//! [`best_allocation_design`] returns exactly the design that
//! list-scheduling every enumerated allocation in order and keeping the
//! first one attaining the maximum reliability returns —
//! [`best_allocation_design_reference`] does that literally — while
//! scheduling far fewer allocations, each at lower cost:
//!
//! * **A slack-aware capacity bound.** Under an allocation's fastest
//!   delay per class, each node has a *slack*: its latency budget minus
//!   the longest paths into and out of it. A node can only run a version
//!   whose delay fits its slack, and a unit of delay `d` runs at most
//!   `⌊Ld/d⌋` operations. The exact optimum of that relaxation (a greedy
//!   over versions in reliability order, each taking the smallest-slack
//!   nodes it can; the slack profiles are memoized per distinct
//!   fastest-delay row) bounds every design the allocation can
//!   schedule. An allocation whose relaxation is infeasible is never
//!   scheduled. Under a fixed row the bound is a product of per-class
//!   factors, so each count vector's factor is computed once per row
//!   rather than once per allocation.
//! * **Best-first order and an incumbent prune.** Allocations are visited
//!   by descending bound; the scan stops at the first whose bound, less
//!   a floating-point margin, falls below the incumbent's reliability.
//!   Once the incumbent gives every node its class's most reliable
//!   version, only earlier-enumerated allocations (which could tie and
//!   win on enumeration order) are still scheduled.
//! * **Exact early exits.** [`schedule_on_allocation`] gives up as soon
//!   as an operation provably cannot finish its optimistic downstream
//!   chain in time — when it becomes ready too late, or is deferred past
//!   the last step that could still work.
//! * **Per-version unit picks.** The scheduler chooses a version with
//!   the same comparators the unit-level scan used, in work proportional
//!   to the number of versions. A version's units share one delay, so
//!   they free up in the order they were taken: a queue of release steps
//!   per version says whether one is free.
//! * **Deferred design build.** A schedule's reliability is computed
//!   from the kernel's own arrays; the `Schedule` and `Binding` are built
//!   only for a candidate that beats the incumbent, placing each
//!   operation on its version's lowest-index free unit.
//! * **Run families.** One list-scheduling run answers every allocation
//!   that would repeat it. During a run, each version block keeps its
//!   *peak*, the most units any free-unit check found busy; the block
//!   was *full* at some check exactly when its peak equals its count. An
//!   allocation with the same versions, the same count on every full
//!   block and more than the peak on every other block makes exactly
//!   the same decisions, so it reaches the same outcome, reliability,
//!   `Schedule` and `Binding`:
//!   - a run is a deterministic function of its block list and of the
//!     answers to its checks `busy == units`;
//!   - the version set fixes the block list: block order, delays,
//!     reliabilities, the per-class horizon and the most-reliable flags;
//!   - by induction over the checks, the other allocation sees the same
//!     `busy` at every check, and the count condition gives the same
//!     answer each time, so a cut or a failure repeats;
//!   - the design repeats too: an operation takes its version's
//!     lowest-index free unit, whose index is at most the `busy` its
//!     check saw. On a block never full that is at most the peak, below
//!     the other allocation's count; on a full block the counts are
//!     equal. Both designs bind the same instances, and unused units
//!     are dropped.
//!
//!   The scan keeps its last `FAMILY_WINDOW` runs as such families and
//!   looks a visited allocation up newest first, after the incumbent
//!   prune and the ceiling skip. A matching cut or failed run is skipped
//!   as the run itself would be, and a matching complete run below the
//!   incumbent is skipped because only runs at or above it are offered.
//!   A matching complete run at or above the incumbent is made again,
//!   since its design and the ceiling test need the kernel's arrays;
//!   it repeats a record, so it is not recorded again. Every record
//!   comes from a real run, so every answer is exact at any window size.
//!
//! # The scan
//!
//! A search is prepared once — its allocations walked class by class,
//! each bounded as a product of two cached per-class factors, and
//! counting-sorted by bound, since bounds take few distinct values
//! (`order.rs`) — and then scanned in that order by the thread that
//! prepared it, with one scratch and one window of run families. The
//! session's allocation cache runs each distinct search once: a caller
//! that misses on a search another thread is running waits for its
//! answer.
//!
//! The winner is the allocation with maximum reliability and, among
//! those, the minimum enumeration index — the maximum of a total order on
//! `(reliability, index)`. The scan visits allocations by bound, not by
//! index, so a later position can tie the incumbent and win on a smaller
//! index; the incumbent update applies the whole order. The answer is
//! therefore the reference's as long as the winner itself is scheduled,
//! and neither skip can drop it:
//!
//! * the incumbent prune fires only when `ub < incumbent × margin`, and
//!   the bound is sound (`rel ≤ ub / margin`). Every incumbent is a
//!   scheduled design no more reliable than the winner, so the winner's
//!   `ub ≥ rel × margin ≥ incumbent × margin` never prunes. A prune at one
//!   position also rules out every later one, since bounds fall along the
//!   order and the incumbent only rises, so the scan stops there;
//! * the ceiling skip drops only larger indices than a scheduled design
//!   that gives every node its class's most reliable version. No design
//!   evaluates above such a design, so the winner ties it and has an
//!   index no larger.
//!
//! The search records four always-on counters per run:
//! `alloc_search.scheduled` (list-scheduling runs made),
//! `alloc_search.early_exits` (those runs cut short),
//! `alloc_search.family_hits` (allocations a family record answered) and
//! `alloc_search.bound_pruned` (the rest of the enumerated allocations,
//! which the bound kept out of the scan). One thread makes every run of a
//! search in a fixed order, so the counters depend only on the search's
//! inputs; through the session cache, they repeat exactly at any worker
//! count.

use crate::bounds::Bounds;
use crate::flow::Diagnostics;
use rchls_bind::{Assignment, Binding, Instance, InstanceId};
use rchls_dfg::{Dfg, NodeId, OpClass};
use rchls_relmath::serial_reliability;
use rchls_reslib::{Library, VersionId};
use rchls_sched::Schedule;
use std::cmp::Reverse;

mod bound;
mod order;
mod reference;

pub use reference::{best_allocation_design_reference, schedule_on_allocation_reference};

/// Hard cap on enumerated raw allocations; beyond it the enumeration
/// stops and reports the truncation.
const MAX_ALLOCATIONS: usize = 200_000;

/// Number of resource classes: the width of every per-class array here.
const SLOTS: usize = OpClass::ALL.len();

/// The position of `class` in [`OpClass::ALL`].
fn class_slot(class: OpClass) -> usize {
    OpClass::ALL
        .iter()
        .position(|&c| c == class)
        .expect("every class is listed in OpClass::ALL")
}

/// Records the `phase.alloc_micros` histogram when the search returns,
/// covering every exit path (including the early cyclic-graph decline).
struct AllocPhaseTimer<'a>(&'a rchls_telemetry::SpanGuard);

impl Drop for AllocPhaseTimer<'_> {
    fn drop(&mut self) {
        crate::obs::alloc_phase_micros().record(self.0.elapsed_micros());
    }
}

/// The enumerated allocation lattice, stored flat: row `i` holds the unit
/// count of every entry of `versions` for the `i`-th allocation.
#[derive(Debug)]
struct Lattice {
    versions: Vec<VersionId>,
    counts: Vec<u32>,
    rows: usize,
    capped: bool,
}

impl Lattice {
    /// Enumerates the lattice for `dfg` under `area_bound` (see the
    /// module docs for the order and the cap).
    fn enumerate(dfg: &Dfg, library: &Library, area_bound: u32) -> Lattice {
        let used: Vec<OpClass> = OpClass::ALL
            .into_iter()
            .filter(|&c| dfg.count_class(c) > 0)
            .collect();
        let versions: Vec<VersionId> = used
            .iter()
            .flat_map(|&c| library.versions_of(c).map(|(id, _)| id))
            .collect();
        /// The enumeration's state: the counts of the allocation being
        /// built, the raw allocations seen, and the covering ones kept.
        struct Walk<'a> {
            library: &'a Library,
            class_of: Vec<usize>,
            class_ops: Vec<u32>,
            classes: usize,
            current: Vec<u32>,
            raw: usize,
            lattice: Lattice,
        }
        impl Walk<'_> {
            fn covers_every_class(&self) -> bool {
                (0..self.classes).all(|class| {
                    self.class_of
                        .iter()
                        .zip(&self.current)
                        .any(|(&c, &count)| c == class && count > 0)
                })
            }

            fn recurse(&mut self, idx: usize, area_left: u32) {
                if self.raw >= MAX_ALLOCATIONS {
                    // Every recursion path ends in a leaf, so reaching the
                    // cap with calls still pending means real allocations
                    // are being dropped — record it instead of truncating
                    // silently.
                    self.lattice.capped = true;
                    return;
                }
                if idx == self.current.len() {
                    self.raw += 1;
                    if self.covers_every_class() {
                        self.lattice.counts.extend_from_slice(&self.current);
                        self.lattice.rows += 1;
                    }
                    return;
                }
                let unit = self.library.version(self.lattice.versions[idx]).area();
                let cap = (area_left / unit).min(self.class_ops[idx]);
                for c in 0..=cap {
                    self.current[idx] = c;
                    self.recurse(idx + 1, area_left - c * unit);
                }
                self.current[idx] = 0;
            }
        }
        let class_of: Vec<usize> = versions
            .iter()
            .map(|&v| {
                let class = library.version(v).class();
                used.iter()
                    .position(|&c| c == class)
                    .expect("versions come from used classes")
            })
            .collect();
        let class_ops = versions
            .iter()
            .map(|&v| {
                u32::try_from(dfg.count_class(library.version(v).class())).unwrap_or(u32::MAX)
            })
            .collect();
        let mut walk = Walk {
            library,
            class_of,
            class_ops,
            classes: used.len(),
            current: vec![0; versions.len()],
            raw: 0,
            lattice: Lattice {
                versions,
                counts: Vec::new(),
                rows: 0,
                capped: false,
            },
        };
        walk.recurse(0, area_bound);
        walk.lattice
    }

    /// The per-version unit counts of allocation `idx`.
    fn row(&self, idx: usize) -> &[u32] {
        let width = self.versions.len();
        &self.counts[idx * width..(idx + 1) * width]
    }

    /// Allocation `idx` as `(version, count)` pairs, zero counts omitted.
    fn allocation(&self, idx: usize) -> impl Iterator<Item = (VersionId, u32)> + '_ {
        self.versions
            .iter()
            .zip(self.row(idx))
            .filter(|&(_, &count)| count > 0)
            .map(|(&v, &count)| (v, count))
    }
}

/// Enumerates all unit allocations (counts per version) with total area
/// within `area_bound`, at least one unit for every class the graph uses,
/// and no more units of a class than the graph has operations of it.
///
/// Truncation at the enumeration cap is **silent** here; use
/// [`enumerate_allocations_with_cap`] when the caller needs to know (and
/// report) that the candidate set is partial.
pub fn enumerate_allocations(
    dfg: &Dfg,
    library: &Library,
    area_bound: u32,
) -> Vec<Vec<(VersionId, u32)>> {
    enumerate_allocations_with_cap(dfg, library, area_bound).0
}

/// [`enumerate_allocations`] plus a flag reporting whether the
/// enumeration cap truncated the set: `true` means at least one
/// area-feasible allocation was *not* enumerated, so any search over the
/// returned set is incomplete and should say so (the synthesis flows
/// record it as [`Diagnostics::alloc_cap_hit`]). The set is the first
/// 200 000 raw allocations in lexicographic count order, minus those
/// missing a used class.
pub fn enumerate_allocations_with_cap(
    dfg: &Dfg,
    library: &Library,
    area_bound: u32,
) -> (Vec<Vec<(VersionId, u32)>>, bool) {
    let lattice = Lattice::enumerate(dfg, library, area_bound);
    let allocations = (0..lattice.rows)
        .map(|idx| lattice.allocation(idx).collect())
        .collect();
    (allocations, lattice.capped)
}

/// One allocated version: a block of interchangeable units, contiguous
/// in unit order.
#[derive(Debug, Clone, Copy)]
struct Block {
    version: VersionId,
    class: usize,
    delay: u32,
    reliability: f64,
    most_reliable: bool,
    /// The block's first unit in unit order, and its unit count.
    first: usize,
    units: usize,
    /// How many of the block's releases have passed: its busy units are
    /// the ones behind `releases[block][released..]`.
    released: usize,
    /// The most units any free-unit check of the run found busy. The
    /// block was full at some check exactly when this equals `units`.
    peak: usize,
}

/// How one list-scheduling run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Listing {
    /// Every operation placed within the latency bound.
    Complete,
    /// Abandoned by an exact early exit: the run could no longer finish
    /// in time.
    Cut,
    /// The allocation has no unit for a class the graph uses, or the
    /// latency budget ran out with operations left.
    Failed,
}

/// Reusable buffers for the list scheduler — one set serves every
/// allocation of a search.
#[derive(Debug, Default)]
struct AllocScratch {
    // Allocation-independent, computed once by `prepare`.
    topo: Vec<NodeId>,
    node_class: Vec<usize>,
    class_used: [bool; SLOTS],
    most_reliable: [Option<VersionId>; SLOTS],
    pred_counts: Vec<u32>,
    sources: Vec<NodeId>,
    /// Longest remaining path per node under the library's per-class
    /// minimum delays: the ready-list priority.
    remaining_path: Vec<u32>,
    /// `remaining_path` without the node's own delay: the optimistic
    /// length of its downstream chain.
    downstream: Vec<u32>,
    // The loaded allocation.
    blocks: Vec<Block>,
    /// The fastest delay the allocation offers each class (`u32::MAX`
    /// when it offers none).
    horizon: [u32; SLOTS],
    /// Per block, the step each placement on it frees its unit. A block
    /// has one delay and placements come in step order, so this is also
    /// the order its units free up in.
    releases: Vec<Vec<u32>>,
    // Per-run state: start step (0 while unscheduled) and block per
    // node, the nodes in placement order, and event-driven readiness —
    // unscheduled-predecessor counts, the latest predecessor finish, and
    // per-step buckets of nodes that become ready at that step.
    start: Vec<u32>,
    owner: Vec<usize>,
    placed: Vec<NodeId>,
    ready: Vec<NodeId>,
    pending_preds: Vec<u32>,
    max_pred_finish: Vec<u32>,
    events: Vec<Vec<NodeId>>,
    /// The search's recent runs, kept by the scan.
    families: Families,
}

impl AllocScratch {
    /// Computes the allocation-independent state for `dfg`. Returns
    /// `false` for cyclic graphs.
    fn prepare(&mut self, dfg: &Dfg, library: &Library) -> bool {
        let Ok(order) = dfg.topological_order() else {
            return false;
        };
        self.topo = order;
        self.node_class = dfg
            .node_ids()
            .map(|n| class_slot(dfg.node(n).class()))
            .collect();
        self.class_used = [false; SLOTS];
        for &class in &self.node_class {
            self.class_used[class] = true;
        }
        self.most_reliable = OpClass::ALL.map(|class| library.most_reliable_id(class));
        self.pred_counts = dfg.node_ids().map(|n| dfg.preds(n).len() as u32).collect();
        self.sources = dfg
            .node_ids()
            .filter(|&n| dfg.preds(n).is_empty())
            .collect();
        self.remaining_path = vec![0; dfg.node_count()];
        self.downstream = vec![0; dfg.node_count()];
        for &n in self.topo.iter().rev() {
            let down = dfg
                .succs(n)
                .iter()
                .map(|&s| self.remaining_path[s.index()])
                .max()
                .unwrap_or(0);
            self.downstream[n.index()] = down;
            // A class the library lacks can never be covered by an
            // allocation, so its nodes are rejected before this is read.
            let own = library.min_delay(dfg.node(n).class()).unwrap_or(0);
            self.remaining_path[n.index()] = down + own;
        }
        true
    }

    /// Lays out the units of `allocation`, in order, as version blocks.
    fn load(&mut self, library: &Library, allocation: impl IntoIterator<Item = (VersionId, u32)>) {
        self.blocks.clear();
        self.horizon = [u32::MAX; SLOTS];
        let mut units = 0;
        for (version, count) in allocation {
            if count == 0 {
                continue;
            }
            let ver = library.version(version);
            let class = class_slot(ver.class());
            self.blocks.push(Block {
                version,
                class,
                delay: ver.delay(),
                reliability: ver.reliability().value(),
                most_reliable: self.most_reliable[class] == Some(version),
                first: units,
                units: count as usize,
                released: 0,
                peak: 0,
            });
            units += count as usize;
            self.horizon[class] = self.horizon[class].min(ver.delay());
        }
        if self.releases.len() < self.blocks.len() {
            self.releases.resize_with(self.blocks.len(), Vec::new);
        }
    }

    /// Version-aware list scheduling of `dfg` on the loaded allocation.
    ///
    /// Each step, ready operations are visited by `(longest remaining
    /// path, node index)`. An operation takes the most reliable version
    /// with a free unit that still lets its downstream chain finish in
    /// time (ties: the faster, then the earlier block); if no version is
    /// safe, it waits. Those are exactly the decisions of the unit-level
    /// scan in [`schedule_on_allocation_reference`]: units of a version
    /// are interchangeable, and its final unit-index tie-break orders
    /// blocks the way their positions do. Which unit of the version runs
    /// the operation — the lowest-index free one — is settled when the
    /// design is built.
    ///
    /// The run is cut — provably the reference would fail — as soon as
    /// an operation's earliest possible start, on the fastest unit its
    /// class has, leaves its optimistic downstream chain past the bound:
    /// when it becomes ready, or when it waits. (The reference's "doomed"
    /// branch, which starts such an operation on the fastest free unit,
    /// is one of these cases.)
    ///
    /// Each block keeps its `peak` for the run's family record.
    fn list(&mut self, dfg: &Dfg, latency_bound: u32) -> Listing {
        let AllocScratch {
            node_class,
            class_used,
            pred_counts,
            sources,
            remaining_path,
            downstream,
            blocks,
            horizon,
            releases,
            start,
            owner,
            placed,
            ready,
            pending_preds,
            max_pred_finish,
            events,
            ..
        } = self;
        if (0..SLOTS).any(|class| class_used[class] && horizon[class] == u32::MAX) {
            return Listing::Failed;
        }
        let nodes = dfg.node_count();
        for (block, queue) in blocks.iter_mut().zip(releases.iter_mut()) {
            block.released = 0;
            block.peak = 0;
            queue.clear();
        }
        start.clear();
        start.resize(nodes, 0);
        // Written for every node a complete run places; read only then.
        owner.resize(nodes, 0);
        placed.clear();
        pending_preds.clear();
        pending_preds.extend_from_slice(pred_counts);
        max_pred_finish.clear();
        max_pred_finish.resize(nodes, 0);
        let buckets = latency_bound as usize + 2;
        if events.len() < buckets {
            events.resize_with(buckets, Vec::new);
        }
        for bucket in &mut events[..buckets] {
            bucket.clear();
        }
        events[1].extend_from_slice(sources);
        ready.clear();
        let mut remaining = nodes;
        for step in 1..=latency_bound {
            if remaining == 0 {
                break;
            }
            ready.append(&mut events[step as usize]);
            ready.sort_unstable_by_key(|&n| (Reverse(remaining_path[n.index()]), n.index()));
            let mut scheduled_any = false;
            for &n in ready.iter() {
                let i = n.index();
                let class = node_class[i];
                let down = downstream[i];
                // (block, reliability, delay) of the best safe version.
                let mut pick: Option<(usize, f64, u32)> = None;
                for (b, block) in blocks.iter_mut().enumerate() {
                    if block.class != class || step - 1 + block.delay + down > latency_bound {
                        continue;
                    }
                    let queue = &releases[b];
                    while block.released < queue.len() && queue[block.released] <= step {
                        block.released += 1;
                    }
                    let busy = queue.len() - block.released;
                    block.peak = block.peak.max(busy);
                    if busy == block.units {
                        continue;
                    }
                    let better = pick.is_none_or(|(_, reliability, delay)| {
                        reliability
                            .total_cmp(&block.reliability)
                            .then(block.delay.cmp(&delay))
                            == std::cmp::Ordering::Less
                    });
                    if better {
                        pick = Some((b, block.reliability, block.delay));
                    }
                }
                let Some((b, _, delay)) = pick else {
                    // Waiting: the earliest start is the next step.
                    if step + horizon[class] + down > latency_bound {
                        return Listing::Cut;
                    }
                    continue;
                };
                releases[b].push(step + delay);
                let fin = step + delay - 1;
                start[i] = step;
                owner[i] = b;
                placed.push(n);
                remaining -= 1;
                scheduled_any = true;
                for &s in dfg.succs(n) {
                    let si = s.index();
                    pending_preds[si] -= 1;
                    max_pred_finish[si] = max_pred_finish[si].max(fin);
                    if pending_preds[si] == 0 {
                        // First admissible step: strictly after the latest
                        // predecessor finish, so always a future bucket
                        // (and within the bound once this test passes).
                        let at = max_pred_finish[si] + 1;
                        if at - 1 + horizon[node_class[si]] + downstream[si] > latency_bound {
                            return Listing::Cut;
                        }
                        events[at as usize].push(s);
                    }
                }
            }
            if scheduled_any {
                ready.retain(|&n| start[n.index()] == 0);
            }
        }
        if remaining == 0 {
            Listing::Complete
        } else {
            Listing::Failed
        }
    }

    /// Lists the loaded allocation: how the run ended, with a complete
    /// run's reliability (−∞ otherwise). This is the answer a family
    /// record keeps.
    fn run(&mut self, dfg: &Dfg, library: &Library, latency_bound: u32) -> (Listing, f64) {
        let listing = self.list(dfg, latency_bound);
        let rel = match listing {
            Listing::Complete => self.reliability(library),
            Listing::Cut | Listing::Failed => f64::NEG_INFINITY,
        };
        (listing, rel)
    }

    /// The version block node `n` runs on after a complete run.
    fn block_of(&self, n: usize) -> &Block {
        &self.blocks[self.owner[n]]
    }

    /// The design reliability of a complete run — the same fold, in the
    /// same node order, as [`Assignment::design_reliability`].
    fn reliability(&self, library: &Library) -> f64 {
        serial_reliability(
            (0..self.owner.len()).map(|n| library.version(self.block_of(n).version).reliability()),
        )
        .value()
    }

    /// Whether a complete run gives every node its class's most reliable
    /// version.
    fn all_most_reliable(&self) -> bool {
        (0..self.owner.len()).all(|n| self.block_of(n).most_reliable)
    }

    /// The design of a complete run; `None` if its schedule fails
    /// validation.
    fn design(&self, dfg: &Dfg, library: &Library) -> Option<(Assignment, Schedule, Binding)> {
        let assignment = Assignment::from_fn(dfg, library, |n| self.block_of(n.index()).version);
        let delays = assignment.delays(dfg, library);
        let schedule = Schedule::new(self.start.clone(), &delays);
        schedule.validate(dfg, &delays).ok()?;
        // Bind in placement order, each operation to its version's
        // lowest-index free unit: the unit the unit-level scan takes.
        let units: usize = self.blocks.iter().map(|block| block.units).sum();
        let mut free_at = vec![1u32; units];
        let mut unit_nodes: Vec<Vec<NodeId>> = vec![Vec::new(); units];
        for &n in &self.placed {
            let block = self.block_of(n.index());
            let step = self.start[n.index()];
            let unit = (block.first..block.first + block.units)
                .find(|&u| free_at[u] <= step)
                .expect("the run placed the operation on a free unit");
            free_at[unit] = step + block.delay;
            unit_nodes[unit].push(n);
        }
        // Unused units are dropped.
        let mut instances: Vec<Instance> = Vec::new();
        let mut owner_map = vec![InstanceId::new(0); dfg.node_count()];
        for block in &self.blocks {
            for nodes in &mut unit_nodes[block.first..block.first + block.units] {
                if nodes.is_empty() {
                    continue;
                }
                let id = InstanceId::new(instances.len() as u32);
                for &n in nodes.iter() {
                    owner_map[n.index()] = id;
                }
                instances.push(Instance {
                    version: block.version,
                    nodes: std::mem::take(nodes),
                });
            }
        }
        Some((assignment, schedule, Binding::new(instances, owner_map)))
    }
}

/// Runs the scan remembers: the window a family lookup searches.
const FAMILY_WINDOW: usize = 64;

/// The scan's most recent list-scheduling runs, each kept as the
/// family of allocations that would repeat it (see "Run families" in the
/// module docs): per version, the range of unit counts that answers every
/// free-unit check of the run the same way.
#[derive(Debug, Default)]
struct Families {
    /// Versions per record: the lattice's version count.
    width: usize,
    /// `width` inclusive `(lowest, highest)` count ranges per record,
    /// record `r` at `r * width`. An absent version's range is `(0, 0)`,
    /// so a record also fixes the version set.
    ranges: Vec<(u32, u32)>,
    /// Per record, how the run ended and, if it completed, its
    /// reliability (−∞ otherwise).
    answers: Vec<(Listing, f64)>,
    /// The record the next run overwrites once the window is full.
    next: usize,
}

impl Families {
    /// The newest record whose family holds the allocation `row`.
    fn find(&self, row: &[u32]) -> Option<usize> {
        let width = self.width;
        (0..self.next)
            .rev()
            .chain((self.next..self.answers.len()).rev())
            .find(|&r| {
                self.ranges[r * width..(r + 1) * width]
                    .iter()
                    .zip(row)
                    .all(|(&(lowest, highest), &count)| lowest <= count && count <= highest)
            })
    }

    /// Records the run just made on the allocation `row`, laid out as
    /// `blocks`, in place of the oldest record once the window is full.
    fn record(&mut self, row: &[u32], blocks: &[Block], answer: (Listing, f64)) {
        if self.answers.is_empty() {
            self.width = row.len();
            self.ranges.reserve_exact(FAMILY_WINDOW * self.width);
            self.answers.reserve_exact(FAMILY_WINDOW);
        }
        let mut blocks = blocks.iter();
        let ranges = row.iter().map(|&count| {
            if count == 0 {
                return (0, 0);
            }
            let block = blocks.next().expect("one block per allocated version");
            if block.peak == block.units {
                (count, count)
            } else {
                (block.peak as u32 + 1, u32::MAX)
            }
        });
        if self.answers.len() < FAMILY_WINDOW {
            self.ranges.extend(ranges);
            self.answers.push(answer);
        } else {
            let slot = self.next * self.width;
            for (kept, range) in self.ranges[slot..slot + self.width].iter_mut().zip(ranges) {
                *kept = range;
            }
            self.answers[self.next] = answer;
        }
        self.next = (self.next + 1) % FAMILY_WINDOW;
    }
}

/// Version-aware list scheduling against a fixed allocation.
///
/// Ready operations are started in priority order (longest remaining path
/// under optimistic per-class minimum delays). Each op picks, among the
/// free units of its class, the most reliable one that still lets its
/// downstream chain finish within the bound; if none is safe, it waits for
/// one.
///
/// Returns `None` when the allocation cannot complete the graph within
/// `latency_bound` under this heuristic — the same answers, and the same
/// designs, as [`schedule_on_allocation_reference`], found with exact
/// early exits and per-version unit picks.
pub fn schedule_on_allocation(
    dfg: &Dfg,
    library: &Library,
    allocation: &[(VersionId, u32)],
    latency_bound: u32,
) -> Option<(Assignment, Schedule, Binding)> {
    let mut scratch = AllocScratch::default();
    if !scratch.prepare(dfg, library) {
        return None;
    }
    scratch.load(library, allocation.iter().copied());
    match scratch.list(dfg, latency_bound) {
        Listing::Complete => scratch.design(dfg, library),
        Listing::Cut | Listing::Failed => None,
    }
}

/// A design the search returns.
type Design = (Assignment, Schedule, Binding);

/// Full allocation search: the most reliable feasible design over the
/// enumerated allocations, or `None` if none schedules within the bounds.
///
/// The result is **exactly** what scheduling every enumerated allocation
/// in order and keeping the first one attaining the maximum reliability
/// produces ([`best_allocation_design_reference`]); on a capped lattice
/// that is the optimum over the first 200 000 raw allocations in
/// lexicographic count order (see the module docs). Allocations are
/// visited by descending slack-aware capacity bound, and only those the
/// bound cannot rule out are list-scheduled:
///
/// * *Infeasible bound* — the relaxation (every node a version whose
///   delay fits its slack under the allocation's fastest delays, within
///   `count·⌊Ld/delay⌋` operations per version) has no solution, so the
///   list scheduler would return `None`. This subsumes the critical-path
///   latency floor.
/// * *Incumbent prune* — the relaxation's optimum dominates every
///   reliability the allocation's designs can evaluate to. The bound is
///   a floating-point product, so the prune keeps a conservative relative
///   margin (scaled to the node count's worst-case rounding error) and
///   fires only when the allocation *provably* cannot reach the
///   incumbent: ties and the first-index tie-breaking are unaffected.
///   Visits are bound-ordered, so the first such allocation ends the scan.
/// * *Ceiling prune* — once the incumbent gives every node its class's
///   most reliable version, no later-enumerated allocation can beat it.
///
/// An allocation that would repeat a recent list-scheduling run is
/// answered from that run's record (see "Run families" in the module
/// docs).
pub fn best_allocation_design(dfg: &Dfg, library: &Library, bounds: Bounds) -> Option<Design> {
    let mut diagnostics = Diagnostics::default();
    best_allocation_design_diag(dfg, library, bounds, &mut diagnostics)
}

/// [`best_allocation_design`] that also records search-quality facts in
/// `diagnostics` — whether the enumeration cap truncated the candidate
/// set ([`Diagnostics::alloc_cap_hit`]), so a capped search is reported
/// instead of silently presenting a partial optimum as the global one.
pub fn best_allocation_design_diag(
    dfg: &Dfg,
    library: &Library,
    bounds: Bounds,
    diagnostics: &mut Diagnostics,
) -> Option<Design> {
    let span = rchls_telemetry::span!(timed: "alloc");
    let _record_on_exit = AllocPhaseTimer(&span);
    let (search, mut scratch) = AllocSearch::prepare(dfg, library, bounds)?;
    diagnostics.alloc_cap_hit |= search.order.capped;
    search.scan(dfg, library, &mut scratch)
}

/// A prepared allocation search (see "The scan" in the module docs).
#[derive(Debug)]
struct AllocSearch {
    bounds: Bounds,
    /// Every admitted allocation the bound leaves feasible, highest bound
    /// first, ties by enumeration index.
    order: order::Order,
    /// Worst-case relative rounding slack of the bound product vs the
    /// exact fold `design_reliability` performs.
    margin: f64,
}

impl AllocSearch {
    /// Builds the bound-sorted order. Returns the search and the scratch
    /// to scan it with, or `None` for a cyclic graph.
    fn prepare(
        dfg: &Dfg,
        library: &Library,
        bounds: Bounds,
    ) -> Option<(AllocSearch, AllocScratch)> {
        let mut scratch = AllocScratch::default();
        if !scratch.prepare(dfg, library) {
            return None;
        }
        // Highest bound first; enumeration index breaks ties so the naive
        // scan's tie winner (smallest index) is met first.
        let order = order::Order::build(dfg, library, bounds, &scratch.topo, &scratch.node_class);
        let search = AllocSearch {
            bounds,
            order,
            margin: 1.0 - (dfg.node_count() as f64 + 8.0) * 4.0 * f64::EPSILON,
        };
        Some((search, scratch))
    }

    /// Scans the order until it runs out or the incumbent prune ends the
    /// scan, records the search counters, and returns the winner.
    fn scan(&self, dfg: &Dfg, library: &Library, scratch: &mut AllocScratch) -> Option<Design> {
        // The incumbent: `(reliability, enumeration index, design)`.
        let mut best: Option<(f64, usize, Design)> = None;
        let mut best_rel = f64::NEG_INFINITY;
        // The incumbent's enumeration index while it gives every node its
        // class's most reliable version.
        let mut ceiling = usize::MAX;
        // List-scheduling runs made, those cut short, and allocations a
        // family record answered.
        let (mut scheduled, mut cut, mut family_hits) = (0u64, 0u64, 0u64);
        let mut row = Vec::new();
        for entry in self.order.entries(0..self.order.len()) {
            // Bounds only fall from here on, and the incumbent only rises.
            if self.order.bound(entry) < best_rel * self.margin {
                break;
            }
            let idx = entry.index();
            if idx > ceiling {
                continue;
            }
            self.order.counts(entry, &mut row);
            let family = scratch.families.find(&row);
            if let Some(record) = family {
                // The run would repeat a recorded one. A complete run
                // that could still become the incumbent is made again:
                // its design is built from the kernel's arrays.
                let (listing, rel) = scratch.families.answers[record];
                if listing != Listing::Complete || rel < best_rel {
                    family_hits += 1;
                    continue;
                }
            }
            scheduled += 1;
            scratch.load(library, self.order.allocation(&row));
            let (listing, rel) = scratch.run(dfg, library, self.bounds.latency);
            if family.is_none() {
                scratch
                    .families
                    .record(&row, &scratch.blocks, (listing, rel));
            }
            match listing {
                Listing::Complete => {}
                Listing::Cut => {
                    cut += 1;
                    continue;
                }
                Listing::Failed => continue,
            }
            // The (max reliability, first index) rule: a later position
            // with a lower bound may tie and still win on index.
            let better = best.as_ref().is_none_or(|&(_, best_idx, _)| {
                rel > best_rel || (rel == best_rel && idx < best_idx)
            });
            if !better {
                continue;
            }
            if let Some(design) = scratch.design(dfg, library) {
                debug_assert!(design.2.total_area(library) <= self.bounds.area);
                // The serial-product fold is monotone in each factor
                // (replacing a factor with a larger one never decreases the
                // rounded product), so no assignment evaluates above an
                // all-most-reliable design: a later allocation can at best
                // tie, and a tie only wins from a smaller index.
                ceiling = if scratch.all_most_reliable() {
                    idx
                } else {
                    usize::MAX
                };
                best_rel = rel;
                best = Some((rel, idx, design));
            }
        }
        crate::obs::alloc_search_bound_pruned()
            .add((self.order.rows as u64).saturating_sub(scheduled + family_hits));
        crate::obs::alloc_search_scheduled().add(scheduled);
        crate::obs::alloc_search_family_hits().add(family_hits);
        crate::obs::alloc_search_early_exits().add(cut);
        best.map(|(.., design)| design)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rchls_dfg::{DfgBuilder, OpKind};

    fn pair() -> Dfg {
        DfgBuilder::new("pair")
            .ops(&["a", "b"], OpKind::Add)
            .dep("a", "b")
            .build()
            .unwrap()
    }

    #[test]
    fn enumeration_respects_area_and_coverage() {
        let g = pair();
        let lib = Library::table1();
        let allocs = enumerate_allocations(&g, &lib, 4);
        assert!(!allocs.is_empty());
        for alloc in &allocs {
            let area: u32 = alloc.iter().map(|&(v, n)| lib.version(v).area() * n).sum();
            assert!(area <= 4);
            assert!(alloc.iter().any(|&(_, n)| n > 0));
            // Only adder-class versions appear (graph has no multiplies).
            for &(v, _) in alloc {
                assert_eq!(lib.version(v).class(), OpClass::Adder);
            }
        }
        // {1x adder1}, {2x adder1}, {1x adder2}, {1x adder3}, {a1+a2}, ...
        assert!(allocs.len() >= 5);
    }

    #[test]
    fn scheduling_on_single_slow_unit_serializes() {
        let g = pair();
        let lib = Library::table1();
        let a1 = lib.version_by_name("adder1").unwrap();
        let (assign, sched, binding) =
            schedule_on_allocation(&g, &lib, &[(a1, 1)], 4).expect("4 cycles fit two 2cc adds");
        assert_eq!(sched.latency(), 4);
        assert_eq!(binding.instance_count(), 1);
        let delays = assign.delays(&g, &lib);
        binding.assert_valid(&g, &sched, &delays);
        assert!(schedule_on_allocation(&g, &lib, &[(a1, 1)], 3).is_none());
    }

    #[test]
    fn heterogeneous_units_prefer_reliable_when_safe() {
        // Two independent adds, units {adder1, adder2}, plenty of time:
        // both ops should land on the reliable 2cc adder1 only if it is
        // free; the second op goes to adder2 at step 1 or adder1 later.
        let g = DfgBuilder::new("indep")
            .ops(&["a", "b"], OpKind::Add)
            .build()
            .unwrap();
        let lib = Library::table1();
        let a1 = lib.version_by_name("adder1").unwrap();
        let a2 = lib.version_by_name("adder2").unwrap();
        let (assign, sched, _) = schedule_on_allocation(&g, &lib, &[(a1, 1), (a2, 1)], 8).unwrap();
        let delays = assign.delays(&g, &lib);
        sched.validate(&g, &delays).unwrap();
        // At least one op gets the reliable unit.
        let reliable_ops = g.node_ids().filter(|&n| assign.version(n) == a1).count();
        assert!(reliable_ops >= 1);
    }

    #[test]
    fn enumeration_cap_is_reported_not_silent() {
        // Small graphs under tight bounds never hit the cap...
        let g = pair();
        let lib = Library::table1();
        let (allocs, capped) = enumerate_allocations_with_cap(&g, &lib, 4);
        assert!(!capped);
        assert!(!allocs.is_empty());
        // ... but a wide graph under an absurd area budget exceeds the
        // combinatorial cap, and the flag must say so (the allocation
        // search surfaces it as `Diagnostics::alloc_cap_hit`).
        let wide = rchls_workloads::random_layered_dfg(&rchls_workloads::RandomDfgConfig {
            nodes: 48,
            layers: 4,
            seed: 11,
            ..Default::default()
        });
        let (allocs, capped) = enumerate_allocations_with_cap(&wide, &lib, 10_000);
        assert!(capped, "{} allocations", allocs.len());
        assert!(allocs.len() <= MAX_ALLOCATIONS);
        // The non-reporting wrapper still returns the same truncated set.
        assert_eq!(allocs, enumerate_allocations(&wide, &lib, 10_000));
    }

    /// The number of distinct fastest-delay-per-class rows across a
    /// lattice: the memo keys of the slack-aware bound.
    fn class_min_rows(dfg: &Dfg, lib: &Library, area: u32) -> usize {
        let mut rows: Vec<[u32; SLOTS]> = Vec::new();
        for alloc in enumerate_allocations(dfg, lib, area) {
            let mut row = [u32::MAX; SLOTS];
            for (v, _) in alloc {
                let ver = lib.version(v);
                let slot = class_slot(ver.class());
                row[slot] = row[slot].min(ver.delay());
            }
            if !rows.contains(&row) {
                rows.push(row);
            }
        }
        rows.len()
    }

    #[test]
    fn pruned_search_matches_the_naive_full_scan() {
        // The documented contract: the bound-guided scan returns exactly
        // the design (and cap flag) of the naive "schedule every
        // allocation in enumeration order, keep the first one attaining
        // the maximum reliability" scan. Slack bounds exercise the
        // ceiling prune (the all-most-reliable incumbent), tight bounds
        // the margin prune and the infeasible bound.
        let lib = Library::table1();
        let mut cases: Vec<(String, Dfg, Vec<Bounds>)> = Vec::new();
        for (nodes, layers, seed) in [(10usize, 3usize, 0u64), (14, 4, 3), (12, 3, 7)] {
            let g = rchls_workloads::random_layered_dfg(&rchls_workloads::RandomDfgConfig {
                nodes,
                layers,
                seed,
                ..Default::default()
            });
            let l = layers as u32;
            let bounds = vec![
                Bounds::new(l + 1, 4),
                Bounds::new(l + 3, 8),
                Bounds::new(2 * l + 4, 16),
            ];
            cases.push((format!("{nodes}x{layers}@{seed}"), g, bounds));
        }
        // Graphs whose lattices span at least three fastest-delay rows,
        // so the bound's per-row memo serves several slack profiles in
        // one search.
        let spanning = [
            (
                "builtin:diffeq",
                vec![Bounds::new(6, 11), Bounds::new(8, 14)],
            ),
            (
                "builtin:fir16",
                vec![Bounds::new(11, 9), Bounds::new(10, 12)],
            ),
            (
                "random:24x4@5",
                vec![Bounds::new(6, 14), Bounds::new(8, 18)],
            ),
        ];
        for (spec, bounds) in spanning {
            let g = rchls_workloads::load_workload(spec).unwrap().dfg;
            for b in &bounds {
                assert!(class_min_rows(&g, &lib, b.area) >= 3, "{spec} at {b}");
            }
            cases.push((spec.to_owned(), g, bounds));
        }
        for (name, g, bounds) in cases {
            for bounds in bounds {
                let mut naive_diag = Diagnostics::default();
                let naive = best_allocation_design_reference(&g, &lib, bounds, &mut naive_diag);
                let mut pruned_diag = Diagnostics::default();
                let pruned = best_allocation_design_diag(&g, &lib, bounds, &mut pruned_diag);
                assert_eq!(pruned, naive, "{name} at {bounds}");
                assert_eq!(pruned_diag.alloc_cap_hit, naive_diag.alloc_cap_hit);
            }
        }
    }

    /// The kernel-test corpus: the builtins at the bounds a cold batch
    /// runs them at, and small random graphs at L 6–9 / A 12–20.
    fn kernel_corpus() -> Vec<(String, Dfg, Bounds)> {
        let builtins = [
            ("builtin:fir16", [(12, 8), (10, 12)]),
            ("builtin:ewf", [(17, 16), (14, 20)]),
            ("builtin:diffeq", [(6, 11), (8, 8)]),
            ("builtin:ar-lattice", [(16, 16), (12, 24)]),
            ("builtin:butterfly8", [(8, 24), (10, 16)]),
        ];
        let mut corpus = Vec::new();
        for (spec, points) in builtins {
            let dfg = rchls_workloads::load_workload(spec).unwrap().dfg;
            for (latency, area) in points {
                corpus.push((spec.to_owned(), dfg.clone(), Bounds::new(latency, area)));
            }
        }
        for seed in 0..12u32 {
            let spec = format!("random:24x4@{seed}");
            let dfg = rchls_workloads::load_workload(&spec).unwrap().dfg;
            let bounds = Bounds::new(6 + seed % 4, 12 + 2 * (seed % 5));
            corpus.push((spec, dfg, bounds));
        }
        corpus
    }

    #[test]
    fn optimized_scheduler_matches_the_reference_on_every_allocation() {
        let lib = Library::table1();
        let (mut complete, mut cut) = (0, 0);
        for (spec, dfg, bounds) in kernel_corpus() {
            let mut scratch = AllocScratch::default();
            assert!(scratch.prepare(&dfg, &lib));
            let lattice = Lattice::enumerate(&dfg, &lib, bounds.area);
            for idx in 0..lattice.rows {
                let allocation: Vec<(VersionId, u32)> = lattice.allocation(idx).collect();
                scratch.load(&lib, allocation.iter().copied());
                let listing = scratch.list(&dfg, bounds.latency);
                let fast = match listing {
                    Listing::Complete => {
                        complete += 1;
                        scratch.design(&dfg, &lib)
                    }
                    Listing::Cut => {
                        cut += 1;
                        None
                    }
                    Listing::Failed => None,
                };
                let naive =
                    schedule_on_allocation_reference(&dfg, &lib, &allocation, bounds.latency);
                assert_eq!(fast, naive, "{spec} at {bounds} on {allocation:?}");
                if let Some((assignment, ..)) = &fast {
                    assert_eq!(
                        scratch.reliability(&lib).to_bits(),
                        assignment.design_reliability(&lib).value().to_bits()
                    );
                }
            }
        }
        // Both kinds of answer are well represented.
        assert!(
            complete > 1000 && cut > 1000,
            "{complete} complete, {cut} cut"
        );
        // The public wrapper is the same kernel on a fresh scratch.
        let (_, dfg, bounds) = kernel_corpus().swap_remove(0);
        for allocation in enumerate_allocations(&dfg, &lib, bounds.area) {
            assert_eq!(
                schedule_on_allocation(&dfg, &lib, &allocation, bounds.latency),
                schedule_on_allocation_reference(&dfg, &lib, &allocation, bounds.latency)
            );
        }
    }

    #[test]
    fn a_family_record_answers_exactly_what_the_kernel_would() {
        let lib = Library::table1();
        let mut answered = 0;
        for (spec, dfg, bounds) in kernel_corpus() {
            let (search, mut scratch) = AllocSearch::prepare(&dfg, &lib, bounds).unwrap();
            // The design of the run behind each record, by record slot.
            let mut designs: Vec<Option<Design>> = vec![None; FAMILY_WINDOW];
            let mut row = Vec::new();
            for entry in search.order.entries(0..search.order.len()) {
                search.order.counts(entry, &mut row);
                let family = scratch.families.find(&row);
                scratch.load(&lib, search.order.allocation(&row));
                let (listing, rel) = scratch.run(&dfg, &lib, bounds.latency);
                let design = match listing {
                    Listing::Complete => scratch.design(&dfg, &lib),
                    Listing::Cut | Listing::Failed => None,
                };
                let Some(record) = family else {
                    designs[scratch.families.next] = design;
                    scratch
                        .families
                        .record(&row, &scratch.blocks, (listing, rel));
                    continue;
                };
                answered += 1;
                let (recorded, recorded_rel) = scratch.families.answers[record];
                let at = format!("{spec} at {bounds} on {row:?}");
                assert_eq!(listing, recorded, "{at}");
                assert_eq!(rel.to_bits(), recorded_rel.to_bits(), "{at}");
                assert_eq!(design, designs[record], "{at}");
            }
        }
        assert!(answered > 1000, "only {answered} allocations answered");
    }

    #[test]
    fn a_family_refuses_a_count_that_could_change_a_check() {
        let lib = Library::table1();
        // A run with a block found full, of two units or more, and a block
        // found busy but never full.
        let (row, blocks, answer) = kernel_corpus()
            .into_iter()
            .find_map(|(_, dfg, bounds)| {
                let mut scratch = AllocScratch::default();
                assert!(scratch.prepare(&dfg, &lib));
                let lattice = Lattice::enumerate(&dfg, &lib, bounds.area);
                (0..lattice.rows).find_map(|idx| {
                    scratch.load(&lib, lattice.allocation(idx));
                    let answer = scratch.run(&dfg, &lib, bounds.latency);
                    let blocks = &scratch.blocks;
                    let full = blocks.iter().any(|b| b.peak == b.units && b.units > 1);
                    let busy = blocks.iter().any(|b| 0 < b.peak && b.peak < b.units);
                    (full && busy).then(|| (lattice.row(idx).to_vec(), blocks.clone(), answer))
                })
            })
            .expect("the corpus has such a run");
        let mut families = Families::default();
        families.record(&row, &blocks, answer);
        assert_eq!(families.find(&row), Some(0));
        let versions = row.iter().enumerate().filter(|&(_, &count)| count > 0);
        for (block, (v, &count)) in blocks.iter().zip(versions) {
            let with = |units: usize| {
                let mut other = row.clone();
                other[v] = units as u32;
                families.find(&other)
            };
            if block.peak == block.units {
                assert_eq!(with(block.units + 1), None, "one more unit of a full block");
                assert_eq!(with(block.units - 1), None, "one less unit of a full block");
            } else {
                assert_eq!(with(block.peak), None, "a block at its peak");
                assert_eq!(with(block.peak + 1), Some(0));
                assert_eq!(with(count as usize + 1), Some(0));
            }
        }
    }

    /// Runs the search on `threads` threads started together on a
    /// barrier, each scanning alone, returning each one's design and cap
    /// flag.
    fn concurrent_searches(
        dfg: &Dfg,
        lib: &Library,
        bounds: Bounds,
        threads: usize,
    ) -> Vec<(Option<Design>, bool)> {
        let barrier = std::sync::Barrier::new(threads);
        std::thread::scope(|scope| {
            let participants: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let mut diagnostics = Diagnostics::default();
                        let design =
                            best_allocation_design_diag(dfg, lib, bounds, &mut diagnostics);
                        (design, diagnostics.alloc_cap_hit)
                    })
                })
                .collect();
            participants
                .into_iter()
                .map(|p| p.join().unwrap())
                .collect()
        })
    }

    #[test]
    fn shared_scan_matches_the_reference_at_any_participant_count() {
        // One thread scans each search; searches of the same inputs that
        // run at once share nothing but the inputs, so each returns the
        // reference's design and cap flag.
        let lib = Library::table1();
        for (spec, dfg, bounds) in kernel_corpus() {
            let mut diagnostics = Diagnostics::default();
            let reference = best_allocation_design_reference(&dfg, &lib, bounds, &mut diagnostics);
            let expected = (reference, diagnostics.alloc_cap_hit);
            for threads in [1, 2, 4] {
                for answer in concurrent_searches(&dfg, &lib, bounds, threads) {
                    assert_eq!(answer, expected, "{spec} at {bounds} on {threads} threads");
                }
            }
        }
    }

    /// The oracle order: the lattice enumerated, every row bounded by the
    /// per-allocation form, and the feasible rows sorted by comparison,
    /// highest bound first, ties by index.
    fn oracle_order(dfg: &Dfg, lib: &Library, bounds: Bounds) -> (Lattice, Vec<(f64, usize)>) {
        let mut scratch = AllocScratch::default();
        assert!(scratch.prepare(dfg, lib));
        let lattice = Lattice::enumerate(dfg, lib, bounds.area);
        let mut bound = bound::SlackBound::new(
            dfg,
            &scratch.topo,
            &scratch.node_class,
            lib,
            &lattice.versions,
            bounds.latency,
        );
        let mut order: Vec<(f64, usize)> = (0..lattice.rows)
            .filter_map(|idx| bound.upper_bound(lattice.row(idx)).map(|ub| (ub, idx)))
            .collect();
        order.sort_unstable_by(|(ua, ia), (ub, ib)| ub.total_cmp(ua).then(ia.cmp(ib)));
        (lattice, order)
    }

    /// Builds the class-factored order and holds it to the oracle's
    /// position by position. Returns the order.
    fn assert_order_matches_the_oracle(
        name: &str,
        dfg: &Dfg,
        lib: &Library,
        bounds: Bounds,
    ) -> order::Order {
        let (lattice, expected) = oracle_order(dfg, lib, bounds);
        let mut scratch = AllocScratch::default();
        assert!(scratch.prepare(dfg, lib));
        let order = order::Order::build(dfg, lib, bounds, &scratch.topo, &scratch.node_class);
        let at = format!("{name} at {bounds}");
        assert_eq!(order.capped, lattice.capped, "{at}: capped");
        assert_eq!(order.rows, lattice.rows, "{at}: rows");
        assert_eq!(order.len(), expected.len(), "{at}: feasible allocations");
        let mut row = Vec::new();
        let entries = order.entries(0..order.len());
        for (position, (entry, &(ub, idx))) in entries.iter().zip(&expected).enumerate() {
            assert_eq!(
                (order.bound(entry).to_bits(), entry.index()),
                (ub.to_bits(), idx),
                "{at}: position {position}"
            );
            order.counts(entry, &mut row);
            assert_eq!(row, lattice.row(idx), "{at}: position {position}");
            assert!(
                order
                    .allocation(&row)
                    .filter(|&(_, count)| count > 0)
                    .eq(lattice.allocation(idx)),
                "{at}: position {position}"
            );
        }
        order
    }

    /// A random layered graph whose operations are all multiplies.
    fn multiplies(nodes: usize, layers: usize, seed: u64) -> Dfg {
        rchls_workloads::random_layered_dfg(&rchls_workloads::RandomDfgConfig {
            nodes,
            layers,
            seed,
            multiplier_fraction: 1.0,
            ..Default::default()
        })
    }

    /// A library of `(name, class, area, delay, reliability)` rows.
    fn library(rows: &[(&str, OpClass, u32, u32, f64)]) -> Library {
        let versions = rows.iter().map(|&(name, class, area, delay, reliability)| {
            let reliability = rchls_relmath::Reliability::new(reliability).unwrap();
            rchls_reslib::ResourceVersion::new(name, class, area, delay, reliability)
        });
        Library::new(versions.collect()).unwrap()
    }

    #[test]
    fn the_class_factored_order_is_the_sorted_lattice() {
        let lib = Library::table1();
        let mut cases: Vec<(String, Dfg, Library, Bounds)> = kernel_corpus()
            .into_iter()
            .map(|(spec, dfg, bounds)| (spec, dfg, lib.clone(), bounds))
            .collect();
        let corners = [
            ("random:32x5@0", 8, 64),
            ("random:64x6@0", 8, 64),
            ("random:64x8@0", 8, 64),
            ("random:96x8@0", 8, 64),
            ("random:64x8@0", 12, 128),
            ("random:48x4@11", 12, 300),
        ];
        for (spec, latency, area) in corners {
            let dfg = rchls_workloads::load_workload(spec).unwrap().dfg;
            cases.push((
                spec.to_owned(),
                dfg,
                lib.clone(),
                Bounds::new(latency, area),
            ));
        }
        for bounds in [Bounds::new(4, 4), Bounds::new(3, 12), Bounds::new(2, 9)] {
            cases.push(("pair".to_owned(), pair(), lib.clone(), bounds));
        }
        for bounds in [Bounds::new(8, 24), Bounds::new(6, 40), Bounds::new(14, 12)] {
            cases.push((
                "25 multiplies".to_owned(),
                multiplies(25, 4, 1),
                lib.clone(),
                bounds,
            ));
        }
        // One adder version, and two multiplier versions of equal delay.
        let custom = library(&[
            ("mul_a", OpClass::Multiplier, 2, 2, 0.999),
            ("add", OpClass::Adder, 2, 1, 0.99),
            ("mul_b", OpClass::Multiplier, 3, 2, 0.985),
        ]);
        for (spec, latency, area) in [
            ("random:24x4@5", 8, 16),
            ("random:24x4@5", 12, 30),
            ("builtin:diffeq", 6, 14),
            ("random:64x8@0", 10, 40),
        ] {
            let dfg = rchls_workloads::load_workload(spec).unwrap().dfg;
            cases.push((
                spec.to_owned(),
                dfg,
                custom.clone(),
                Bounds::new(latency, area),
            ));
        }
        // A library without one of the graph's classes covers nothing.
        let adders_only = library(&[("add", OpClass::Adder, 1, 1, 0.99)]);
        let dfg = rchls_workloads::load_workload("random:24x4@5").unwrap().dfg;
        cases.push((
            "random:24x4@5".to_owned(),
            dfg,
            adders_only,
            Bounds::new(8, 16),
        ));
        let mut capped = 0;
        for (name, dfg, lib, bounds) in &cases {
            let order = assert_order_matches_the_oracle(name, dfg, lib, *bounds);
            capped += usize::from(order.capped);
        }
        // The two larger areas and three of the four corners.
        assert_eq!(capped, 5);
    }

    #[test]
    fn a_capped_inner_list_caps_the_order() {
        // Four unit-area multipliers and 25 multiplies: more multiplier
        // vectors than the cap, all under the zero adder vector.
        let lib = library(&[
            ("add", OpClass::Adder, 1, 1, 0.99),
            ("m1", OpClass::Multiplier, 1, 3, 0.999),
            ("m2", OpClass::Multiplier, 1, 2, 0.99),
            ("m3", OpClass::Multiplier, 1, 2, 0.98),
            ("m4", OpClass::Multiplier, 1, 1, 0.95),
        ]);
        let order = assert_order_matches_the_oracle(
            "25 multiplies",
            &multiplies(25, 4, 1),
            &lib,
            Bounds::new(12, 100),
        );
        assert!(order.capped);
        assert_eq!(order.outer_vectors(), 1);
    }

    #[test]
    fn the_outer_walk_stops_at_the_cap() {
        let lib = Library::table1();
        let dfg = rchls_workloads::load_workload("random:512x16@2005")
            .unwrap()
            .dfg;
        let bounds = Bounds::new(64, 256);
        let mut scratch = AllocScratch::default();
        assert!(scratch.prepare(&dfg, &lib));
        let order = order::Order::build(&dfg, &lib, bounds, &scratch.topo, &scratch.node_class);
        assert!(order.capped);
        // Count raw leaves by brute force over Table 1's three adders and
        // two multipliers: the walk visits exactly the adder vectors the
        // first `MAX_ALLOCATIONS` leaves run through.
        let ops = |class| dfg.count_class(class) as u32;
        let (adds, muls) = (ops(OpClass::Adder), ops(OpClass::Multiplier));
        let multiplier_vectors = |room: u32| -> usize {
            (0..=muls.min(room / 2))
                .map(|m1| (muls.min((room - 2 * m1) / 4) + 1) as usize)
                .sum()
        };
        let (mut raw, mut visited) = (0, 0);
        'adders: for a1 in 0..=adds.min(bounds.area) {
            for a2 in 0..=adds.min((bounds.area - a1) / 2) {
                for a3 in 0..=adds.min((bounds.area - a1 - 2 * a2) / 4) {
                    if raw >= MAX_ALLOCATIONS {
                        break 'adders;
                    }
                    visited += 1;
                    raw += multiplier_vectors(bounds.area - a1 - 2 * a2 - 4 * a3);
                }
            }
        }
        assert_eq!(order.outer_vectors(), visited);
        assert!(visited < 200, "{visited} adder vectors");
    }

    #[test]
    fn slack_bound_dominates_every_scheduled_design() {
        let lib = Library::table1();
        let mut infeasible = 0;
        for (spec, dfg, bounds) in kernel_corpus() {
            let mut scratch = AllocScratch::default();
            assert!(scratch.prepare(&dfg, &lib));
            let lattice = Lattice::enumerate(&dfg, &lib, bounds.area);
            let mut bound = bound::SlackBound::new(
                &dfg,
                &scratch.topo,
                &scratch.node_class,
                &lib,
                &lattice.versions,
                bounds.latency,
            );
            let bounds_per_row: Vec<Option<f64>> = (0..lattice.rows)
                .map(|idx| bound.upper_bound(lattice.row(idx)))
                .collect();
            let margin = 1.0 - (dfg.node_count() as f64 + 8.0) * 4.0 * f64::EPSILON;
            for (idx, ub) in bounds_per_row.into_iter().enumerate() {
                scratch.load(&lib, lattice.allocation(idx));
                let listing = scratch.list(&dfg, bounds.latency);
                match ub {
                    None => {
                        infeasible += 1;
                        assert_ne!(listing, Listing::Complete, "{spec} at {bounds}: row {idx}");
                    }
                    Some(ub) if listing == Listing::Complete => {
                        let rel = scratch.reliability(&lib);
                        assert!(
                            rel <= ub / margin,
                            "{spec} at {bounds}: row {idx} reaches {rel} above its bound {ub}"
                        );
                    }
                    Some(_) => {}
                }
            }
        }
        assert!(
            infeasible > 1000,
            "only {infeasible} allocations bounded infeasible"
        );
    }

    #[test]
    fn diag_variant_mirrors_plain_search_and_records_completeness() {
        let g = pair();
        let lib = Library::table1();
        let bounds = Bounds::new(4, 4);
        let mut diagnostics = Diagnostics::default();
        let diag = best_allocation_design_diag(&g, &lib, bounds, &mut diagnostics);
        let plain = best_allocation_design(&g, &lib, bounds);
        assert_eq!(diag, plain);
        // An uncapped enumeration reports a complete search.
        assert!(!diagnostics.alloc_cap_hit);
    }

    #[test]
    fn best_allocation_maps_fir_feasibility_frontier() {
        // Under a *consistent* Table-1 area accounting, FIR at Ld=11 needs
        // at least 9 area units (the paper's Fig. 7 claims (11, 8), but
        // its own resource list sums to 12 — see "Departures from the
        // paper" in README.md). The allocation search must find the
        // frontier point and reject the point just inside it.
        let g = rchls_workloads::fir16();
        let lib = Library::table1();
        assert!(best_allocation_design(&g, &lib, Bounds::new(11, 8)).is_none());
        let got = best_allocation_design(&g, &lib, Bounds::new(11, 9));
        let (assign, sched, binding) = got.expect("a mixed-version design exists at area 9");
        assert!(sched.latency() <= 11);
        assert!(binding.total_area(&lib) <= 9);
        let delays = assign.delays(&g, &lib);
        binding.assert_valid(&g, &sched, &delays);
        // Heterogeneous mixes beat the cheapest uniform design's product.
        let r = assign.design_reliability(&lib).value();
        assert!(r > 0.969f64.powi(23), "reliability {r}");
    }
}
