//! The pass traits a synthesis flow composes — [`Scheduler`], [`Binder`],
//! [`VictimPolicy`], [`RefinePass`] — and the built-in implementations
//! behind the default registry ids.
//!
//! Every pass is identified by a stable string id (see
//! [`FlowSpec`](crate::FlowSpec) for the built-in table). Out-of-tree
//! crates implement a trait and register the instance once with the
//! matching `register_*` function in [`crate::flow`]; any [`FlowSpec`](crate::FlowSpec)
//! naming the new id then composes it, with no changes to `rchls-core`.

use crate::bounds::Bounds;
use crate::error::SynthesisError;
use crate::flow::Diagnostics;
use crate::synth::Synthesizer;
use rchls_bind::{
    bind_coloring_with, bind_left_edge_with, reference as bind_reference, Assignment, BindScratch,
    Binding,
};
use rchls_dfg::{Dfg, NodeId};
use rchls_reslib::{Library, VersionId};
use rchls_sched::{
    reference as sched_reference, schedule_density_with, schedule_force_directed_with, Delays,
    SchedScratch, Schedule, ScheduleError,
};

/// A time-constrained scheduler: places every operation at a start step
/// so the whole graph finishes within `latency`.
pub trait Scheduler: Send + Sync {
    /// The stable registry id (e.g. `"density"`).
    fn id(&self) -> &str;

    /// A one-line human description for `rchls flows`-style listings.
    fn description(&self) -> &str {
        ""
    }

    /// Schedules `dfg` under per-node `delays` within `latency` steps.
    ///
    /// # Errors
    ///
    /// Returns a [`ScheduleError`] when the graph is malformed or cannot
    /// fit the latency budget.
    fn schedule(&self, dfg: &Dfg, delays: &Delays, latency: u32)
        -> Result<Schedule, ScheduleError>;

    /// [`Scheduler::schedule`] on a reusable [`SchedScratch`]. The
    /// synthesizer always calls this entry point; the default ignores the
    /// scratch (so out-of-tree passes keep working unchanged), while the
    /// built-ins run their zero-allocation kernels on it. Implementations
    /// must return exactly what [`Scheduler::schedule`] returns.
    ///
    /// # Errors
    ///
    /// Same contract as [`Scheduler::schedule`].
    fn schedule_with(
        &self,
        dfg: &Dfg,
        delays: &Delays,
        latency: u32,
        scratch: &mut SchedScratch,
    ) -> Result<Schedule, ScheduleError> {
        let _ = scratch;
        self.schedule(dfg, delays, latency)
    }
}

/// A binder: packs scheduled operations onto functional-unit instances.
pub trait Binder: Send + Sync {
    /// The stable registry id (e.g. `"left-edge"`).
    fn id(&self) -> &str;

    /// A one-line human description for `rchls flows`-style listings.
    fn description(&self) -> &str {
        ""
    }

    /// Binds every operation to an instance of its assigned version.
    fn bind(
        &self,
        dfg: &Dfg,
        schedule: &Schedule,
        assignment: &Assignment,
        library: &Library,
    ) -> Binding;

    /// [`Binder::bind`] on a reusable [`BindScratch`]. The synthesizer
    /// always calls this entry point; the default ignores the scratch (so
    /// out-of-tree passes keep working unchanged), while the built-ins
    /// run their preallocated kernels on it. Implementations must return
    /// exactly what [`Binder::bind`] returns.
    fn bind_with(
        &self,
        dfg: &Dfg,
        schedule: &Schedule,
        assignment: &Assignment,
        library: &Library,
        scratch: &mut BindScratch,
    ) -> Binding {
        let _ = scratch;
        self.bind(dfg, schedule, assignment, library)
    }
}

/// The latency-loop victim rule: which critical-path operation moves to a
/// faster version next (line 9 of the paper's Figure 6).
pub trait VictimPolicy: Send + Sync {
    /// The stable registry id (e.g. `"max-delay"`).
    fn id(&self) -> &str;

    /// A one-line human description for `rchls flows`-style listings.
    fn description(&self) -> &str {
        ""
    }

    /// Picks the victim among `candidates` — the critical-path nodes that
    /// still have a faster version, paired with that version. Returns
    /// `None` to declare the latency loop stuck (no solution).
    fn pick(
        &self,
        dfg: &Dfg,
        library: &Library,
        assignment: &Assignment,
        candidates: &[(NodeId, VersionId)],
    ) -> Option<(NodeId, VersionId)>;
}

/// An intermediate flow state: a version assignment with its schedule and
/// binding (what the Figure-6 loops produce and refinement improves).
#[derive(Debug, Clone)]
pub struct FlowState {
    /// Which library version each operation runs on.
    pub assignment: Assignment,
    /// Start step of every operation.
    pub schedule: Schedule,
    /// Operations packed onto unit instances.
    pub binding: Binding,
}

impl FlowState {
    /// Approximate total footprint in bytes (including
    /// `size_of::<FlowState>()`) — the size-accounting input for
    /// budgeted caches.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        size_of::<FlowState>()
            + self.assignment.approx_heap_bytes()
            + self.schedule.approx_heap_bytes()
            + self.binding.approx_heap_bytes()
    }
}

/// The post-Figure-6 stage: given the greedy's outcome, produce the flow
/// state the design is assembled from.
pub trait RefinePass: Send + Sync {
    /// The stable registry id (e.g. `"greedy"`).
    fn id(&self) -> &str;

    /// A one-line human description for `rchls flows`-style listings.
    fn description(&self) -> &str {
        ""
    }

    /// Consumes the Figure-6 result (which may itself be infeasible) and
    /// returns the final state. Implementations may widen the search —
    /// the built-in `"greedy"` pass pools alternative starting designs
    /// and greedily upgrades versions — or pass the input through
    /// unchanged (`"off"`).
    ///
    /// # Errors
    ///
    /// Returns a [`SynthesisError`] when no feasible design exists.
    fn run(
        &self,
        synth: &Synthesizer<'_>,
        figure6: Result<FlowState, SynthesisError>,
        bounds: Bounds,
        diagnostics: &mut Diagnostics,
    ) -> Result<FlowState, SynthesisError>;
}

// ------------------------------------------------------------- schedulers

/// The paper's partition-density scheduler (id `"density"`).
#[derive(Debug, Clone, Copy, Default)]
pub struct DensityScheduler;

impl Scheduler for DensityScheduler {
    fn id(&self) -> &str {
        "density"
    }

    fn description(&self) -> &str {
        "the paper's partition-density time-constrained scheduler (default)"
    }

    fn schedule(
        &self,
        dfg: &Dfg,
        delays: &Delays,
        latency: u32,
    ) -> Result<Schedule, ScheduleError> {
        rchls_sched::schedule_density(dfg, delays, latency)
    }

    fn schedule_with(
        &self,
        dfg: &Dfg,
        delays: &Delays,
        latency: u32,
        scratch: &mut SchedScratch,
    ) -> Result<Schedule, ScheduleError> {
        schedule_density_with(dfg, delays, latency, scratch)
    }
}

/// Force-directed scheduling (id `"force-directed"`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ForceDirectedScheduler;

impl Scheduler for ForceDirectedScheduler {
    fn id(&self) -> &str {
        "force-directed"
    }

    fn description(&self) -> &str {
        "force-directed scheduling (delta-cost kernel; ablation alternative)"
    }

    fn schedule(
        &self,
        dfg: &Dfg,
        delays: &Delays,
        latency: u32,
    ) -> Result<Schedule, ScheduleError> {
        rchls_sched::schedule_force_directed(dfg, delays, latency)
    }

    fn schedule_with(
        &self,
        dfg: &Dfg,
        delays: &Delays,
        latency: u32,
        scratch: &mut SchedScratch,
    ) -> Result<Schedule, ScheduleError> {
        schedule_force_directed_with(dfg, delays, latency, scratch)
    }
}

/// The retained naive partition-density scheduler (id
/// `"density-reference"`): full recomputation per placement, allocating
/// freely. Byte-identical to `"density"` — kept so whole flows can be
/// replayed through the naive kernel and diffed against the optimized
/// one (the CI golden tests do exactly that).
#[derive(Debug, Clone, Copy, Default)]
pub struct DensityReferenceScheduler;

impl Scheduler for DensityReferenceScheduler {
    fn id(&self) -> &str {
        "density-reference"
    }

    fn description(&self) -> &str {
        "naive reference of the density scheduler (byte-identical, slow; for equivalence tests)"
    }

    fn schedule(
        &self,
        dfg: &Dfg,
        delays: &Delays,
        latency: u32,
    ) -> Result<Schedule, ScheduleError> {
        sched_reference::schedule_density_reference(dfg, delays, latency)
    }
}

/// The retained naive force-directed scheduler (id
/// `"force-directed-reference"`): recomputes every distribution graph
/// and candidate force each iteration. Byte-identical to
/// `"force-directed"`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ForceDirectedReferenceScheduler;

impl Scheduler for ForceDirectedReferenceScheduler {
    fn id(&self) -> &str {
        "force-directed-reference"
    }

    fn description(&self) -> &str {
        "naive reference of the force-directed scheduler (byte-identical, slow)"
    }

    fn schedule(
        &self,
        dfg: &Dfg,
        delays: &Delays,
        latency: u32,
    ) -> Result<Schedule, ScheduleError> {
        sched_reference::schedule_force_directed_reference(dfg, delays, latency)
    }
}

// ---------------------------------------------------------------- binders

/// Left-edge interval packing (id `"left-edge"`; optimal per version).
#[derive(Debug, Clone, Copy, Default)]
pub struct LeftEdgeBinder;

impl Binder for LeftEdgeBinder {
    fn id(&self) -> &str {
        "left-edge"
    }

    fn description(&self) -> &str {
        "left-edge interval packing (default; optimal per version)"
    }

    fn bind(
        &self,
        dfg: &Dfg,
        schedule: &Schedule,
        assignment: &Assignment,
        library: &Library,
    ) -> Binding {
        rchls_bind::bind_left_edge(dfg, schedule, assignment, library)
    }

    fn bind_with(
        &self,
        dfg: &Dfg,
        schedule: &Schedule,
        assignment: &Assignment,
        library: &Library,
        scratch: &mut BindScratch,
    ) -> Binding {
        bind_left_edge_with(dfg, schedule, assignment, library, scratch)
    }
}

/// Greedy conflict-graph coloring (id `"coloring"`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ColoringBinder;

impl Binder for ColoringBinder {
    fn id(&self) -> &str {
        "coloring"
    }

    fn description(&self) -> &str {
        "greedy conflict-graph coloring (ablation alternative)"
    }

    fn bind(
        &self,
        dfg: &Dfg,
        schedule: &Schedule,
        assignment: &Assignment,
        library: &Library,
    ) -> Binding {
        rchls_bind::bind_coloring(dfg, schedule, assignment, library)
    }

    fn bind_with(
        &self,
        dfg: &Dfg,
        schedule: &Schedule,
        assignment: &Assignment,
        library: &Library,
        scratch: &mut BindScratch,
    ) -> Binding {
        bind_coloring_with(dfg, schedule, assignment, library, scratch)
    }
}

/// The retained naive left-edge binder (id `"left-edge-reference"`):
/// `BTreeMap` grouping plus comparison sorts. Byte-identical to
/// `"left-edge"`.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeftEdgeReferenceBinder;

impl Binder for LeftEdgeReferenceBinder {
    fn id(&self) -> &str {
        "left-edge-reference"
    }

    fn description(&self) -> &str {
        "naive reference of the left-edge binder (byte-identical, slow; for equivalence tests)"
    }

    fn bind(
        &self,
        dfg: &Dfg,
        schedule: &Schedule,
        assignment: &Assignment,
        library: &Library,
    ) -> Binding {
        bind_reference::bind_left_edge_reference(dfg, schedule, assignment, library)
    }
}

/// The retained naive coloring binder (id `"coloring-reference"`):
/// per-pass node-list clones and `BTreeMap` conflict walks.
/// Byte-identical to `"coloring"`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ColoringReferenceBinder;

impl Binder for ColoringReferenceBinder {
    fn id(&self) -> &str {
        "coloring-reference"
    }

    fn description(&self) -> &str {
        "naive reference of the coloring binder (byte-identical, slow)"
    }

    fn bind(
        &self,
        dfg: &Dfg,
        schedule: &Schedule,
        assignment: &Assignment,
        library: &Library,
    ) -> Binding {
        bind_reference::bind_coloring_reference(dfg, schedule, assignment, library)
    }
}

// --------------------------------------------------------- victim policies

/// The paper's rule (id `"max-delay"`): the critical-path node with the
/// highest delay moves first.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxDelayVictim;

impl VictimPolicy for MaxDelayVictim {
    fn id(&self) -> &str {
        "max-delay"
    }

    fn description(&self) -> &str {
        "critical-path node with the highest delay (the paper's Figure-6 rule)"
    }

    fn pick(
        &self,
        _dfg: &Dfg,
        library: &Library,
        assignment: &Assignment,
        candidates: &[(NodeId, VersionId)],
    ) -> Option<(NodeId, VersionId)> {
        candidates
            .iter()
            .min_by_key(|&&(n, _)| {
                let delay = library.version(assignment.version(n)).delay();
                (std::cmp::Reverse(delay), n.index())
            })
            .copied()
    }
}

/// Among critical-path nodes with a faster version, the one whose
/// substitution costs the least reliability (id `"min-reliability-loss"`).
#[derive(Debug, Clone, Copy, Default)]
pub struct MinReliabilityLossVictim;

impl VictimPolicy for MinReliabilityLossVictim {
    fn id(&self) -> &str {
        "min-reliability-loss"
    }

    fn description(&self) -> &str {
        "substitution with the smallest reliability loss (ablation alternative)"
    }

    fn pick(
        &self,
        _dfg: &Dfg,
        library: &Library,
        assignment: &Assignment,
        candidates: &[(NodeId, VersionId)],
    ) -> Option<(NodeId, VersionId)> {
        let loss = |n: NodeId, v: VersionId| {
            library.version(assignment.version(n)).reliability().value()
                - library.version(v).reliability().value()
        };
        candidates
            .iter()
            .min_by(|&&(na, va), &&(nb, vb)| {
                loss(na, va)
                    .total_cmp(&loss(nb, vb))
                    .then(na.index().cmp(&nb.index()))
            })
            .copied()
    }
}

// ------------------------------------------------------------ refine passes

/// Strict Figure-6 behaviour (id `"off"`): the greedy's result is final.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoRefine;

impl RefinePass for NoRefine {
    fn id(&self) -> &str {
        "off"
    }

    fn description(&self) -> &str {
        "strict Figure-6: stop as soon as the bounds are met"
    }

    fn run(
        &self,
        _synth: &Synthesizer<'_>,
        figure6: Result<FlowState, SynthesisError>,
        _bounds: Bounds,
        _diagnostics: &mut Diagnostics,
    ) -> Result<FlowState, SynthesisError> {
        figure6
    }
}

// The greedy refine passes (`"greedy"` and its retained naive
// `"greedy-reference"`) live in [`crate::flow::refine`].

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::refine::{GreedyReferenceRefine, GreedyRefine};
    use rchls_dfg::{DfgBuilder, OpKind};

    fn chain3() -> Dfg {
        DfgBuilder::new("chain3")
            .ops(&["a", "b", "c"], OpKind::Add)
            .dep("a", "b")
            .dep("b", "c")
            .build()
            .unwrap()
    }

    #[test]
    fn built_in_pass_ids_are_stable() {
        assert_eq!(DensityScheduler.id(), "density");
        assert_eq!(ForceDirectedScheduler.id(), "force-directed");
        assert_eq!(LeftEdgeBinder.id(), "left-edge");
        assert_eq!(ColoringBinder.id(), "coloring");
        assert_eq!(MaxDelayVictim.id(), "max-delay");
        assert_eq!(MinReliabilityLossVictim.id(), "min-reliability-loss");
        assert_eq!(GreedyRefine.id(), "greedy");
        assert_eq!(NoRefine.id(), "off");
        assert_eq!(GreedyReferenceRefine.id(), "greedy-reference");
        assert_eq!(DensityReferenceScheduler.id(), "density-reference");
        assert_eq!(
            ForceDirectedReferenceScheduler.id(),
            "force-directed-reference"
        );
        assert_eq!(LeftEdgeReferenceBinder.id(), "left-edge-reference");
        assert_eq!(ColoringReferenceBinder.id(), "coloring-reference");
        assert!(!DensityScheduler.description().is_empty());
    }

    #[test]
    fn reference_passes_match_optimized_passes() {
        let g = chain3();
        let lib = Library::table1();
        let assignment = Assignment::uniform(&g, &lib).unwrap();
        let delays = assignment.delays(&g, &lib);
        for (opt, reference) in [
            (
                &DensityScheduler as &dyn Scheduler,
                &DensityReferenceScheduler as &dyn Scheduler,
            ),
            (&ForceDirectedScheduler, &ForceDirectedReferenceScheduler),
        ] {
            let a = opt.schedule(&g, &delays, 8).unwrap();
            let b = reference.schedule(&g, &delays, 8).unwrap();
            assert_eq!(a, b, "{}", reference.id());
        }
        let s = DensityScheduler.schedule(&g, &delays, 8).unwrap();
        for (opt, reference) in [
            (
                &LeftEdgeBinder as &dyn Binder,
                &LeftEdgeReferenceBinder as &dyn Binder,
            ),
            (&ColoringBinder, &ColoringReferenceBinder),
        ] {
            let a = opt.bind(&g, &s, &assignment, &lib);
            let b = reference.bind(&g, &s, &assignment, &lib);
            assert_eq!(a, b, "{}", reference.id());
        }
    }

    #[test]
    fn schedulers_schedule_and_binders_bind() {
        let g = chain3();
        let lib = Library::table1();
        let assignment = Assignment::uniform(&g, &lib).unwrap();
        let delays = assignment.delays(&g, &lib);
        for scheduler in [&DensityScheduler as &dyn Scheduler, &ForceDirectedScheduler] {
            let s = scheduler.schedule(&g, &delays, 8).unwrap();
            assert!(s.latency() <= 8);
            for binder in [&LeftEdgeBinder as &dyn Binder, &ColoringBinder] {
                let b = binder.bind(&g, &s, &assignment, &lib);
                b.assert_valid(&g, &s, &delays);
            }
        }
    }

    #[test]
    fn victim_policies_pick_from_candidates() {
        let g = chain3();
        let lib = Library::table1();
        let assignment = Assignment::uniform(&g, &lib).unwrap();
        let candidates: Vec<(NodeId, VersionId)> = g
            .node_ids()
            .filter_map(|n| {
                lib.faster_alternatives(assignment.version(n))
                    .first()
                    .map(|&v| (n, v))
            })
            .collect();
        assert!(!candidates.is_empty());
        for policy in [
            &MaxDelayVictim as &dyn VictimPolicy,
            &MinReliabilityLossVictim,
        ] {
            let pick = policy.pick(&g, &lib, &assignment, &candidates);
            assert!(pick.is_some(), "{}", policy.id());
            assert!(candidates.contains(&pick.unwrap()));
        }
        assert!(MaxDelayVictim.pick(&g, &lib, &assignment, &[]).is_none());
    }
}
