//! The [`Strategy`] trait — a whole synthesis algorithm as a pluggable
//! value — plus the request/report types and the five built-in
//! strategies.

use crate::bounds::Bounds;
use crate::design::Design;
use crate::engine::PartReader;
use crate::error::SynthesisError;
use crate::flow::{Diagnostics, FlowSpec};
use crate::redundancy::{add_redundancy_with_model, RedundancyModel};
use crate::scratch::ScratchPool;
use crate::synth::Synthesizer;
use rchls_dfg::Dfg;
use rchls_reslib::Library;
use serde::{Deserialize, Serialize};

/// Everything a strategy needs to synthesize one design point.
#[derive(Debug, Clone)]
pub struct SynthRequest<'a> {
    /// The data-flow graph to synthesize.
    pub dfg: &'a Dfg,
    /// The reliability-characterized resource library.
    pub library: &'a Library,
    /// The latency and area bounds.
    pub bounds: Bounds,
    /// The pass composition (scheduler/binder/victim/refine ids).
    pub flow: FlowSpec,
    /// The redundancy growth model for strategies that replicate units.
    pub redundancy: RedundancyModel,
    /// Session scratch pool the strategy's synthesizers borrow arenas
    /// from (`None` = allocate per run).
    scratch_pool: Option<&'a ScratchPool>,
    /// Session-interned uniform start pools (`None` = recompute per
    /// run).
    starts_cache: Option<&'a crate::engine::StartsCache>,
    /// The session memo a composite reads its parts through (`None` =
    /// run each part on this request). Only the engine's report cache
    /// sets it, on the request of a composite a job names, so a part's
    /// own request never carries one.
    parts: Option<PartReader<'a>>,
}

impl<'a> SynthRequest<'a> {
    /// A request with the default flow and redundancy model.
    #[must_use]
    pub fn new(dfg: &'a Dfg, library: &'a Library, bounds: Bounds) -> SynthRequest<'a> {
        SynthRequest {
            dfg,
            library,
            bounds,
            flow: FlowSpec::default(),
            redundancy: RedundancyModel::default(),
            scratch_pool: None,
            starts_cache: None,
            parts: None,
        }
    }

    /// Replaces the flow spec.
    #[must_use]
    pub fn with_flow(mut self, flow: FlowSpec) -> SynthRequest<'a> {
        self.flow = flow;
        self
    }

    /// Replaces the redundancy model.
    #[must_use]
    pub fn with_redundancy(mut self, model: RedundancyModel) -> SynthRequest<'a> {
        self.redundancy = model;
        self
    }

    /// Attaches a session [`ScratchPool`]; strategies hand it to every
    /// [`Synthesizer`] they construct so repeated points share arenas.
    #[must_use]
    pub fn with_scratch_pool(mut self, pool: &'a ScratchPool) -> SynthRequest<'a> {
        self.scratch_pool = Some(pool);
        self
    }

    /// The attached session scratch pool, if any.
    #[must_use]
    pub fn scratch_pool(&self) -> Option<&'a ScratchPool> {
        self.scratch_pool
    }

    /// Attaches a session [`StartsCache`](crate::engine::StartsCache);
    /// refining flows then intern their uniform start pools per
    /// `(graph, library, bounds, scheduler, binder)` instead of
    /// rescheduling them for every point.
    #[must_use]
    pub fn with_starts_cache(mut self, cache: &'a crate::engine::StartsCache) -> SynthRequest<'a> {
        self.starts_cache = Some(cache);
        self
    }

    /// The attached session starts cache, if any.
    #[must_use]
    pub fn starts_cache(&self) -> Option<&'a crate::engine::StartsCache> {
        self.starts_cache
    }

    /// Reads a composite's parts through `reader` (see
    /// [`SynthRequest::part`]).
    pub(crate) fn with_part_reader(mut self, reader: PartReader<'a>) -> SynthRequest<'a> {
        self.parts = Some(reader);
        self
    }

    /// The report of strategy `id` at this request's point: how a
    /// composite strategy (see [`Strategy::parts`]) gets its parts.
    ///
    /// Under an [`Engine`](crate::Engine) the part is read through the
    /// session's report memo under its own cache key, store tier and
    /// single-flight included, so a part that another job of the session
    /// asked for is not computed again. Without one (a plain
    /// [`Strategy::run`]) the part runs on this request.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::UnknownPass`] when `id` names no
    /// registered strategy or names a composite (parts do not nest), and
    /// the part's own error when it finds no design.
    pub fn part(&self, id: &str) -> Result<SynthReport, SynthesisError> {
        let part = crate::flow::strategy(id)
            .filter(|part| part.parts().is_empty())
            .ok_or_else(|| SynthesisError::UnknownPass {
                kind: "part strategy".to_owned(),
                id: id.to_owned(),
            })?;
        let Some(reader) = &self.parts else {
            return part.run(self);
        };
        reader
            .read(&*part)
            .ok_or_else(|| SynthesisError::NoSolution {
                reason: format!("no {id} design meets {}", self.bounds),
            })
    }
}

/// A strategy's full output: the design plus the diagnostics trace that
/// explains how the design was reached.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthReport {
    /// The synthesized design.
    pub design: Design,
    /// What the strategy did to get there.
    pub diagnostics: Diagnostics,
}

impl SynthReport {
    /// Approximate total footprint in bytes (including
    /// `size_of::<SynthReport>()`) — the size-accounting input for
    /// budgeted caches.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        size_of::<SynthReport>()
            + self.design.approx_heap_bytes()
            + self.diagnostics.approx_heap_bytes()
    }
}

/// A complete synthesis algorithm, dispatched by id.
///
/// The built-in ids are `baseline`, `ours`, `combined`, `pipelined`, and
/// `redundancy`, plus the parametric `pipelined@auto` and
/// `pipelined@ii=N`; out-of-tree strategies join the same namespace via
/// [`crate::flow::register_strategy`]. The [`Engine`](crate::Engine),
/// and through it the CLI, the daemon and every sweep, dispatches
/// exclusively through this trait.
pub trait Strategy: Send + Sync {
    /// The stable registry id (e.g. `"ours"`).
    fn id(&self) -> &str;

    /// A one-line human description for `rchls flows`-style listings.
    fn description(&self) -> &str {
        ""
    }

    /// The token synthesis caches key this strategy under. Defaults to
    /// [`id`](Strategy::id); strategies carrying extra parameters that
    /// change their output (e.g. a pipelining initiation interval) must
    /// fold them in so differently-parameterized runs never collide.
    fn fingerprint_token(&self) -> String {
        self.id().to_owned()
    }

    /// The registry ids of the strategies this one combines, if it is a
    /// composite. A composite reads each part with
    /// [`SynthRequest::part`], which under an [`Engine`](crate::Engine)
    /// is a read of the session memo, and a batch dispatches composites
    /// after its other jobs, so the jobs that compute the parts run
    /// first. Parts must not be composites themselves. Defaults to none.
    fn parts(&self) -> &[&str] {
        &[]
    }

    /// Synthesizes one design point.
    ///
    /// # Errors
    ///
    /// Returns a [`SynthesisError`] when no feasible design exists under
    /// the request's bounds (or the flow names unknown passes).
    fn run(&self, request: &SynthRequest<'_>) -> Result<SynthReport, SynthesisError>;
}

/// The paper's reliability-centric approach (Figure 6 plus the flow's
/// refine pass). Id `"ours"`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ours;

impl Strategy for Ours {
    fn id(&self) -> &str {
        "ours"
    }

    fn description(&self) -> &str {
        "reliability-centric version selection (the paper's Figure 6 + refinement)"
    }

    fn run(&self, request: &SynthRequest<'_>) -> Result<SynthReport, SynthesisError> {
        Synthesizer::for_request(request)?.synthesize_report(request.bounds)
    }
}

/// The redundancy-based prior art the paper compares against, in the
/// style of Orailoglu–Karri's "maximize reliability given cost and
/// performance constraints" strategy. Id `"baseline"`.
///
/// 1. Every operation uses the *single fixed* version of its class
///    ([`baseline_versions`](crate::baseline_versions)): prior-art
///    libraries have one implementation per operation type.
/// 2. The flow's scheduler places the graph at the full latency bound
///    `Ld` and its binder shares units maximally, giving the base
///    allocation and its area.
/// 3. Any area left under `Ad` is spent on modular redundancy
///    ([`add_redundancy_with_model`]).
///
/// [`Strategy::run`] fails with [`SynthesisError::Library`] if a class
/// the graph uses has no versions, and with
/// [`SynthesisError::NoSolution`] if the single-version design misses
/// the latency bound or its minimal-area binding exceeds `Ad`.
///
/// # Examples
///
/// ```
/// use rchls_core::{flow, Bounds, SynthRequest};
/// use rchls_dfg::{DfgBuilder, OpKind};
/// use rchls_reslib::Library;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dfg = DfgBuilder::new("pair").ops(&["a", "b"], OpKind::Add).dep("a", "b").build()?;
/// let library = Library::table1();
/// let baseline = flow::strategy("baseline").expect("built-in");
/// let d = baseline.run(&SynthRequest::new(&dfg, &library, Bounds::new(4, 8)))?.design;
/// assert!(d.area <= 8);
/// // Both ops on the fixed type-2 adder, one shared unit, duplicated.
/// assert!(d.reliability.value() > 0.969f64.powi(2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Baseline;

impl Strategy for Baseline {
    fn id(&self) -> &str {
        "baseline"
    }

    fn description(&self) -> &str {
        "prior art: fixed fastest version per class + modular redundancy (Ref [3])"
    }

    fn run(&self, request: &SynthRequest<'_>) -> Result<SynthReport, SynthesisError> {
        crate::baseline::nmr_baseline_report(request)
    }
}

/// The paper's unified scheme, the "Our approach + Ref \[3\]" column of
/// its Table 2. Id `"combined"`.
///
/// It takes the reliability-centric design ([`Ours`]), then spends any
/// area still under the bound on modular redundancy. As in the
/// paper, redundant copies use *the same version* the reliability-centric
/// pass selected for the instance ("when we add redundancy for an
/// operator, we use the same version selected by our reliability-centric
/// approach as duplicate(s)").
///
/// The combined design space *contains* the baseline's (a single-version
/// design plus redundancy is one point in it), so the unified scheme is
/// evaluated as a portfolio with [`Baseline`]: if the pure redundancy
/// design beats the refined-then-replicated one, it is returned instead.
/// This is what makes the paper's claim — "this combined approach
/// obtains a better reliability than \[3\]" — hold unconditionally. The
/// report's diagnostics fold both branches together, and
/// [`Strategy::run`] fails only when *neither* branch finds a feasible
/// design.
///
/// Both branches are its [parts](Strategy::parts), `ours` and
/// `baseline`: under an engine they are read from the session memo, so a
/// Table-2 sweep computes each `ours` point once, not twice.
///
/// # Examples
///
/// ```
/// use rchls_core::{flow, Bounds, SynthRequest};
/// use rchls_dfg::{DfgBuilder, OpKind};
/// use rchls_reslib::Library;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dfg = DfgBuilder::new("pair").ops(&["a", "b"], OpKind::Add).dep("a", "b").build()?;
/// let library = Library::table1();
/// let combined = flow::strategy("combined").expect("built-in");
/// let d = combined.run(&SynthRequest::new(&dfg, &library, Bounds::new(4, 6)))?.design;
/// assert!(d.area <= 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Combined;

impl Strategy for Combined {
    fn id(&self) -> &str {
        "combined"
    }

    fn description(&self) -> &str {
        "reliability-centric selection + leftover-area redundancy (portfolio with baseline)"
    }

    fn parts(&self) -> &[&str] {
        &["ours", "baseline"]
    }

    fn run(&self, request: &SynthRequest<'_>) -> Result<SynthReport, SynthesisError> {
        crate::combined::combined_report(request)
    }
}

/// Pipelined reliability-centric synthesis at a fixed initiation
/// interval. Id `"pipelined"`.
///
/// The paper states its algorithm "can be used for both pipelined and
/// non-pipelined data-paths" but evaluates only the latter. This
/// strategy completes the pipelined half: the most reliable design whose
/// schedule length fits `Ld` and whose **pipelined** binding (units
/// shared only between operations that never collide modulo the
/// interval) fits `Ad`. Scheduling balances the modulo occupancy profile
/// ([`rchls_sched::schedule_modulo`]), binding is
/// [`rchls_bind::bind_left_edge_pipelined`], and a portfolio of uniform
/// starts is greedily upgraded under both.
///
/// A smaller interval means higher throughput but more unit pressure.
/// The registered instance runs at the *automatic* interval
/// `max(1, Ld / 2)`; [`Pipelined::with_ii`] pins an explicit one. Both
/// are registry ids too, `pipelined@auto` and `pipelined@ii=N` (see
/// [`strategy`](fn@crate::flow::strategy)). The interval participates in
/// [`Strategy::fingerprint_token`], so cached runs at different
/// intervals never collide.
///
/// # Examples
///
/// ```
/// use rchls_core::{flow, Bounds, SynthRequest};
/// use rchls_reslib::Library;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dfg = rchls_workloads::diffeq();
/// let library = Library::table1();
/// let request = SynthRequest::new(&dfg, &library, Bounds::new(8, 12));
/// let plain = flow::strategy("ours").expect("built-in").run(&request)?.design;
/// let piped = flow::strategy("pipelined@ii=4").expect("parametric id").run(&request)?.design;
/// // Pipelining can only increase unit pressure, never reduce it.
/// assert!(piped.area >= plain.area || piped.reliability.value() <= plain.reliability.value());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Pipelined {
    ii: Option<u32>,
}

impl Pipelined {
    /// The automatic-interval instance (`ii = max(1, Ld / 2)`).
    #[must_use]
    pub fn auto() -> Pipelined {
        Pipelined { ii: None }
    }

    /// A fixed-interval instance.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    #[must_use]
    pub fn with_ii(ii: u32) -> Pipelined {
        assert!(ii > 0, "initiation interval must be positive");
        Pipelined { ii: Some(ii) }
    }

    /// The interval this instance runs at under `bounds`. An explicit
    /// interval above `Ld` is clamped to it: every control step
    /// `t ≤ Ld` already has a residue `(t - 1) mod ii` of its own, so a
    /// longer interval folds nothing further and gives the same design.
    #[must_use]
    pub fn effective_ii(&self, bounds: Bounds) -> u32 {
        match self.ii {
            Some(ii) => ii.min(bounds.latency),
            None => (bounds.latency / 2).max(1),
        }
    }
}

impl Strategy for Pipelined {
    fn id(&self) -> &str {
        "pipelined"
    }

    fn description(&self) -> &str {
        "pipelined data path: modulo scheduling + collision-free binding at a fixed II"
    }

    fn fingerprint_token(&self) -> String {
        match self.ii {
            Some(ii) => format!("pipelined@ii={ii}"),
            None => "pipelined@auto".to_owned(),
        }
    }

    fn run(&self, request: &SynthRequest<'_>) -> Result<SynthReport, SynthesisError> {
        let ii = self.effective_ii(request.bounds);
        Synthesizer::for_request(request)?.pipelined_report(request.bounds, ii)
    }
}

/// Pure redundancy over the best *single-version* design: every uniform
/// one-version-per-class assignment that meets the bounds is scheduled at
/// the full latency budget (maximal sharing), the leftover area is spent
/// on replication, and the most reliable outcome wins. Id `"redundancy"`.
///
/// The baseline's fastest-version design is one point of this space, so
/// this strategy never scores below `"baseline"` at equal bounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Redundancy;

impl Strategy for Redundancy {
    fn id(&self) -> &str {
        "redundancy"
    }

    fn description(&self) -> &str {
        "best single-version design + modular redundancy (redundancy-only search)"
    }

    fn run(&self, request: &SynthRequest<'_>) -> Result<SynthReport, SynthesisError> {
        let span = rchls_telemetry::span!(timed: "strategy.redundancy");
        let synth = Synthesizer::for_request(request)?;
        let starts = synth.uniform_feasible_starts(request.bounds)?;
        let mut diagnostics = Diagnostics::default();
        diagnostics
            .candidate_pool_sizes
            .push(u32::try_from(starts.len()).unwrap_or(u32::MAX));
        let mut best: Option<(Design, u32)> = None;
        for state in starts {
            diagnostics.loop_iterations += 1;
            let replication = vec![1u32; state.binding.instance_count()];
            let mut design = Design::assemble(
                request.dfg,
                request.library,
                state.assignment,
                state.schedule,
                state.binding,
                replication,
            );
            let moves = add_redundancy_with_model(
                &mut design,
                request.dfg,
                request.library,
                request.bounds.area,
                request.redundancy,
            );
            let better = best
                .as_ref()
                .is_none_or(|(b, _)| design.reliability.value() > b.reliability.value());
            if better {
                best = Some((design, moves));
            } else {
                diagnostics.rejected_moves += 1;
            }
        }
        let (design, moves) = best.ok_or_else(|| SynthesisError::NoSolution {
            reason: format!(
                "no single-version design meets {} for redundancy insertion",
                request.bounds
            ),
        })?;
        diagnostics.redundancy_moves = moves;
        synth.harvest_timers(&mut diagnostics);
        diagnostics.wall_time_micros = span.elapsed_micros();
        Ok(SynthReport {
            design,
            diagnostics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rchls_dfg::{DfgBuilder, OpKind};

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
    fn ours_report_matches_legacy_synthesize() {
        let g = figure4a();
        let lib = Library::table1();
        let bounds = Bounds::new(6, 4);
        let report = Ours.run(&SynthRequest::new(&g, &lib, bounds)).unwrap();
        let legacy = Synthesizer::new(&g, &lib).synthesize(bounds).unwrap();
        assert_eq!(report.design, legacy);
        // The greedy refine pass records its starting-portfolio size.
        assert!(!report.diagnostics.candidate_pool_sizes.is_empty());
    }

    #[test]
    fn unknown_flow_ids_fail_cleanly() {
        let g = figure4a();
        let lib = Library::table1();
        let req = SynthRequest::new(&g, &lib, Bounds::new(6, 4))
            .with_flow(FlowSpec::default().with_scheduler("warp"));
        for s in [&Ours as &dyn Strategy, &Baseline, &Combined, &Redundancy] {
            let err = s.run(&req).unwrap_err();
            assert!(
                matches!(err, SynthesisError::UnknownPass { .. }),
                "{}",
                s.id()
            );
        }
    }

    #[test]
    fn redundancy_strategy_never_scores_below_baseline() {
        let g = figure4a();
        let lib = Library::table1();
        for bounds in [Bounds::new(6, 4), Bounds::new(8, 8), Bounds::new(5, 6)] {
            let req = SynthRequest::new(&g, &lib, bounds);
            let red = Redundancy.run(&req).unwrap();
            let base = Baseline.run(&req).unwrap();
            assert!(
                red.design.reliability.value() + 1e-12 >= base.design.reliability.value(),
                "redundancy below baseline at {bounds}"
            );
            assert!(red.design.area <= bounds.area);
            assert!(red.design.latency <= bounds.latency);
        }
    }

    #[test]
    fn pipelined_fingerprint_tokens_separate_intervals() {
        assert_eq!(Pipelined::auto().fingerprint_token(), "pipelined@auto");
        assert_eq!(Pipelined::with_ii(3).fingerprint_token(), "pipelined@ii=3");
        assert_eq!(Ours.fingerprint_token(), "ours");
        assert_eq!(Pipelined::auto().effective_ii(Bounds::new(8, 4)), 4);
        assert_eq!(Pipelined::auto().effective_ii(Bounds::new(1, 4)), 1);
        assert_eq!(Pipelined::with_ii(2).effective_ii(Bounds::new(8, 4)), 2);
        assert_eq!(Pipelined::with_ii(20).effective_ii(Bounds::new(8, 4)), 8);
        assert_eq!(
            Pipelined::with_ii(u32::MAX).fingerprint_token(),
            "pipelined@ii=4294967295"
        );
    }

    #[test]
    #[should_panic(expected = "initiation interval")]
    fn zero_interval_is_rejected() {
        let _ = Pipelined::with_ii(0);
    }

    #[test]
    fn reports_carry_wall_time_and_scrub_cleanly() {
        let g = figure4a();
        let lib = Library::table1();
        let report = Combined
            .run(&SynthRequest::new(&g, &lib, Bounds::new(8, 8)))
            .unwrap();
        let scrubbed = report.diagnostics.scrubbed();
        assert_eq!(scrubbed.wall_time_micros, 0);
        // Serde round-trip of the full report.
        let v = Serialize::to_value(&report);
        let back: SynthReport = Deserialize::from_value(&v).unwrap();
        assert_eq!(back, report);
    }
}
