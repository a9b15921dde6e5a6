//! The paper's Figure-6 algorithm: reliability-centric allocation,
//! scheduling and binding under latency and area bounds, composed from
//! the flow registry's passes.

use crate::bounds::Bounds;
use crate::design::Design;
use crate::error::SynthesisError;
use crate::flow::{Diagnostics, FlowSpec, FlowState, ResolvedFlow, SynthReport};
use crate::obs;
use crate::scratch::{ScratchPool, SynthScratch};
use rchls_bind::{Assignment, Binding};
use rchls_dfg::{Dfg, NodeId};
use rchls_reslib::{Library, VersionId};
use rchls_sched::Schedule;
use rchls_telemetry::span;
use std::cell::{Cell, RefCell};
use std::collections::HashSet;

/// Per-phase wall-time and call accumulators, harvested into
/// [`Diagnostics`] when a report is assembled.
#[derive(Debug, Default)]
struct PhaseTimers {
    sched_micros: Cell<u64>,
    bind_micros: Cell<u64>,
    sched_calls: Cell<u32>,
    bind_calls: Cell<u32>,
}

/// The reliability-centric synthesizer (`Find_Design` in Figure 6).
///
/// The algorithm proceeds in three phases:
///
/// 1. **Initial solution** (lines 3–6): every operation gets the *most
///    reliable* version of its class — the reliability-optimal but possibly
///    bound-violating starting point.
/// 2. **Latency loop** (lines 7–12): while the critical path exceeds `Ld`,
///    pick the victim operation on the critical path (per the flow's
///    [`VictimPolicy`](crate::flow::VictimPolicy)) and move it to a faster
///    — typically less reliable — version.
/// 3. **Area loop** (lines 15–28): first exploit any latency slack by
///    rescheduling at a larger latency so more operations share units;
///    then, while area still exceeds `Ad`, move the biggest-area victim
///    (together with every operation sharing its unit) to a smaller
///    version, rejecting moves that would break the latency bound.
///
/// The flow's [`RefinePass`](crate::flow::RefinePass) then runs on the
/// outcome (the default `"greedy"` pass pools alternative starts and
/// upgrades versions; `"off"` keeps the strict Figure-6 result).
///
/// If both loops exhaust their alternatives the design space is empty and
/// [`SynthesisError::NoSolution`] is returned (line 29).
#[derive(Debug)]
pub struct Synthesizer<'a> {
    dfg: &'a Dfg,
    library: &'a Library,
    spec: FlowSpec,
    flow: ResolvedFlow,
    /// Preallocated scheduling/binding/delay buffers, reused by every
    /// pass invocation this synthesizer makes.
    scratch: RefCell<SynthScratch>,
    /// Where the scratch came from (and returns to on drop), if pooled.
    pool: Option<&'a ScratchPool>,
    /// Session-interned uniform start pools, when running under an
    /// engine session (see [`crate::engine::StartsCache`]).
    starts: Option<&'a crate::engine::StartsCache>,
    timers: PhaseTimers,
}

impl Drop for Synthesizer<'_> {
    fn drop(&mut self) {
        if let Some(pool) = self.pool {
            pool.release(std::mem::take(&mut *self.scratch.borrow_mut()));
        }
    }
}

impl<'a> Synthesizer<'a> {
    /// Creates a synthesizer with the default flow: the paper's
    /// scheduler/binder/victim passes plus the greedy refinement pass
    /// (see [`FlowSpec::default`]).
    #[must_use]
    pub fn new(dfg: &'a Dfg, library: &'a Library) -> Synthesizer<'a> {
        Synthesizer::with_flow(dfg, library, &FlowSpec::default())
            .expect("the default flow names built-in passes")
    }

    /// Creates a synthesizer composing the passes `spec` names.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::UnknownPass`] when a slot names an id the
    /// registry doesn't know.
    pub fn with_flow(
        dfg: &'a Dfg,
        library: &'a Library,
        spec: &FlowSpec,
    ) -> Result<Synthesizer<'a>, SynthesisError> {
        Ok(Synthesizer {
            dfg,
            library,
            spec: spec.clone(),
            flow: spec.resolve()?,
            scratch: RefCell::default(),
            pool: None,
            starts: None,
            timers: PhaseTimers::default(),
        })
    }

    /// A synthesizer wired to everything a [`SynthRequest`] carries: the
    /// flow, the session scratch pool (its arenas are borrowed from the
    /// pool and returned on drop, so batch jobs and sweep points stop
    /// re-allocating per point), and the session starts cache. This is
    /// the constructor strategies use.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::UnknownPass`] when a slot names an id the
    /// registry doesn't know.
    ///
    /// [`SynthRequest`]: crate::SynthRequest
    pub fn for_request(
        request: &crate::flow::SynthRequest<'a>,
    ) -> Result<Synthesizer<'a>, SynthesisError> {
        let mut synth = Synthesizer::with_flow(request.dfg, request.library, &request.flow)?;
        if let Some(pool) = request.scratch_pool() {
            synth.scratch = RefCell::new(pool.acquire());
            synth.pool = Some(pool);
        }
        synth.starts = request.starts_cache();
        Ok(synth)
    }

    /// The graph being synthesized.
    #[must_use]
    pub fn dfg(&self) -> &Dfg {
        self.dfg
    }

    /// The library in use.
    #[must_use]
    pub fn library(&self) -> &Library {
        self.library
    }

    /// The flow spec this synthesizer was built from.
    #[must_use]
    pub fn flow(&self) -> &FlowSpec {
        &self.spec
    }

    /// Runs the synthesis flow, returning the most reliable design found
    /// within `bounds` (the design half of [`synthesize_report`]).
    ///
    /// With the `"off"` refine pass (i.e. [`FlowSpec::paper`]) this is
    /// the strict Figure-6 greedy. With the default `"greedy"` pass the
    /// Figure-6 result is pooled with every *uniform* single-version
    /// assignment that meets the bounds, and the best feasible starting
    /// point is improved by greedy version upgrades — a portfolio that
    /// recovers the mixed-version optima the one-pass greedy can miss
    /// (e.g. the paper's own Figure-7(b) FIR design).
    ///
    /// [`synthesize_report`]: Synthesizer::synthesize_report
    ///
    /// # Errors
    ///
    /// * [`SynthesisError::Library`] if the library lacks versions for a
    ///   class the graph uses;
    /// * [`SynthesisError::NoSolution`] if no version selection meets the
    ///   bounds;
    /// * [`SynthesisError::Schedule`] if the graph is malformed (cyclic).
    pub fn synthesize(&self, bounds: Bounds) -> Result<Design, SynthesisError> {
        self.synthesize_report(bounds).map(|r| r.design)
    }

    /// Runs the synthesis flow and returns the design together with the
    /// [`Diagnostics`] trace of the search.
    ///
    /// # Errors
    ///
    /// Same contract as [`Synthesizer::synthesize`].
    pub fn synthesize_report(&self, bounds: Bounds) -> Result<SynthReport, SynthesisError> {
        let synth_span = span!(timed: "synth");
        let mut diagnostics = Diagnostics::default();
        let figure6 = {
            let _figure6_span = span!("figure6");
            self.figure6(bounds, &mut diagnostics)
        };
        let refine = std::sync::Arc::clone(&self.flow.refine);
        let refine_span = span!(timed: "refine");
        let state = refine.run(self, figure6, bounds, &mut diagnostics)?;
        let refine_micros = refine_span.elapsed_micros();
        drop(refine_span);
        diagnostics.refine_micros += refine_micros;
        obs::refine_phase_micros().record(refine_micros);
        let replication = vec![1u32; state.binding.instance_count()];
        let design = Design::assemble(
            self.dfg,
            self.library,
            state.assignment,
            state.schedule,
            state.binding,
            replication,
        );
        self.harvest_timers(&mut diagnostics);
        diagnostics.wall_time_micros = synth_span.elapsed_micros();
        obs::synth_phase_micros().record(diagnostics.wall_time_micros);
        Ok(SynthReport {
            design,
            diagnostics,
        })
    }

    /// Moves the accumulated scheduler/binder phase timings and call
    /// counts into `diagnostics`, resetting the accumulators (so a
    /// synthesizer reused for several runs attributes each run's phases
    /// to its own report).
    pub(crate) fn harvest_timers(&self, diagnostics: &mut Diagnostics) {
        diagnostics.sched_micros += self.timers.sched_micros.take();
        diagnostics.bind_micros += self.timers.bind_micros.take();
        diagnostics.sched_calls += self.timers.sched_calls.take();
        diagnostics.bind_calls += self.timers.bind_calls.take();
    }

    /// The deterministic `(scheduler, binder)` pass-call counts booked so
    /// far — the session starts cache captures deltas of these on a miss
    /// and replays them on hits.
    pub(crate) fn pass_call_counts(&self) -> (u32, u32) {
        (self.timers.sched_calls.get(), self.timers.bind_calls.get())
    }

    /// Books pass calls answered from a session cache: the deterministic
    /// call *counts* a fresh computation would have made (keeping
    /// diagnostics byte-identical across cache states) without any wall
    /// time, which genuinely wasn't spent.
    pub(crate) fn replay_pass_calls(&self, sched: u32, bind: u32) {
        self.timers
            .sched_calls
            .set(self.timers.sched_calls.get() + sched);
        self.timers
            .bind_calls
            .set(self.timers.bind_calls.get() + bind);
    }

    /// The minimum (critical-path) latency of `assignment`, computed on
    /// the scratch arena without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::Schedule`] if the graph is cyclic.
    pub(crate) fn min_latency(&self, assignment: &Assignment) -> Result<u32, SynthesisError> {
        let mut guard = self.scratch.borrow_mut();
        let scratch = &mut *guard;
        scratch.delays.fill_from_fn(self.dfg, |n| {
            self.library.version(assignment.version(n)).delay()
        });
        Ok(scratch.sched.asap_latency(self.dfg, &scratch.delays)?)
    }

    /// Every uniform one-version-per-class assignment (no feasibility
    /// filtering — callers check latency/area under their own scheduling
    /// regime).
    pub(crate) fn uniform_assignments(&self) -> Result<Vec<Assignment>, SynthesisError> {
        use rchls_dfg::OpClass;
        // Per-class version choices (only for classes the graph uses).
        let mut per_class: Vec<(OpClass, Vec<VersionId>)> = Vec::new();
        for class in OpClass::ALL {
            if self.dfg.count_class(class) > 0 {
                let vs: Vec<VersionId> =
                    self.library.versions_of(class).map(|(id, _)| id).collect();
                if vs.is_empty() {
                    return Err(SynthesisError::Library(rchls_reslib::LibraryError::Empty));
                }
                per_class.push((class, vs));
            }
        }
        if per_class.is_empty() {
            return Ok(Vec::new());
        }
        // Cartesian product over the (at most two, for the paper library)
        // used classes.
        let mut combos: Vec<Vec<(OpClass, VersionId)>> = vec![Vec::new()];
        for (class, vs) in &per_class {
            combos = combos
                .into_iter()
                .flat_map(|prefix| {
                    vs.iter().map(move |&v| {
                        let mut next = prefix.clone();
                        next.push((*class, v));
                        next
                    })
                })
                .collect();
        }
        Ok(combos
            .into_iter()
            .map(|combo| {
                Assignment::from_fn(self.dfg, self.library, |n| {
                    let class = self.dfg.node(n).class();
                    combo
                        .iter()
                        .find(|(c, _)| *c == class)
                        .map(|&(_, v)| v)
                        .expect("combo covers every used class")
                })
            })
            .collect())
    }

    /// Every uniform one-version-per-class assignment that meets both
    /// bounds, each already scheduled and bound at the full latency
    /// budget — answered from the session
    /// [`StartsCache`](crate::engine::StartsCache) when one is attached
    /// (the pool depends only on the graph, library, bounds, and
    /// scheduler/binder slots, so sweeps stop recomputing identical
    /// pools), computed fresh otherwise.
    pub(crate) fn uniform_feasible_starts(
        &self,
        bounds: Bounds,
    ) -> Result<Vec<FlowState>, SynthesisError> {
        match self.starts {
            Some(cache) => cache.get_or_compute(self, bounds),
            None => self.uniform_feasible_starts_fresh(bounds),
        }
    }

    /// [`Synthesizer::uniform_feasible_starts`] bypassing any session
    /// cache: always schedules and binds every uniform assignment. The
    /// naive reference passes use this so the golden equivalence suites
    /// prove the interned pools against fresh recomputation.
    pub(crate) fn uniform_feasible_starts_fresh(
        &self,
        bounds: Bounds,
    ) -> Result<Vec<FlowState>, SynthesisError> {
        let mut out = Vec::new();
        for assignment in self.uniform_assignments()? {
            if self.min_latency(&assignment)? > bounds.latency {
                continue;
            }
            let (schedule, binding) = self.schedule_and_bind(&assignment, bounds.latency)?;
            if binding.total_area(self.library) <= bounds.area {
                out.push(FlowState {
                    assignment,
                    schedule,
                    binding,
                });
            }
        }
        Ok(out)
    }

    /// The best allocation-first design for the refine portfolio —
    /// answered from the session [`StartsCache`](crate::engine::StartsCache)
    /// when one is attached (the search depends only on the graph,
    /// library, and bounds), computed fresh otherwise. Either way the
    /// search's completeness flag lands in `diagnostics`.
    pub(crate) fn alloc_design(
        &self,
        bounds: Bounds,
        diagnostics: &mut Diagnostics,
    ) -> Option<(Assignment, Schedule, Binding)> {
        match self.starts {
            Some(cache) => cache.alloc_design(self, bounds, diagnostics),
            None => crate::alloc_search::best_allocation_design_diag(
                self.dfg,
                self.library,
                bounds,
                diagnostics,
            ),
        }
    }

    /// The strict Figure-6 greedy (lines 3–29).
    fn figure6(
        &self,
        bounds: Bounds,
        diagnostics: &mut Diagnostics,
    ) -> Result<FlowState, SynthesisError> {
        self.dfg
            .validate()
            .map_err(rchls_sched::ScheduleError::from)?;
        // Line 3: allocate the most reliable resource to each node.
        let mut assignment = Assignment::uniform(self.dfg, self.library)?;

        // Lines 7-12: latency-reduction loop.
        loop {
            let min_latency = self.min_latency(&assignment)?;
            if min_latency <= bounds.latency {
                break;
            }
            diagnostics.loop_iterations += 1;
            let cp = {
                // `min_latency` left the assignment's delays in the
                // scratch buffer.
                let guard = self.scratch.borrow();
                self.dfg
                    .critical_path(|n| guard.delays.get(n))
                    .map_err(rchls_sched::ScheduleError::from)?
            };
            let Some((victim, faster)) =
                self.pick_latency_victim(&assignment, &cp.nodes, diagnostics)
            else {
                return Err(SynthesisError::NoSolution {
                    reason: format!(
                        "critical path needs {min_latency} cycles > bound {} and no faster \
                         versions remain",
                        bounds.latency
                    ),
                });
            };
            assignment.set(victim, faster);
            diagnostics.victim_moves += 1;
        }

        // Lines 4-6 (for the now latency-feasible assignment): schedule at
        // the minimum achievable latency and bind.
        let mut target = self.min_latency(&assignment)?.max(1);
        let (mut schedule, mut binding) = self.schedule_and_bind(&assignment, target)?;
        let mut area = binding.total_area(self.library);

        // Lines 15-21: exploit latency slack to share more units.
        while area > bounds.area && target < bounds.latency {
            diagnostics.loop_iterations += 1;
            target += 1;
            let (s, b) = self.schedule_and_bind(&assignment, target)?;
            schedule = s;
            binding = b;
            area = binding.total_area(self.library);
        }

        // Lines 23-28: area-reduction loop via smaller versions.
        let mut tried: HashSet<(NodeId, VersionId)> = HashSet::new();
        while area > bounds.area {
            diagnostics.loop_iterations += 1;
            let Some((sharers, version, key)) =
                self.pick_area_victim(&assignment, &binding, &tried)
            else {
                return Err(SynthesisError::NoSolution {
                    reason: format!(
                        "area {area} exceeds bound {} and no smaller versions remain",
                        bounds.area
                    ),
                });
            };
            tried.insert(key);
            let mut candidate = assignment.clone();
            for &n in &sharers {
                candidate.set(n, version);
            }
            let cand_min = self.min_latency(&candidate)?;
            if cand_min > bounds.latency {
                diagnostics.rejected_moves += 1;
                continue; // this version would break the latency bound
            }
            let cand_target = target.max(cand_min).min(bounds.latency);
            let (s, b) = self.schedule_and_bind(&candidate, cand_target)?;
            let a = b.total_area(self.library);
            if a < area {
                assignment = candidate;
                schedule = s;
                binding = b;
                area = a;
                target = cand_target;
                tried.clear(); // new assignment reopens previously useless moves
                diagnostics.victim_moves += 1;
            } else {
                diagnostics.rejected_moves += 1;
            }
        }

        // Line 29: final feasibility check.
        if schedule.latency() > bounds.latency || area > bounds.area {
            return Err(SynthesisError::NoSolution {
                reason: format!(
                    "final design (L={}, A={area}) violates bounds ({bounds})",
                    schedule.latency()
                ),
            });
        }
        Ok(FlowState {
            assignment,
            schedule,
            binding,
        })
    }

    /// Schedules (per the flow's scheduler) and binds (per the flow's
    /// binder) at the given latency — the primitive custom
    /// [`RefinePass`](crate::flow::RefinePass) implementations build on.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::Schedule`] when the assignment cannot be
    /// scheduled within `latency`.
    pub fn schedule_and_bind(
        &self,
        assignment: &Assignment,
        latency: u32,
    ) -> Result<(Schedule, Binding), SynthesisError> {
        let mut guard = self.scratch.borrow_mut();
        let scratch = &mut *guard;
        scratch.delays.fill_from_fn(self.dfg, |n| {
            self.library.version(assignment.version(n)).delay()
        });
        let sched_span = span!(timed: "sched");
        let schedule = self.flow.scheduler.schedule_with(
            self.dfg,
            &scratch.delays,
            latency,
            &mut scratch.sched,
        )?;
        let sched_micros = sched_span.elapsed_micros();
        drop(sched_span);
        obs::sched_phase_micros().record(sched_micros);
        self.timers
            .sched_micros
            .set(self.timers.sched_micros.get() + sched_micros);
        self.timers
            .sched_calls
            .set(self.timers.sched_calls.get() + 1);
        let bind_span = span!(timed: "bind");
        let binding = self.flow.binder.bind_with(
            self.dfg,
            &schedule,
            assignment,
            self.library,
            &mut scratch.bind,
        );
        let bind_micros = bind_span.elapsed_micros();
        drop(bind_span);
        obs::bind_phase_micros().record(bind_micros);
        self.timers
            .bind_micros
            .set(self.timers.bind_micros.get() + bind_micros);
        self.timers.bind_calls.set(self.timers.bind_calls.get() + 1);
        Ok((schedule, binding))
    }

    /// Line 9-10: collect the critical-path candidates and let the flow's
    /// victim policy pick the operation to move to its next-faster
    /// version.
    fn pick_latency_victim(
        &self,
        assignment: &Assignment,
        critical_path: &[NodeId],
        diagnostics: &mut Diagnostics,
    ) -> Option<(NodeId, VersionId)> {
        let candidates: Vec<(NodeId, VersionId)> = critical_path
            .iter()
            .filter_map(|&n| {
                let alts = self.library.faster_alternatives(assignment.version(n));
                alts.first().map(|&v| (n, v))
            })
            .collect();
        diagnostics
            .candidate_pool_sizes
            .push(u32::try_from(candidates.len()).unwrap_or(u32::MAX));
        self.flow
            .victim
            .pick(self.dfg, self.library, assignment, &candidates)
    }

    /// Lines 25-26: pick the biggest-area victim, its co-sharing nodes, and
    /// the version to move them all to. Returns the sharer set, the new
    /// version, and the `(node, version)` key for the tried-set.
    ///
    /// One widening relative to the paper's text: candidate versions are
    /// *all* other versions of the class, not only those with smaller unit
    /// area. Rebinding after a swap can consolidate instances, so a move to
    /// a larger-unit version sometimes shrinks the *total* area (e.g. the
    /// last two ops on a lone ripple-carry adder joining an existing
    /// Brent-Kung unit). The caller still accepts a move only when the
    /// rebound total area strictly decreases, so the loop's contract is
    /// unchanged.
    fn pick_area_victim(
        &self,
        assignment: &Assignment,
        binding: &Binding,
        tried: &HashSet<(NodeId, VersionId)>,
    ) -> Option<(Vec<NodeId>, VersionId, (NodeId, VersionId))> {
        let mut nodes: Vec<NodeId> = self.dfg.node_ids().collect();
        nodes.sort_by_key(|&n| {
            let area = self.library.version(assignment.version(n)).area();
            (std::cmp::Reverse(area), n.index())
        });
        for n in nodes {
            for v in self.library.alternatives(assignment.version(n)) {
                if tried.contains(&(n, v)) {
                    continue;
                }
                let sharers = binding.sharers(n).to_vec();
                return Some((sharers, v, (n, v)));
            }
        }
        None
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
    fn generous_bounds_keep_most_reliable_versions() {
        let g = figure4a();
        let lib = Library::table1();
        // adder1 everywhere: critical path 4 nodes x 2cc = 8; area 1 unit
        // when everything serializes.
        let d = Synthesizer::new(&g, &lib)
            .synthesize(Bounds::new(20, 10))
            .unwrap();
        assert!((d.reliability.value() - 0.999f64.powi(6)).abs() < 1e-9);
        assert!(d.latency <= 20);
        assert!(d.area <= 10);
    }

    #[test]
    fn figure5_case_matches_all_type2_optimum() {
        // Paper Fig. 5: Ld=5, Ad=4. At these bounds the graph's D/E (or
        // A/B) pair must run concurrently on two 1-cycle adders, so the
        // true optimum is the all-type-2 design at 0.82783 (the paper's
        // claimed 0.90713 schedule violates its own dependences — see
        // EXPERIMENTS.md). The engine must find that optimum.
        let g = figure4a();
        let lib = Library::table1();
        let d = Synthesizer::new(&g, &lib)
            .synthesize(Bounds::new(5, 4))
            .unwrap();
        assert!(d.latency <= 5, "latency {}", d.latency);
        assert!(d.area <= 4, "area {}", d.area);
        let all_type2 = 0.969f64.powi(6);
        assert!(
            d.reliability.value() + 1e-9 >= all_type2,
            "got {} vs single-version {all_type2}",
            d.reliability.value()
        );
    }

    #[test]
    fn relaxed_latency_lets_mixing_beat_single_version() {
        // At Ld=6, Ad=4 the ops can stagger enough that a ripple-carry /
        // Brent-Kung mix strictly beats any single-version design.
        let g = figure4a();
        let lib = Library::table1();
        let d = Synthesizer::new(&g, &lib)
            .synthesize(Bounds::new(6, 4))
            .unwrap();
        let all_type2 = 0.969f64.powi(6);
        assert!(
            d.reliability.value() > all_type2,
            "got {} vs single-version {all_type2}",
            d.reliability.value()
        );
    }

    #[test]
    fn latency_bound_forces_faster_versions() {
        // Chain of 3 adds: all-adder1 needs 6 cycles. Ld=4 forces at least
        // one faster (less reliable) version onto the chain.
        let g = DfgBuilder::new("chain3")
            .ops(&["a", "b", "c"], OpKind::Add)
            .dep("a", "b")
            .dep("b", "c")
            .build()
            .unwrap();
        let lib = Library::table1();
        let d = Synthesizer::new(&g, &lib)
            .synthesize(Bounds::new(4, 8))
            .unwrap();
        assert!(d.latency <= 4);
        assert!(d.reliability.value() < 0.999f64.powi(3));
    }

    #[test]
    fn impossible_latency_reports_no_solution() {
        let g = figure4a(); // depth 4, so even all-1cc versions need 4 cycles
        let lib = Library::table1();
        let err = Synthesizer::new(&g, &lib)
            .synthesize(Bounds::new(3, 99))
            .unwrap_err();
        assert!(matches!(err, SynthesisError::NoSolution { .. }), "{err}");
    }

    #[test]
    fn impossible_area_reports_no_solution() {
        // Two independent multiplies in 1 cycle each (mult2, area 4) can't
        // fit area 3; even mult1 (area 2, 2cc) needs area 2 but latency is
        // fine... so force both tight: area 1 is below any multiplier.
        let g = DfgBuilder::new("mul").op("m", OpKind::Mul).build().unwrap();
        let lib = Library::table1();
        let err = Synthesizer::new(&g, &lib)
            .synthesize(Bounds::new(10, 1))
            .unwrap_err();
        assert!(matches!(err, SynthesisError::NoSolution { .. }), "{err}");
    }

    #[test]
    fn design_respects_bounds_across_grid() {
        let g = figure4a();
        let lib = Library::table1();
        for latency in 4..=9 {
            for area in 1..=8 {
                if let Ok(d) = Synthesizer::new(&g, &lib).synthesize(Bounds::new(latency, area)) {
                    assert!(d.latency <= latency, "L {} > {latency}", d.latency);
                    assert!(d.area <= area, "A {} > {area}", d.area);
                    d.binding
                        .assert_valid(&g, &d.schedule, &d.assignment.delays(&g, &lib));
                }
            }
        }
    }

    #[test]
    fn loosening_latency_never_lowers_reliability() {
        let g = figure4a();
        let lib = Library::table1();
        let mut prev = 0.0f64;
        for latency in 4..=10 {
            if let Ok(d) = Synthesizer::new(&g, &lib).synthesize(Bounds::new(latency, 4)) {
                assert!(
                    d.reliability.value() + 1e-9 >= prev,
                    "reliability dropped from {prev} to {} at Ld={latency}",
                    d.reliability.value()
                );
                prev = d.reliability.value();
            }
        }
        assert!(prev > 0.0, "at least one point must be feasible");
    }

    #[test]
    fn every_flow_combination_produces_valid_designs() {
        let g = figure4a();
        let lib = Library::table1();
        for scheduler in ["density", "force-directed"] {
            for binder in ["left-edge", "coloring"] {
                for victim in ["max-delay", "min-reliability-loss"] {
                    let flow = FlowSpec::default()
                        .with_scheduler(scheduler)
                        .with_binder(binder)
                        .with_victim(victim);
                    let d = Synthesizer::with_flow(&g, &lib, &flow)
                        .unwrap()
                        .synthesize(Bounds::new(6, 4))
                        .unwrap();
                    assert!(d.latency <= 6);
                    assert!(d.area <= 4);
                }
            }
        }
    }

    #[test]
    fn unknown_pass_id_is_rejected_at_construction() {
        let g = figure4a();
        let lib = Library::table1();
        let err = Synthesizer::with_flow(&g, &lib, &FlowSpec::default().with_binder("magic"))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, SynthesisError::UnknownPass { .. }), "{err}");
    }

    #[test]
    fn report_diagnostics_trace_the_search() {
        // Tight latency forces victim moves; the default refine pass
        // records its portfolio and upgrade activity.
        let g = figure4a();
        let lib = Library::table1();
        let report = Synthesizer::new(&g, &lib)
            .synthesize_report(Bounds::new(5, 4))
            .unwrap();
        assert!(report.diagnostics.victim_moves > 0);
        assert!(report.diagnostics.loop_iterations > 0);
        assert!(!report.diagnostics.candidate_pool_sizes.is_empty());
        // The strict paper flow never refines.
        let paper = Synthesizer::with_flow(&g, &lib, &FlowSpec::paper())
            .unwrap()
            .synthesize_report(Bounds::new(5, 4))
            .unwrap();
        assert_eq!(paper.diagnostics.refine_upgrades, 0);
    }
}
