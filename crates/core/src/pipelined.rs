//! Pipelined reliability-centric synthesis: the algorithm behind
//! [`crate::flow::Pipelined`]. The same reliability-centric version
//! selection, but scheduling balances the *modulo* occupancy profile
//! ([`rchls_sched::schedule_modulo`]) and binding shares units only
//! between operations that never collide modulo the initiation interval
//! ([`rchls_bind::bind_left_edge_pipelined`]).

use crate::bounds::Bounds;
use crate::design::Design;
use crate::error::SynthesisError;
use crate::flow::{Diagnostics, SynthReport};
use crate::synth::Synthesizer;
use rchls_bind::bind_left_edge_pipelined;
use rchls_sched::{asap, schedule_modulo};

impl Synthesizer<'_> {
    /// The body of the `"pipelined"` strategy ([`Pipelined`]) at
    /// initiation interval `ii`.
    ///
    /// # Errors
    ///
    /// Same contract as [`Synthesizer::synthesize`].
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    ///
    /// [`Pipelined`]: crate::flow::Pipelined
    pub(crate) fn pipelined_report(
        &self,
        bounds: Bounds,
        ii: u32,
    ) -> Result<SynthReport, SynthesisError> {
        assert!(ii > 0, "initiation interval must be positive");
        let span = rchls_telemetry::span!(timed: "strategy.pipelined");
        self.dfg()
            .validate()
            .map_err(rchls_sched::ScheduleError::from)?;

        // Portfolio over uniform starting points, each greedily upgraded
        // under modulo scheduling / collision-free binding.
        let mut diagnostics = Diagnostics::default();
        let starts = self.pipelined_starts(bounds, ii)?;
        diagnostics
            .candidate_pool_sizes
            .push(u32::try_from(starts.len()).unwrap_or(u32::MAX));
        let mut best: Option<Design> = None;
        for start in starts {
            let candidate = self.pipeline_refine(start, bounds, ii, &mut diagnostics)?;
            let better = match &best {
                None => true,
                Some(b) => candidate.reliability.value() > b.reliability.value(),
            };
            if better {
                best = Some(candidate);
            }
        }
        let design = best.ok_or_else(|| SynthesisError::NoSolution {
            reason: format!("no pipelined design meets {bounds} at II={ii}"),
        })?;
        self.harvest_timers(&mut diagnostics);
        diagnostics.wall_time_micros = span.elapsed_micros();
        Ok(SynthReport {
            design,
            diagnostics,
        })
    }

    /// Feasible uniform starting points for the pipelined search.
    fn pipelined_starts(&self, bounds: Bounds, ii: u32) -> Result<Vec<Design>, SynthesisError> {
        let mut out = Vec::new();
        for assignment in self.uniform_assignments()? {
            let delays = assignment.delays(self.dfg(), self.library());
            let min = asap(self.dfg(), &delays)?.latency();
            if min > bounds.latency {
                continue;
            }
            let Ok(schedule) = schedule_modulo(self.dfg(), &delays, bounds.latency, ii) else {
                continue;
            };
            let binding =
                bind_left_edge_pipelined(self.dfg(), &schedule, &assignment, self.library(), ii);
            if binding.total_area(self.library()) > bounds.area {
                continue;
            }
            let replication = vec![1u32; binding.instance_count()];
            out.push(Design::assemble(
                self.dfg(),
                self.library(),
                assignment,
                schedule,
                binding,
                replication,
            ));
        }
        Ok(out)
    }

    /// Greedy upgrade pass under pipelined scheduling/binding.
    fn pipeline_refine(
        &self,
        mut design: Design,
        bounds: Bounds,
        ii: u32,
        diagnostics: &mut Diagnostics,
    ) -> Result<Design, SynthesisError> {
        loop {
            diagnostics.loop_iterations += 1;
            let mut improved: Option<Design> = None;
            for n in self.dfg().node_ids() {
                let cur = design.assignment.version(n);
                let cur_r = self.library().version(cur).reliability().value();
                for (v, ver) in self.library().versions_of(self.dfg().node(n).class()) {
                    if ver.reliability().value() <= cur_r {
                        continue;
                    }
                    let mut assignment = design.assignment.clone();
                    assignment.set(n, v);
                    let delays = assignment.delays(self.dfg(), self.library());
                    if asap(self.dfg(), &delays)?.latency() > bounds.latency {
                        diagnostics.rejected_moves += 1;
                        continue;
                    }
                    let Ok(schedule) = schedule_modulo(self.dfg(), &delays, bounds.latency, ii)
                    else {
                        diagnostics.rejected_moves += 1;
                        continue;
                    };
                    let binding = bind_left_edge_pipelined(
                        self.dfg(),
                        &schedule,
                        &assignment,
                        self.library(),
                        ii,
                    );
                    if binding.total_area(self.library()) > bounds.area {
                        diagnostics.rejected_moves += 1;
                        continue;
                    }
                    let replication = vec![1u32; binding.instance_count()];
                    let cand = Design::assemble(
                        self.dfg(),
                        self.library(),
                        assignment,
                        schedule,
                        binding,
                        replication,
                    );
                    let gain = cand.reliability.value() - design.reliability.value();
                    if gain <= 1e-15 {
                        continue;
                    }
                    let better = improved
                        .as_ref()
                        .is_none_or(|i| cand.reliability.value() > i.reliability.value());
                    if better {
                        improved = Some(cand);
                    }
                }
            }
            match improved {
                Some(d) => {
                    diagnostics.refine_upgrades += 1;
                    design = d;
                }
                None => break,
            }
        }
        Ok(design)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{self, SynthRequest};
    use rchls_dfg::{Dfg, DfgBuilder, OpClass, OpKind};
    use rchls_reslib::Library;

    /// The `"pipelined@ii=N"` strategy's design at `bounds`, through the
    /// registry.
    fn pipelined(
        g: &Dfg,
        lib: &Library,
        bounds: Bounds,
        ii: u32,
    ) -> Result<Design, SynthesisError> {
        let strategy = flow::strategy(&format!("pipelined@ii={ii}")).expect("parametric id");
        strategy
            .run(&SynthRequest::new(g, lib, bounds))
            .map(|r| r.design)
    }

    #[test]
    fn pipelined_design_respects_modulo_area() {
        let g = DfgBuilder::new("indep")
            .ops(&["a", "b", "c", "d"], OpKind::Add)
            .build()
            .unwrap();
        let lib = Library::table1();
        // II = 1: every op needs its own unit residue; 4 ops -> heavy area.
        let d1 = pipelined(&g, &lib, Bounds::new(8, 16), 1).unwrap();
        // II = 4: ops can stagger onto fewer units.
        let d4 = pipelined(&g, &lib, Bounds::new(8, 16), 4).unwrap();
        assert!(
            d1.area >= d4.area,
            "II=1 area {} < II=4 area {}",
            d1.area,
            d4.area
        );
        let delays1 = d1.assignment.delays(&g, &lib);
        d1.schedule.validate(&g, &delays1).unwrap();
    }

    #[test]
    fn pipelined_tightens_to_no_solution() {
        let g = DfgBuilder::new("indep")
            .ops(&["a", "b", "c", "d"], OpKind::Add)
            .build()
            .unwrap();
        let lib = Library::table1();
        // At II=1 each 1cc add occupies the single residue: four units of
        // at least area 1 each... area bound 2 cannot fit 4 adder units.
        let err = pipelined(&g, &lib, Bounds::new(8, 2), 1).unwrap_err();
        assert!(matches!(err, SynthesisError::NoSolution { .. }));
    }

    #[test]
    fn pipelined_prefers_reliable_versions_when_area_allows() {
        let g = DfgBuilder::new("pair")
            .ops(&["a", "b"], OpKind::Add)
            .dep("a", "b")
            .build()
            .unwrap();
        let lib = Library::table1();
        let d = pipelined(&g, &lib, Bounds::new(6, 8), 3).unwrap();
        // Plenty of slack: both adds should reach the most reliable adder.
        assert!((d.reliability.value() - 0.999f64.powi(2)).abs() < 1e-9);
    }

    #[test]
    fn large_ii_matches_unpipelined_unit_counts() {
        let g = rchls_workloads::diffeq();
        let lib = Library::table1();
        let bounds = Bounds::new(8, 14);
        let piped = pipelined(&g, &lib, bounds, bounds.latency).unwrap();
        let plain = Synthesizer::new(&g, &lib).synthesize(bounds).unwrap();
        // With II = latency no folding occurs, so the pipelined result is
        // never worse in area than a non-pipelined design of equal
        // reliability would suggest (both meet the same bounds).
        assert!(piped.area <= bounds.area && plain.area <= bounds.area);
        for class in OpClass::ALL {
            let delays = piped.assignment.delays(&g, &lib);
            let peak = piped
                .schedule
                .modulo_peak_usage(&g, &delays, class, bounds.latency);
            let plain_peak = piped.schedule.peak_usage(&g, &delays, class);
            assert_eq!(peak, plain_peak, "II=L folding must be a no-op");
        }
    }
}
