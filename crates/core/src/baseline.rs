//! The redundancy-based prior art (Orailoglu–Karri \[3\]) the paper
//! compares against: the algorithm behind [`crate::flow::Baseline`].

use crate::design::Design;
use crate::error::SynthesisError;
use crate::flow::{Diagnostics, SynthReport, SynthRequest};
use crate::redundancy::add_redundancy_with_model;
use crate::synth::Synthesizer;
use rchls_bind::Assignment;
use rchls_dfg::OpClass;
use rchls_reslib::{Library, VersionId};

/// The fixed version the baseline uses for each class: the fastest one,
/// ties broken toward the smaller area.
///
/// For the paper's Table 1 library this selects `adder2` and `mult2` —
/// exactly the single-version design the paper uses for \[3\] (its FIR
/// all-type-2 design scores `0.969²³ = 0.48467`, Table 2a).
#[must_use]
pub fn baseline_versions(library: &Library) -> Vec<(OpClass, Option<VersionId>)> {
    OpClass::ALL
        .iter()
        .map(|&class| {
            let v = library
                .versions_of(class)
                .min_by_key(|(id, v)| (v.delay(), v.area(), id.index()))
                .map(|(id, _)| id);
            (class, v)
        })
        .collect()
}

/// The body of the `"baseline"` strategy ([`Baseline`]): fixed versions,
/// the flow's schedule and binding at `Ld`, then redundancy on the
/// leftover area.
///
/// # Errors
///
/// See [`Baseline`], plus [`SynthesisError::UnknownPass`] when the flow
/// names unregistered passes.
///
/// [`Baseline`]: crate::flow::Baseline
pub(crate) fn nmr_baseline_report(
    request: &SynthRequest<'_>,
) -> Result<SynthReport, SynthesisError> {
    let (dfg, library, bounds) = (request.dfg, request.library, request.bounds);
    let span = rchls_telemetry::span!(timed: "strategy.baseline");
    dfg.validate().map_err(rchls_sched::ScheduleError::from)?;
    // Fixed single version per class.
    let mut chosen = Vec::new();
    for (class, v) in baseline_versions(library) {
        if dfg.count_class(class) > 0 {
            match v {
                Some(v) => chosen.push((class, v)),
                None => return Err(SynthesisError::Library(rchls_reslib::LibraryError::Empty)),
            }
        }
    }
    let assignment = Assignment::from_fn(dfg, library, |n| {
        let class = dfg.node(n).class();
        chosen
            .iter()
            .find(|(c, _)| *c == class)
            .map(|&(_, v)| v)
            .expect("class coverage checked above")
    });

    // Schedule at the full latency budget for maximal sharing (minimum
    // base area leaves the most room for redundancy).
    let synth = Synthesizer::for_request(request)?;
    let minimum = synth.min_latency(&assignment)?;
    if minimum > bounds.latency {
        return Err(SynthesisError::NoSolution {
            reason: format!(
                "single-version critical path {minimum} exceeds latency bound {}",
                bounds.latency
            ),
        });
    }
    let (schedule, binding) = synth.schedule_and_bind(&assignment, bounds.latency.max(minimum))?;
    let area = binding.total_area(library);
    if area > bounds.area {
        return Err(SynthesisError::NoSolution {
            reason: format!(
                "single-version design needs area {area} > bound {}",
                bounds.area
            ),
        });
    }

    let replication = vec![1u32; binding.instance_count()];
    let mut design = Design::assemble(dfg, library, assignment, schedule, binding, replication);
    let moves =
        add_redundancy_with_model(&mut design, dfg, library, bounds.area, request.redundancy);
    let mut diagnostics = Diagnostics {
        redundancy_moves: moves,
        ..Diagnostics::default()
    };
    synth.harvest_timers(&mut diagnostics);
    diagnostics.wall_time_micros = span.elapsed_micros();
    Ok(SynthReport {
        design,
        diagnostics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::Bounds;
    use crate::flow;
    use rchls_dfg::OpKind;
    use rchls_dfg::{Dfg, DfgBuilder};

    /// The `"baseline"` strategy's design at `bounds`, through the
    /// registry.
    fn baseline(g: &Dfg, lib: &Library, bounds: Bounds) -> Result<Design, SynthesisError> {
        let strategy = flow::strategy("baseline").expect("built-in");
        strategy
            .run(&SynthRequest::new(g, lib, bounds))
            .map(|r| r.design)
    }

    #[test]
    fn baseline_versions_pick_type2_units() {
        let lib = Library::table1();
        let picks = baseline_versions(&lib);
        let name = |c: OpClass| {
            picks
                .iter()
                .find(|(pc, _)| *pc == c)
                .and_then(|&(_, v)| v)
                .map(|v| lib.version(v).name().to_owned())
                .unwrap()
        };
        assert_eq!(name(OpClass::Adder), "adder2");
        assert_eq!(name(OpClass::Multiplier), "mult2");
    }

    #[test]
    fn baseline_without_budget_matches_fixed_version_product() {
        let g = DfgBuilder::new("six")
            .ops(&["a", "b", "c", "d", "e", "f"], OpKind::Add)
            .dep("a", "b")
            .dep("b", "c")
            .dep("c", "d")
            .dep("d", "e")
            .dep("e", "f")
            .build()
            .unwrap();
        let lib = Library::table1();
        // Chain of 6 one-cycle type-2 adds: latency 6, one shared adder2
        // (area 2), no room for redundancy with Ad=2.
        let d = baseline(&g, &lib, Bounds::new(6, 2)).unwrap();
        assert_eq!(d.area, 2);
        assert!((d.reliability.value() - 0.969f64.powi(6)).abs() < 1e-12);
        assert_eq!(d.redundant_instance_count(), 0);
    }

    #[test]
    fn baseline_spends_leftover_area_on_redundancy() {
        let g = DfgBuilder::new("six")
            .ops(&["a", "b", "c", "d", "e", "f"], OpKind::Add)
            .dep("a", "b")
            .dep("b", "c")
            .dep("c", "d")
            .dep("d", "e")
            .dep("e", "f")
            .build()
            .unwrap();
        let lib = Library::table1();
        let tight = baseline(&g, &lib, Bounds::new(6, 2)).unwrap();
        let loose = baseline(&g, &lib, Bounds::new(6, 4)).unwrap();
        assert!(loose.reliability.value() > tight.reliability.value());
        assert!(loose.redundant_instance_count() >= 1);
        assert!(loose.area <= 4);
    }

    #[test]
    fn baseline_latency_infeasible() {
        let g = DfgBuilder::new("chain")
            .ops(&["a", "b", "c"], OpKind::Add)
            .dep("a", "b")
            .dep("b", "c")
            .build()
            .unwrap();
        let lib = Library::table1();
        let err = baseline(&g, &lib, Bounds::new(2, 99)).unwrap_err();
        assert!(matches!(err, SynthesisError::NoSolution { .. }));
    }

    #[test]
    fn baseline_area_infeasible() {
        let g = DfgBuilder::new("mul").op("m", OpKind::Mul).build().unwrap();
        let lib = Library::table1();
        // mult2 has area 4; bound of 3 is impossible for the baseline
        // (it cannot switch to the smaller mult1).
        let err = baseline(&g, &lib, Bounds::new(9, 3)).unwrap_err();
        assert!(matches!(err, SynthesisError::NoSolution { .. }));
    }
}
