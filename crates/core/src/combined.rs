//! The paper's unified approach: reliability-centric version selection
//! followed by redundancy on the leftover area, the algorithm behind
//! [`crate::flow::Combined`].

use crate::error::SynthesisError;
use crate::flow::{SynthReport, SynthRequest};
use crate::redundancy::add_redundancy_with_model;

/// The body of the `"combined"` strategy ([`Combined`]): its `ours` part
/// plus leftover-area redundancy, in a portfolio with its `baseline`
/// part. Both parts come from [`SynthRequest::part`], so under an engine
/// they are session memo reads.
///
/// # Errors
///
/// Returns the `ours` part's error when neither branch finds a feasible
/// design.
///
/// [`Combined`]: crate::flow::Combined
pub(crate) fn combined_report(request: &SynthRequest<'_>) -> Result<SynthReport, SynthesisError> {
    let span = rchls_telemetry::span!(timed: "strategy.combined");
    let ours = request.part("ours").map(|mut report| {
        report.diagnostics.redundancy_moves += add_redundancy_with_model(
            &mut report.design,
            request.dfg,
            request.library,
            request.bounds.area,
            request.redundancy,
        );
        report
    });
    let baseline = request.part("baseline");
    let mut report = match (ours, baseline) {
        (Ok(a), Ok(b)) => {
            if a.design.reliability.value() >= b.design.reliability.value() {
                let mut a = a;
                a.diagnostics.absorb(&b.diagnostics);
                a
            } else {
                let mut b = b;
                b.diagnostics.absorb(&a.diagnostics);
                b
            }
        }
        (Ok(a), Err(_)) => a,
        (Err(_), Ok(b)) => b,
        (Err(e), Err(_)) => return Err(e),
    };
    report.diagnostics.wall_time_micros = span.elapsed_micros();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::Bounds;
    use crate::design::Design;
    use crate::flow;
    use crate::synth::Synthesizer;
    use rchls_dfg::{Dfg, DfgBuilder, OpKind};
    use rchls_reslib::Library;

    /// The `"combined"` strategy's design at `bounds`, through the
    /// registry.
    fn combined(g: &Dfg, lib: &Library, bounds: Bounds) -> Design {
        let strategy = flow::strategy("combined").expect("built-in");
        strategy
            .run(&SynthRequest::new(g, lib, bounds))
            .expect("feasible")
            .design
    }

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
    fn combined_is_at_least_as_reliable_as_ours() {
        let g = figure4a();
        let lib = Library::table1();
        for (latency, area) in [(5u32, 4u32), (5, 6), (6, 5), (8, 8)] {
            let bounds = Bounds::new(latency, area);
            let ours = Synthesizer::new(&g, &lib).synthesize(bounds).unwrap();
            let comb = combined(&g, &lib, bounds);
            assert!(
                comb.reliability.value() + 1e-12 >= ours.reliability.value(),
                "combined regressed at {bounds}"
            );
            assert!(comb.area <= area);
            assert!(comb.latency <= latency);
        }
    }

    #[test]
    fn combined_uses_leftover_area() {
        let g = figure4a();
        let lib = Library::table1();
        let bounds = Bounds::new(8, 8);
        let ours = Synthesizer::new(&g, &lib).synthesize(bounds).unwrap();
        let comb = combined(&g, &lib, bounds);
        // Redundancy moves are only committed when they strictly improve
        // reliability, so any extra area implies a strictly better design.
        assert!(comb.area >= ours.area);
        if comb.area > ours.area {
            assert!(comb.reliability.value() > ours.reliability.value());
        } else {
            assert!((comb.reliability.value() - ours.reliability.value()).abs() < 1e-12);
        }
    }
}
