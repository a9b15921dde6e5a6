//! End-to-end integration tests: the full pipeline (workload → library →
//! synthesis → schedule/binding validation → reliability) across crates.

use rc_hls::bind::bind_left_edge;
use rc_hls::core::{flow, Bounds, Design, SynthRequest, SynthesisError, Synthesizer};
use rc_hls::dfg::{Dfg, OpClass};
use rc_hls::relmath::serial_reliability;
use rc_hls::reslib::Library;
use rc_hls::sched::{asap, schedule_density};

/// The design the strategy registered under `id` synthesizes at `bounds`.
fn run(id: &str, dfg: &Dfg, library: &Library, bounds: Bounds) -> Result<Design, SynthesisError> {
    let strategy = flow::strategy(id).unwrap_or_else(|| panic!("{id} is not a strategy id"));
    strategy
        .run(&SynthRequest::new(dfg, library, bounds))
        .map(|report| report.design)
}

/// Representative feasible bounds per benchmark (FIR and EWF sit above
/// the paper's: see "Departures from the paper" in README.md).
fn bounds_for(name: &str) -> Bounds {
    match name {
        "figure4a" => Bounds::new(5, 4),
        "fir16" => Bounds::new(12, 8),
        "ewf" => Bounds::new(15, 10),
        "diffeq" => Bounds::new(6, 11),
        "ar-lattice" => Bounds::new(24, 14),
        "butterfly8" => Bounds::new(10, 16),
        "iir4" => Bounds::new(20, 14),
        other => panic!("no bounds for {other}"),
    }
}

#[test]
fn full_pipeline_on_every_benchmark() {
    let library = Library::table1();
    for (name, ctor) in rc_hls::workloads::all_benchmarks() {
        let dfg = ctor();
        let bounds = bounds_for(name);
        let design = Synthesizer::new(&dfg, &library)
            .synthesize(bounds)
            .unwrap_or_else(|e| panic!("{name} failed: {e}"));
        assert!(design.latency <= bounds.latency, "{name} latency");
        assert!(design.area <= bounds.area, "{name} area");
        // The schedule and binding must be internally consistent.
        let delays = design.assignment.delays(&dfg, &library);
        design.schedule.validate(&dfg, &delays).unwrap();
        design.binding.assert_valid(&dfg, &design.schedule, &delays);
        // The reported reliability must equal the recomputed product.
        let expect = serial_reliability(
            dfg.node_ids()
                .map(|n| library.version(design.assignment.version(n)).reliability()),
        );
        assert!(
            (design.reliability.value() - expect.value()).abs() < 1e-12,
            "{name} reliability mismatch"
        );
    }
}

#[test]
fn three_strategies_rank_consistently_on_diffeq() {
    // Tight bounds: reliability-centric beats the redundancy baseline;
    // combined dominates both (the paper's headline claim).
    let dfg = rc_hls::workloads::diffeq();
    let library = Library::table1();
    let bounds = Bounds::new(5, 11);
    let base = run("baseline", &dfg, &library, bounds).unwrap();
    let ours = run("ours", &dfg, &library, bounds).unwrap();
    let comb = run("combined", &dfg, &library, bounds).unwrap();
    assert!(
        ours.reliability.value() > base.reliability.value(),
        "ours {} must beat baseline {} at tight bounds",
        ours.reliability,
        base.reliability
    );
    assert!(comb.reliability.value() + 1e-12 >= ours.reliability.value());
    assert!(comb.reliability.value() + 1e-12 >= base.reliability.value());
}

#[test]
fn baseline_wins_with_loose_area_like_the_paper_observes() {
    // The paper's second finding: once the area bound is loose enough for
    // wholesale redundancy, the NMR baseline overtakes the pure
    // reliability-centric approach (Table 2, negative %Imprv cells).
    let dfg = rc_hls::workloads::fir16();
    let library = Library::table1();
    let bounds = Bounds::new(14, 24);
    let base = run("baseline", &dfg, &library, bounds).unwrap();
    let ours = run("ours", &dfg, &library, bounds).unwrap();
    assert!(
        base.reliability.value() > ours.reliability.value(),
        "baseline {} should overtake ours {} at loose area",
        base.reliability,
        ours.reliability
    );
    // ...and the combined approach recovers the lead.
    let comb = run("combined", &dfg, &library, bounds).unwrap();
    assert!(comb.reliability.value() + 1e-9 >= base.reliability.value());
}

#[test]
fn paper_pinned_values_diffeq_baseline() {
    // 0.969^11 = 0.70723: the paper's Table 2(c) Ref[3] value at (5, 11),
    // reproduced exactly by our baseline at the same bounds.
    let dfg = rc_hls::workloads::diffeq();
    let library = Library::table1();
    let base = run("baseline", &dfg, &library, Bounds::new(5, 11)).unwrap();
    assert!((base.reliability.value() - 0.70723).abs() < 5e-6);
}

#[test]
fn paper_pinned_values_fir_products() {
    // The FIR all-type-2 serial product the paper reports as 0.48467.
    let dfg = rc_hls::workloads::fir16();
    let library = Library::table1();
    let a2 = library.version_by_name("adder2").unwrap();
    let m2 = library.version_by_name("mult2").unwrap();
    let assign = rc_hls::bind::Assignment::from_fn(&dfg, &library, |n| {
        if dfg.node(n).class() == OpClass::Adder {
            a2
        } else {
            m2
        }
    });
    let r = assign.design_reliability(&library);
    assert!((r.value() - 0.48467).abs() < 5e-6);
}

#[test]
fn manual_pipeline_matches_synthesizer_components() {
    // Drive the scheduling + binding layers directly (as a downstream
    // user integrating custom passes would) and cross-check invariants.
    let dfg = rc_hls::workloads::ewf();
    let library = Library::table1();
    let assign = rc_hls::bind::Assignment::uniform(&dfg, &library).unwrap();
    let delays = assign.delays(&dfg, &library);
    let min = asap(&dfg, &delays).unwrap().latency();
    let schedule = schedule_density(&dfg, &delays, min + 4).unwrap();
    schedule.validate(&dfg, &delays).unwrap();
    let binding = bind_left_edge(&dfg, &schedule, &assign, &library);
    binding.assert_valid(&dfg, &schedule, &delays);
    // Left-edge instance counts per class match the schedule's peaks for a
    // single-version-per-class assignment.
    for class in OpClass::ALL {
        let peak = schedule.peak_usage(&dfg, &delays, class);
        let instances = binding
            .instances()
            .iter()
            .filter(|i| library.version(i.version).class() == class)
            .count() as u32;
        assert_eq!(peak, instances, "class {class}");
    }
}

#[test]
fn pipelined_synthesis_end_to_end() {
    let dfg = rc_hls::workloads::butterfly8();
    let library = Library::table1();
    let bounds = Bounds::new(14, 40);
    let d = run("pipelined@ii=4", &dfg, &library, bounds).expect("II=4 is feasible");
    assert!(d.latency <= bounds.latency && d.area <= bounds.area);
    let delays = d.assignment.delays(&dfg, &library);
    d.schedule.validate(&dfg, &delays).unwrap();
    // No unit may be double-booked modulo the initiation interval.
    for inst in d.binding.instances() {
        let mut used = [false; 4];
        for &n in &inst.nodes {
            let s = d.schedule.start(n);
            for t in s..s + delays.get(n).min(4) {
                let r = ((t - 1) % 4) as usize;
                assert!(!used[r], "residue {r} double-booked on a unit");
                used[r] = true;
            }
        }
    }
    // Tighter II costs area (or is infeasible), never the reverse.
    if let Ok(d2) = run("pipelined@ii=2", &dfg, &library, bounds) {
        assert!(d2.area >= d.area);
    }
}

#[test]
fn register_allocation_composes_with_synthesis() {
    let dfg = rc_hls::workloads::fir16();
    let library = Library::table1();
    let d = Synthesizer::new(&dfg, &library)
        .synthesize(Bounds::new(13, 8))
        .unwrap();
    let delays = d.assignment.delays(&dfg, &library);
    let regs = rc_hls::bind::bind_registers(&dfg, &d.schedule, &delays);
    regs.assert_valid();
    // Sanity: register pressure is bounded by live values, and at least
    // the widest join (2 values) plus the output must coexist.
    assert!(regs.register_count() >= 2);
    assert!(regs.register_count() <= dfg.node_count());
}

#[test]
fn mission_time_derating_amplifies_the_gap() {
    // Longer exposure widens the advantage of the reliability-centric
    // approach over the single-version baseline.
    let dfg = rc_hls::workloads::diffeq();
    let short = Library::table1();
    let long = short.at_mission_time(5.0);
    let bounds = Bounds::new(5, 11);
    let gap = |lib: &Library| {
        let ours = run("ours", &dfg, lib, bounds).unwrap();
        let base = run("baseline", &dfg, lib, bounds).unwrap();
        ours.reliability.value() - base.reliability.value()
    };
    assert!(gap(&long) > gap(&short));
}

#[test]
fn render_outputs_are_paper_shaped() {
    let dfg = rc_hls::workloads::figure4a();
    let library = Library::table1();
    let design = Synthesizer::new(&dfg, &library)
        .synthesize(Bounds::new(5, 4))
        .unwrap();
    let text = design.render(&dfg, &library);
    assert!(text.contains("Step  1:"));
    assert!(text.contains("reliability ="));
    assert!(text.contains("u0:"));
}
