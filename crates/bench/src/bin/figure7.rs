//! Regenerates **Figure 7**: the 16-point FIR filter scheduled (a) with a
//! single version per operation type and (b) with the reliability-centric
//! approach, under the tightest consistent bounds.
//!
//! The paper uses Ld = 11, Ad = 8 — infeasible under its own Table-1
//! areas (see "Departures from the paper" in README.md) — so this binary
//! reports the same comparison at the shifted knee Ld = 12, Ad = 8.

use rchls_bind::{bind_left_edge, Assignment};
use rchls_core::{Bounds, Synthesizer};
use rchls_dfg::OpClass;
use rchls_reslib::Library;
use rchls_sched::schedule_density;

fn main() {
    let dfg = rchls_workloads::fir16();
    let library = Library::table1();
    let bounds = Bounds::new(12, 8);

    // (a) Single version per type: type-2 adders and multipliers.
    let a2 = library
        .version_by_name("adder2")
        .expect("table1 has adder2");
    let m2 = library.version_by_name("mult2").expect("table1 has mult2");
    let single = Assignment::from_fn(&dfg, &library, |n| {
        if dfg.node(n).class() == OpClass::Adder {
            a2
        } else {
            m2
        }
    });
    let delays = single.delays(&dfg, &library);
    let schedule =
        schedule_density(&dfg, &delays, bounds.latency).expect("single-version L=12 feasible");
    let binding = bind_left_edge(&dfg, &schedule, &single, &library);
    println!("== Figure 7(a): one implementation per operator type ==");
    println!("{}", schedule.render(&dfg));
    println!(
        "area = {} units, reliability = {}  (paper: 8 units, 0.48467)\n",
        binding.total_area(&library),
        single.design_reliability(&library)
    );

    // (b) Reliability-centric.
    let design = Synthesizer::new(&dfg, &library)
        .synthesize(bounds)
        .expect("figure 7 shifted bounds are feasible");
    println!("== Figure 7(b): reliability-centric approach ==");
    println!("{}", design.render(&dfg, &library));
    let single_r = single.design_reliability(&library).value();
    println!(
        "improvement over single-version: {:+.2}%  (paper: 0.78943 vs 0.48467, +62.9%)",
        (design.reliability.value() - single_r) / single_r * 100.0
    );
}
