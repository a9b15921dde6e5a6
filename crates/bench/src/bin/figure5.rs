//! Regenerates **Figure 5**: two schedules of the Figure 4(a) six-adder
//! example under Ld = 5, Ad = 4 — the single-version design (a) versus
//! the reliability-centric design (b).

use rchls_bind::{bind_left_edge, Assignment};
use rchls_core::{Bounds, Synthesizer};
use rchls_reslib::Library;
use rchls_sched::schedule_density;

fn main() {
    let dfg = rchls_workloads::figure4a();
    let library = Library::table1();
    let bounds = Bounds::new(5, 4);

    // (a) Single-version design: type-2 adders only, as in the paper.
    let a2 = library
        .version_by_name("adder2")
        .expect("table1 has adder2");
    let single = Assignment::from_fn(&dfg, &library, |_| a2);
    let delays = single.delays(&dfg, &library);
    let schedule = schedule_density(&dfg, &delays, bounds.latency).expect("L=5 is feasible");
    let binding = bind_left_edge(&dfg, &schedule, &single, &library);
    println!("== Figure 5(a): adders of type 2 only ==");
    println!("{}", schedule.render(&dfg));
    println!(
        "area = {} units, reliability = {}  (paper: 4 units, 0.82783)\n",
        binding.total_area(&library),
        single.design_reliability(&library)
    );

    // (b) Reliability-centric design at the same bounds.
    let design = Synthesizer::new(&dfg, &library)
        .synthesize(bounds)
        .expect("figure 5 bounds are feasible");
    println!("== Figure 5(b): reliability-centric selection ==");
    println!("{}", design.render(&dfg, &library));
    println!(
        "paper reports 0.90713 with one adder1 + one adder2 (area 3); that\n\
         allocation cannot execute the graph's D/E pair concurrently, so the\n\
         consistent optimum at (5, 4) is the all-type-2 design — see\n\
         \"Departures from the paper\" in README.md. Loosening the latency\n\
         bound by one cycle lets the mixed design win, which is the paper's\n\
         actual point:"
    );
    let relaxed = Synthesizer::new(&dfg, &library)
        .synthesize(Bounds::new(6, 4))
        .expect("relaxed bounds are feasible");
    println!(
        "\n== Ld = 6, Ad = 4: mixed versions beat any single version ==\n{}",
        relaxed.render(&dfg, &library)
    );
}
