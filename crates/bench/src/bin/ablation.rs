//! Quality ablation of the default flow's departure from the paper's
//! Figure-6 pseudo-code (see "Departures from the paper" in README.md):
//! how much reliability each engine ingredient buys, per benchmark, at
//! the tightest Table-2 bounds.
//!
//! Rows: strict Figure-6 greedy (the paper's pseudo-code), + portfolio
//! starts & refinement (the default engine), scheduler and binder
//! alternatives, and the victim-selection policy — every variant named
//! purely by flow-registry pass ids.

use rchls_core::{Bounds, FlowSpec, Synthesizer};
use rchls_reslib::Library;

fn main() {
    let library = Library::table1();
    let cases: Vec<(&str, rchls_dfg::Dfg, Bounds)> = vec![
        ("fir16", rchls_workloads::fir16(), Bounds::new(12, 8)),
        ("ewf", rchls_workloads::ewf(), Bounds::new(15, 10)),
        ("diffeq", rchls_workloads::diffeq(), Bounds::new(5, 11)),
    ];
    let flows: Vec<(&str, FlowSpec)> = vec![
        ("figure6-strict (paper)", FlowSpec::paper()),
        ("portfolio+refine (default)", FlowSpec::default()),
        (
            "force-directed scheduler",
            FlowSpec::default().with_scheduler("force-directed"),
        ),
        (
            "coloring binder",
            FlowSpec::default().with_binder("coloring"),
        ),
        (
            "min-reliability-loss victim",
            FlowSpec::default().with_victim("min-reliability-loss"),
        ),
    ];
    println!("== engine ablation: achieved reliability at tight bounds ==\n");
    print!("{:<28}", "configuration");
    for (name, _, b) in &cases {
        print!(" {:>16}", format!("{name} ({},{})", b.latency, b.area));
    }
    println!();
    for (label, flow) in &flows {
        print!("{label:<28}");
        for (_, dfg, bounds) in &cases {
            let synth =
                Synthesizer::with_flow(dfg, &library, flow).expect("built-in flow ids resolve");
            match synth.synthesize(*bounds) {
                Ok(d) => print!(" {:>16}", d.reliability.to_string()),
                Err(_) => print!(" {:>16}", "no solution"),
            }
        }
        println!();
    }
    println!(
        "\nreading: the portfolio/refinement extension is what closes the gap\n\
         between the printed Figure-6 pseudo-code and the paper's reported\n\
         numbers; scheduler/binder/victim choices matter far less."
    );
}
