//! Pipelined synthesis: trade throughput (initiation interval) against
//! area and reliability on the butterfly workload — the pipelined half of
//! the paper's "both pipelined and non-pipelined data-paths" claim.
//!
//! Run with `cargo run --release --example pipelined`.

use rc_hls::core::{flow, Bounds, SynthRequest};
use rc_hls::reslib::Library;

fn main() {
    let dfg = rc_hls::workloads::butterfly8();
    let library = Library::table1();
    let bounds = Bounds::new(14, 40);
    println!(
        "benchmark: {} ({} ops), bounds: {bounds}\n",
        dfg.name(),
        dfg.node_count()
    );
    println!(
        "{:>4} {:>10} {:>6} {:>12}   note",
        "II", "throughput", "area", "reliability"
    );
    let request = SynthRequest::new(&dfg, &library, bounds);
    for ii in [1u32, 2, 3, 4, 7, 14] {
        let strategy = flow::strategy(&format!("pipelined@ii={ii}")).expect("parametric id");
        match strategy.run(&request).map(|report| report.design) {
            Ok(d) => println!(
                "{ii:>4} {:>10} {:>6} {:>12}   {}",
                format!("1/{ii} cyc"),
                d.area,
                d.reliability.to_string(),
                if ii == bounds.latency {
                    "(= non-pipelined)"
                } else {
                    ""
                }
            ),
            Err(e) => println!(
                "{ii:>4} {:>10}      -            -   {e}",
                format!("1/{ii} cyc")
            ),
        }
    }
    println!(
        "\nreading: smaller II folds more operations onto each residue, so\n\
         more (or faster, less reliable) units are needed — reliability and\n\
         area both degrade as throughput rises."
    );
}
