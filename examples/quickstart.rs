//! Quickstart: synthesize the paper's 16-point FIR filter under latency
//! and area bounds and inspect the resulting design.
//!
//! Run with `cargo run --release --example quickstart`.

use rc_hls::core::{flow, Bounds, SynthRequest, Synthesizer};
use rc_hls::reslib::Library;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The 16-point symmetric FIR filter: 15 additions, 8 multiplications.
    let dfg = rc_hls::workloads::fir16();
    // The paper's Table-1 library: three adders, two multipliers, each a
    // different (area, delay, reliability) trade-off.
    let library = Library::table1();

    println!(
        "benchmark: {} ({} operations)",
        dfg.name(),
        dfg.node_count()
    );
    println!("library:");
    for (_, version) in library.iter() {
        println!("  {version}");
    }

    // Ask for the most reliable design within 12 cycles and 8 area units.
    let bounds = Bounds::new(12, 8);
    let design = Synthesizer::new(&dfg, &library).synthesize(bounds)?;

    println!("\nsynthesized under {bounds}:");
    println!("{}", design.render(&dfg, &library));

    // Compare with the single-version alternative a conventional flow
    // would pick (everything on the fast type-2 units).
    let baseline = flow::strategy("baseline").expect("built-in strategy");
    let single = baseline
        .run(&SynthRequest::new(&dfg, &library, bounds))?
        .design;
    println!(
        "single-version + redundancy baseline reliability: {}",
        single.reliability
    );
    println!(
        "reliability-centric improvement: {:+.2}%",
        (design.reliability.value() - single.reliability.value()) / single.reliability.value()
            * 100.0
    );
    Ok(())
}
