//! Regenerates **Figure 8**: the FIR filter's reliability as a function of
//! (a) the latency bound at fixed area and (b) the area bound at fixed
//! latency, under the reliability-centric approach, computed through the
//! session engine.

use rchls_bench::{figure8a_sweep, figure8b_sweep};
use rchls_core::{Engine, FlowSpec, RedundancyModel};
use rchls_explorer::{explore, ExploreTask};
use rchls_reslib::Library;

fn bar(r: Option<f64>) -> String {
    match r {
        Some(v) => {
            let width = (v * 50.0).round() as usize;
            format!("{v:.5} {}", "#".repeat(width))
        }
        None => "   -    (infeasible)".to_owned(),
    }
}

fn main() {
    let (area, latencies) = figure8a_sweep();
    let (latency, areas) = figure8b_sweep();
    // Each curve fixes one bound, so the sweep's feasibility inheritance
    // runs along the other bound alone.
    let tasks = [
        ExploreTask::new(
            "builtin:fir16",
            latencies.iter().map(|&l| (l, area)).collect(),
        ),
        ExploreTask::new(
            "builtin:fir16",
            areas.iter().map(|&a| (latency, a)).collect(),
        ),
    ];
    let exploration = explore(
        &Engine::new(Library::table1()),
        &tasks,
        &FlowSpec::default(),
        RedundancyModel::default(),
    )
    .expect("the FIR filter resolves under the default flow");
    let [by_latency, by_area] = &exploration.sweeps[..] else {
        unreachable!("one sweep per task");
    };

    println!("== Figure 8(a): reliability vs latency bound (Ad = {area}) ==\n");
    println!("{:>8}  reliability", "Ld");
    for row in &by_latency.rows {
        println!("{:>8}  {}", row.latency_bound, bar(row.ours));
    }

    println!("\n== Figure 8(b): reliability vs area bound (Ld = {latency}) ==\n");
    println!("{:>8}  reliability", "Ad");
    for row in &by_area.rows {
        println!("{:>8}  {}", row.area_bound, bar(row.ours));
    }

    println!(
        "\npaper shape: both curves rise monotonically toward the all-\n\
         most-reliable product (0.999^23 = 0.97727) as the bound loosens."
    );
}
