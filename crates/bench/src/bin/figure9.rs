//! Regenerates **Figure 9**: per-benchmark average reliabilities of the
//! three strategies over the Table-2 grids, computed through the
//! session engine's worker pool.

use rchls_bench::paper_benchmarks;
use rchls_core::explore::averages;
use rchls_core::{Engine, FlowSpec, RedundancyModel};
use rchls_explorer::explore;
use rchls_reslib::Library;

fn bar(v: f64) -> String {
    format!("{v:.5} {}", "#".repeat((v * 50.0).round() as usize))
}

fn main() {
    let tasks = paper_benchmarks();
    let exploration = explore(
        &Engine::new(Library::table1()),
        &tasks,
        &FlowSpec::default(),
        RedundancyModel::default(),
    )
    .expect("the paper benchmarks resolve under the default flow");
    println!("== Figure 9: average reliability per benchmark and strategy ==\n");
    for sweep in &exploration.sweeps {
        let (baseline, ours, combined) = averages(&sweep.rows);
        println!("{}:", sweep.benchmark);
        println!("  Ref[3]    {}", bar(baseline));
        println!("  ours      {}", bar(ours));
        println!("  combined  {}", bar(combined));
        if baseline > 0.0 {
            println!(
                "  ours vs Ref[3]: {:+.2}%   combined vs Ref[3]: {:+.2}%",
                (ours - baseline) / baseline * 100.0,
                (combined - baseline) / baseline * 100.0
            );
        }
        println!();
    }
    println!(
        "paper shape: ours and combined above Ref[3] on every benchmark\n\
         (paper: +21.9/+9.7/+9.2% ours, +30.3/+28.6/+10.3% combined)."
    );
}
