//! Regenerates **Table 2**: the three-strategy comparison — Ref \[3\]
//! (NMR baseline), the reliability-centric approach, and the combined
//! scheme — over a 3×3 bound grid for each of the FIR, EWF and DiffEq
//! benchmarks.
//!
//! All three grids run through one session engine (one worker pool,
//! shared synthesis cache); the output is byte-identical to the serial
//! sweeps.

use rchls_bench::paper_benchmarks;
use rchls_core::explore::format_table;
use rchls_core::{Engine, FlowSpec, RedundancyModel};
use rchls_explorer::explore;
use rchls_reslib::Library;

fn main() {
    let engine = Engine::new(Library::table1());
    let tasks = paper_benchmarks();
    let exploration = explore(
        &engine,
        &tasks,
        &FlowSpec::default(),
        RedundancyModel::default(),
    )
    .expect("the paper benchmarks resolve under the default flow");
    for (task, sweep) in tasks.iter().zip(&exploration.sweeps) {
        let label = match sweep.benchmark.as_str() {
            "fir16" => "Table 2(a): FIR filter",
            "ewf" => "Table 2(b): elliptic wave filter",
            "diffeq" => "Table 2(c): differential equation solver",
            other => other,
        };
        let ops = engine
            .workload(&task.workload)
            .expect("resolved by explore")
            .dfg
            .node_count();
        println!("== {label} ({ops} ops) ==\n");
        println!("{}", format_table(&sweep.rows));
    }
    println!(
        "paper shape: positive %Imprv at tight bounds, sign flips once the\n\
         area bound is loose enough for wholesale redundancy, and the\n\
         combined column dominating Ref [3] everywhere."
    );
    println!(
        "\n[{} synthesis runs across {} workers; {} Pareto-optimal designs]",
        engine.cache_stats().misses,
        engine.jobs(),
        exploration.frontier.len()
    );
}
