//! Synthesis-engine performance: end-to-end runtime per benchmark and
//! strategy, plus scaling on random layered DFGs, plus ablations of the
//! default flow against the paper's strict Figure 6 (see "Departures
//! from the paper" in README.md) and of the victim policy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rchls_core::{flow, Bounds, FlowSpec, SynthRequest, Synthesizer};
use rchls_reslib::Library;
use rchls_workloads::{random_layered_dfg, RandomDfgConfig};
use std::hint::black_box;

fn paper_benchmark_bounds() -> Vec<(&'static str, rchls_dfg::Dfg, Bounds)> {
    vec![
        ("fir16", rchls_workloads::fir16(), Bounds::new(12, 8)),
        ("ewf", rchls_workloads::ewf(), Bounds::new(15, 10)),
        ("diffeq", rchls_workloads::diffeq(), Bounds::new(6, 11)),
    ]
}

fn bench_strategies(c: &mut Criterion) {
    let library = Library::table1();
    let mut group = c.benchmark_group("strategy");
    group.sample_size(10);
    for (name, dfg, bounds) in paper_benchmark_bounds() {
        group.bench_with_input(BenchmarkId::new("ours", name), &dfg, |b, dfg| {
            b.iter(|| black_box(Synthesizer::new(dfg, &library).synthesize(black_box(bounds))).ok())
        });
        for id in ["baseline", "combined"] {
            let strategy = flow::strategy(id).expect("built-in");
            group.bench_with_input(BenchmarkId::new(id, name), &dfg, |b, dfg| {
                b.iter(|| {
                    black_box(strategy.run(&SynthRequest::new(dfg, &library, black_box(bounds))))
                        .ok()
                })
            });
        }
    }
    group.finish();
}

fn bench_scaling(c: &mut Criterion) {
    let library = Library::table1();
    let mut group = c.benchmark_group("scaling");
    group.sample_size(10);
    for nodes in [10usize, 20, 40] {
        let dfg = random_layered_dfg(&RandomDfgConfig {
            nodes,
            layers: 6,
            seed: 7,
            ..Default::default()
        });
        // Loose-ish bounds so every size is feasible.
        let bounds = Bounds::new(3 * nodes as u32, 2 * nodes as u32);
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &dfg, |b, dfg| {
            b.iter(|| black_box(Synthesizer::new(dfg, &library).synthesize(bounds)).ok())
        });
    }
    group.finish();
}

fn bench_ablations(c: &mut Criterion) {
    let library = Library::table1();
    let dfg = rchls_workloads::fir16();
    let bounds = Bounds::new(12, 8);
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);
    let cases = [
        ("paper-strict-figure6", FlowSpec::paper()),
        ("portfolio-default", FlowSpec::default()),
        (
            "victim-min-reliability-loss",
            FlowSpec::default().with_victim("min-reliability-loss"),
        ),
    ];
    for (name, flow) in cases {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    Synthesizer::with_flow(&dfg, &library, &flow)
                        .expect("built-in flow ids resolve")
                        .synthesize(bounds),
                )
                .ok()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_strategies, bench_scaling, bench_ablations);
criterion_main!(benches);
