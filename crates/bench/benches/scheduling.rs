//! Scheduler performance and ablation: the paper's partition-density
//! scheduler vs force-directed scheduling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rchls_dfg::OpClass;
use rchls_sched::{alap, asap, schedule_density, schedule_force_directed, Delays};
use rchls_workloads::{random_layered_dfg, RandomDfgConfig};
use std::hint::black_box;

fn bench_schedulers(c: &mut Criterion) {
    let dfg = rchls_workloads::ewf();
    let delays = Delays::from_fn(&dfg, |n| {
        if dfg.node(n).class() == OpClass::Multiplier {
            2
        } else {
            1
        }
    });
    let min = asap(&dfg, &delays).unwrap().latency();
    let latency = min + 3;
    let mut group = c.benchmark_group("scheduler-ewf");
    group.bench_function("asap", |b| b.iter(|| black_box(asap(&dfg, &delays)).ok()));
    group.bench_function("alap", |b| {
        b.iter(|| black_box(alap(&dfg, &delays, latency)).ok())
    });
    group.bench_function("density", |b| {
        b.iter(|| black_box(schedule_density(&dfg, &delays, latency)).ok())
    });
    group.bench_function("force-directed", |b| {
        b.iter(|| black_box(schedule_force_directed(&dfg, &delays, latency)).ok())
    });
    group.finish();
}

fn bench_density_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("density-scaling");
    for nodes in [20usize, 40, 80, 160] {
        let dfg = random_layered_dfg(&RandomDfgConfig {
            nodes,
            layers: 8,
            seed: 11,
            ..Default::default()
        });
        let delays = Delays::uniform(&dfg, 1);
        let min = asap(&dfg, &delays).unwrap().latency();
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &dfg, |b, dfg| {
            b.iter(|| black_box(schedule_density(dfg, &delays, min + 4)).ok())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_schedulers, bench_density_scaling);
criterion_main!(benches);
