//! Exploration-engine performance: the multi-benchmark sweep behind the
//! paper's evaluation at increasing worker counts (the speedup the
//! engine's executor buys), cache effectiveness on repeated sweeps, and
//! Pareto-archive insertion throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rchls_bench::paper_benchmarks;
use rchls_core::{Engine, FlowSpec, RedundancyModel};
use rchls_explorer::{explore, FrontierPoint, ParetoArchive};
use rchls_reslib::Library;
use std::hint::black_box;

/// The full three-benchmark, three-strategy sweep at 1, 2, 4, and 8
/// workers, each iteration on a fresh engine — the headline scaling
/// curve.
fn bench_sweep_jobs(c: &mut Criterion) {
    let tasks = paper_benchmarks();
    let (flow, model) = (FlowSpec::default(), RedundancyModel::default());
    let mut group = c.benchmark_group("multi-benchmark-sweep");
    group.sample_size(10);
    for jobs in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("jobs", jobs), &jobs, |b, &jobs| {
            b.iter(|| {
                let engine = Engine::new(Library::table1()).with_jobs(jobs);
                black_box(explore(&engine, &tasks, &flow, model).unwrap())
            })
        });
    }
    group.finish();
}

/// The same sweep against a warm engine: the cost of a fully repeated
/// exploration (fingerprint lookups only — no synthesis).
fn bench_warm_cache(c: &mut Criterion) {
    let tasks = paper_benchmarks();
    let (flow, model) = (FlowSpec::default(), RedundancyModel::default());
    let engine = Engine::new(Library::table1()).with_jobs(4);
    // Warm it once.
    let _ = explore(&engine, &tasks, &flow, model).unwrap();
    c.bench_function("multi-benchmark-sweep/warm-cache", |b| {
        b.iter(|| black_box(explore(&engine, &tasks, &flow, model).unwrap()))
    });
}

/// Pareto-archive maintenance: inserting a deterministic stream of
/// mostly-dominated points.
fn bench_archive_insert(c: &mut Criterion) {
    // A deterministic point cloud with a thin frontier.
    let points: Vec<FrontierPoint> = (0..2000u32)
        .map(|i| {
            let latency = 1 + (i * 7919) % 97;
            let area = 1 + (i * 6271) % 89;
            let reliability = 1.0 / (1.0 + f64::from(latency) * f64::from(area) / 500.0)
                + f64::from(i % 13) / 1000.0;
            FrontierPoint {
                benchmark: format!("b{}", i % 3),
                strategy: ["baseline", "ours", "combined"][(i % 3) as usize].to_owned(),
                latency_bound: latency,
                area_bound: area,
                latency,
                area,
                reliability,
            }
        })
        .collect();
    c.bench_function("pareto-archive/insert-2000", |b| {
        b.iter(|| {
            let mut archive = ParetoArchive::new();
            for p in &points {
                archive.insert(p.clone());
            }
            black_box(archive.len())
        })
    });
}

criterion_group!(
    benches,
    bench_sweep_jobs,
    bench_warm_cache,
    bench_archive_insert
);
criterion_main!(benches);
