//! Executor determinism and cache-effectiveness guarantees on the real
//! paper benchmarks.

use rchls_core::explore::sweep;
use rchls_core::{Engine, FlowSpec, RedundancyModel};
use rchls_dfg::Dfg;
use rchls_explorer::{explore, export, Exploration, ExploreTask};
use rchls_reslib::Library;

/// The Table-2-style grid each benchmark sweeps in these tests (a
/// tight-to-loose 2×3 block keeps debug-mode runtime reasonable).
fn grid_for(name: &str) -> Vec<(u32, u32)> {
    match name {
        "fir16" => vec![(12, 8), (12, 12), (13, 8), (13, 16), (14, 12), (11, 6)],
        "ewf" => vec![(14, 8), (14, 11), (15, 10), (16, 8), (16, 11), (13, 5)],
        "diffeq" => vec![(5, 11), (5, 15), (6, 13), (7, 7), (7, 11), (4, 4)],
        other => panic!("no grid for {other}"),
    }
}

fn benchmark(name: &str) -> Dfg {
    rchls_workloads::all_benchmarks()
        .into_iter()
        .find(|(n, _)| *n == name)
        .expect("benchmark is registered")
        .1()
}

fn engine(jobs: usize) -> Engine {
    Engine::new(Library::table1()).with_jobs(jobs)
}

fn explore_grids(engine: &Engine, tasks: &[(&str, Vec<(u32, u32)>)]) -> Exploration {
    let tasks: Vec<ExploreTask> = tasks
        .iter()
        .map(|(name, grid)| ExploreTask::new(format!("builtin:{name}"), grid.clone()))
        .collect();
    explore(
        engine,
        &tasks,
        &FlowSpec::default(),
        RedundancyModel::default(),
    )
    .expect("builtin specs under the default flow")
}

fn explore_benchmarks(engine: &Engine, names: &[&str]) -> Exploration {
    let tasks: Vec<(&str, Vec<(u32, u32)>)> = names.iter().map(|&n| (n, grid_for(n))).collect();
    explore_grids(engine, &tasks)
}

/// Acceptance: the parallel frontier has identical membership to the
/// serial one, and the parallel rows equal `rchls_core::explore::sweep`,
/// on fir16, ewf, and diffeq.
#[test]
fn parallel_frontier_matches_serial_on_all_paper_benchmarks() {
    for name in ["fir16", "ewf", "diffeq"] {
        let serial = explore_benchmarks(&engine(1), &[name]);
        let parallel = explore_benchmarks(&engine(4), &[name]);
        assert_eq!(
            serial.frontier.points(),
            parallel.frontier.points(),
            "{name}: frontier membership diverged between 1 and 4 jobs"
        );
        assert_eq!(serial.sweeps, parallel.sweeps, "{name}: rows diverged");
        // And both equal the original serial sweep driver.
        let reference = sweep(&benchmark(name), &Library::table1(), &grid_for(name));
        assert_eq!(
            serial.sweeps[0].rows, reference,
            "{name}: drifted from core::explore::sweep"
        );
    }
}

/// The engine-driven rows equal the uncached serial oracle at 1, 2 and
/// 8 workers, on a grid that mixes feasible and infeasible points.
#[test]
fn rows_match_the_serial_oracle_at_any_worker_count() {
    let grid = vec![(5u32, 11u32), (6, 13), (7, 9), (4, 2)];
    let serial = sweep(&benchmark("diffeq"), &Library::table1(), &grid);
    for jobs in [1usize, 2, 8] {
        let out = explore_grids(&engine(jobs), &[("diffeq", grid.clone())]);
        assert_eq!(out.sweeps[0].rows, serial, "jobs = {jobs}");
    }
}

/// Determinism guard: `--jobs 8` produces byte-identical JSON to
/// `--jobs 1` on fir16 and ewf.
#[test]
fn json_export_is_byte_identical_across_job_counts() {
    for name in ["fir16", "ewf"] {
        let one = explore_benchmarks(&engine(1), &[name]);
        let eight = explore_benchmarks(&engine(8), &[name]);
        assert_eq!(
            export::frontier_json(&one.frontier),
            export::frontier_json(&eight.frontier),
            "{name}: frontier JSON diverged between 1 and 8 jobs"
        );
        assert_eq!(
            export::exploration_json(&one),
            export::exploration_json(&eight),
            "{name}: exploration JSON diverged between 1 and 8 jobs"
        );
    }
}

/// Cache guarantee: repeating a sweep against a warm engine performs
/// zero new synthesis calls, and overlapping grids only pay for new
/// points.
#[test]
fn repeated_sweep_synthesizes_nothing_new() {
    let engine = engine(2);
    let first = explore_benchmarks(&engine, &["diffeq"]);
    let misses_after_first = engine.cache_stats().misses;
    assert!(misses_after_first > 0);

    let second = explore_benchmarks(&engine, &["diffeq"]);
    assert_eq!(first, second, "cached rerun changed the result");
    assert_eq!(
        engine.cache_stats().misses,
        misses_after_first,
        "a repeated sweep must be answered entirely from the cache"
    );
    assert!(engine.cache_stats().hits >= misses_after_first);

    // A superset grid pays only for the genuinely new points.
    let mut grid = grid_for("diffeq");
    grid.push((6, 15));
    let _ = explore_grids(&engine, &[("diffeq", grid)]);
    assert_eq!(
        engine.cache_stats().misses,
        misses_after_first + 3,
        "one new grid point = exactly three new synthesis runs"
    );
}
