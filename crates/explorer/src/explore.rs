//! High-level exploration: turn `(benchmark × bounds × strategy)` grids
//! into engine jobs, assemble sweep tables, and archive the Pareto
//! frontier.
//!
//! Every sweep here — [`explore`] and [`crate::explore_shard`] —
//! synthesizes only through [`Engine::synth_batch`], and strategies are
//! named by registry id ([`TABLE2`]), so out-of-tree strategies sweep
//! exactly like built-ins. Through an engine with a
//! [`ResultStore`](rchls_store::ResultStore) attached, each point
//! persists as soon as it is computed, so a killed sweep rerun over the
//! same store synthesizes only the points that never landed.

use crate::pareto::{FrontierPoint, ParetoArchive};
use rchls_core::engine::InternedWorkload;
use rchls_core::explore::{inherit, SweepRow, TABLE2};
use rchls_core::{Engine, EngineError, FlowSpec, RedundancyModel, SynthJob, MAX_LATENCY};
use rchls_dfg::Dfg;
use rchls_reslib::Library;
use serde::{Deserialize, Serialize};

/// One benchmark to explore: a workload spec plus its `(Ld, Ad)` bound
/// grid.
#[derive(Debug, Clone)]
pub struct ExploreTask {
    /// The workload spec (`builtin:fir16`, `random:64x8@7`,
    /// `file:path.dfg`, or any registered scheme), resolved through
    /// [`Engine::workload`]. Sweep artifacts name the benchmark after the
    /// graph and echo the canonical spec, so randomized runs are
    /// reproducible from their reports.
    pub workload: String,
    /// The `(latency, area)` bound pairs to sweep.
    pub grid: Vec<(u32, u32)>,
}

impl ExploreTask {
    /// Bundles a workload spec with its grid.
    #[must_use]
    pub fn new(workload: impl Into<String>, grid: Vec<(u32, u32)>) -> ExploreTask {
        ExploreTask {
            workload: workload.into(),
            grid,
        }
    }
}

/// The full result of an exploration run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Exploration {
    /// Per-benchmark Table-2-style rows (feasibility-inherited, carrying
    /// per-strategy diagnostics), in task order.
    pub sweeps: Vec<BenchmarkSweep>,
    /// The non-dominated frontier over every synthesized design.
    pub frontier: ParetoArchive,
}

/// One benchmark's sweep rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkSweep {
    /// Benchmark name.
    pub benchmark: String,
    /// The canonical workload spec the benchmark was resolved from.
    pub workload: Option<String>,
    /// Sweep rows in grid order.
    pub rows: Vec<SweepRow>,
}

/// Checks `flow` and every grid's latency bounds (against
/// [`MAX_LATENCY`]) and resolves every task's workload through `engine`:
/// every input error a sweep can have, found before any synthesis.
pub(crate) fn resolve(
    engine: &Engine,
    tasks: &[ExploreTask],
    flow: &FlowSpec,
) -> Result<Vec<InternedWorkload>, EngineError> {
    flow.resolve().map_err(EngineError::Flow)?;
    let mut points = tasks.iter().flat_map(|t| &t.grid);
    if let Some(&(latency, _)) = points.find(|&&(latency, _)| latency > MAX_LATENCY) {
        return Err(EngineError::LatencyLimit { latency });
    }
    tasks.iter().map(|t| engine.workload(&t.workload)).collect()
}

/// Synthesizes each `(workload, points)` part under the three Table-2
/// strategies in one [`Engine::synth_batch`] (task-major, then point
/// order, then [`TABLE2`] order) and assembles, per part, the raw —
/// pre-inheritance — rows and the feasible frontier candidates, both in
/// point order.
///
/// The parts must come from [`resolve`]: with the specs and the flow
/// checked, a job can only fail as infeasible, which leaves an empty
/// cell.
pub(crate) fn synthesize(
    engine: &Engine,
    parts: &[(&InternedWorkload, &[(u32, u32)])],
    flow: &FlowSpec,
    model: RedundancyModel,
) -> Vec<(Vec<SweepRow>, Vec<FrontierPoint>)> {
    let jobs: Vec<SynthJob> = parts
        .iter()
        .flat_map(|&(workload, points)| {
            points.iter().flat_map(move |&(latency, area)| {
                TABLE2.into_iter().map(move |id| {
                    SynthJob::new(workload.spec.as_str(), latency, area)
                        .with_strategy(id)
                        .with_flow(flow.clone())
                        .with_redundancy(model)
                })
            })
        })
        .collect();
    let mut results = engine.synth_batch(&jobs).into_iter();
    parts
        .iter()
        .map(|&(workload, points)| {
            let mut candidates = Vec::new();
            let rows = points
                .iter()
                .map(|&(latency, area)| {
                    let mut row = SweepRow::empty(latency, area);
                    for id in TABLE2 {
                        let report = results.next().expect("one result per job");
                        debug_assert!(matches!(
                            report,
                            Ok(_) | Err(EngineError::Infeasible { .. })
                        ));
                        let report = report.ok();
                        if let Some(design) = report.as_ref().map(|r| &r.design) {
                            candidates.push(FrontierPoint {
                                benchmark: workload.dfg.name().to_owned(),
                                strategy: id.to_owned(),
                                latency_bound: latency,
                                area_bound: area,
                                latency: design.latency,
                                area: design.area,
                                reliability: design.reliability.value(),
                            });
                        }
                        row.record(id, report.as_ref());
                    }
                    row
                })
                .collect();
            (rows, candidates)
        })
        .collect()
}

/// Sweeps every task's grid with the three Table-2 strategies through
/// `engine` and archives the Pareto frontier of the achieved designs.
///
/// The row tables equal [`rchls_core::explore::sweep`] run serially per
/// benchmark — the engine only changes *when* and *where* each point is
/// synthesized, never its result — and the output is byte-for-byte
/// independent of the worker count and of the cache tiers (sweep
/// artifacts store wall-time-scrubbed diagnostics; see
/// [`rchls_core::Diagnostics::scrubbed`]).
///
/// # Errors
///
/// Returns an [`EngineError`] before any synthesis when a task's spec or
/// a pass id in `flow` does not resolve — a mistyped id would otherwise
/// be indistinguishable from every grid point being infeasible.
pub fn explore(
    engine: &Engine,
    tasks: &[ExploreTask],
    flow: &FlowSpec,
    model: RedundancyModel,
) -> Result<Exploration, EngineError> {
    let workloads = resolve(engine, tasks, flow)?;
    let parts: Vec<(&InternedWorkload, &[(u32, u32)])> = workloads
        .iter()
        .zip(tasks)
        .map(|(workload, task)| (workload, task.grid.as_slice()))
        .collect();
    let mut frontier = ParetoArchive::new();
    let sweeps = synthesize(engine, &parts, flow, model)
        .into_iter()
        .zip(&workloads)
        .map(|((rows, candidates), workload)| {
            frontier.extend(candidates);
            BenchmarkSweep {
                benchmark: workload.dfg.name().to_owned(),
                workload: Some(workload.spec.clone()),
                rows: inherit(&rows),
            }
        })
        .collect();
    Ok(Exploration { sweeps, frontier })
}

/// A default exploration grid for an arbitrary graph, derived from its
/// fastest-possible latency and the areas of minimal vs generous
/// allocations: four latency steps (the critical path at the library's
/// fastest versions, then +50%, +100%, +200% — the long tail keeps the
/// small-area column reachable on wide graphs) crossed with four area
/// steps between "a couple of units" and "one generous unit per op
/// class pressure". Deterministic, and always feasible at its loosest
/// corner.
///
/// Returns `None` when the library has no version for one of the
/// graph's op classes (no grid can be feasible then).
#[must_use]
pub fn default_grid(dfg: &Dfg, library: &Library) -> Option<Vec<(u32, u32)>> {
    let classes: Vec<rchls_dfg::OpClass> = dfg.node_ids().map(|n| dfg.node(n).class()).collect();
    if !library.covers(classes.iter().copied()) {
        return None;
    }
    // Fastest critical path: every op on its fastest version.
    let fastest = rchls_bind::Assignment::from_fn(dfg, library, |n| {
        library
            .fastest_id(dfg.node(n).class())
            .expect("coverage checked above")
    });
    let min_latency = rchls_sched::asap(dfg, &fastest.delays(dfg, library))
        .expect("benchmark graphs are acyclic")
        .latency();
    let latencies = [
        min_latency,
        (min_latency * 3).div_ceil(2),
        min_latency * 2,
        min_latency * 3,
    ];
    // Area scale: from a few small units to a generous allocation.
    let min_area: u32 = {
        let mut seen: Vec<rchls_dfg::OpClass> = Vec::new();
        let mut total = 0;
        for &c in &classes {
            if !seen.contains(&c) {
                seen.push(c);
                let id = library.smallest_id(c).expect("coverage checked above");
                total += library.version(id).area();
            }
        }
        total.max(1)
    };
    let generous = (min_area * 2)
        .max(dfg.node_count() as u32 / 2)
        .max(min_area + 3);
    let span = generous - min_area;
    let areas = [
        min_area,
        min_area + span / 3,
        min_area + (2 * span) / 3,
        generous,
    ];
    let mut grid = Vec::new();
    for &l in &latencies {
        for &a in &areas {
            if !grid.contains(&(l, a)) {
                grid.push((l, a));
            }
        }
    }
    Some(grid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::exploration_json;
    use rchls_store::ResultStore;
    use std::sync::Arc;

    fn engine() -> Engine {
        Engine::new(Library::table1())
    }

    #[test]
    fn exploration_builds_a_nonempty_frontier() {
        let tasks = vec![
            ExploreTask::new("builtin:figure4a", vec![(5, 4), (6, 6)]),
            ExploreTask::new("builtin:diffeq", vec![(6, 11)]),
        ];
        let out = explore(
            &engine().with_jobs(4),
            &tasks,
            &FlowSpec::default(),
            RedundancyModel::default(),
        )
        .unwrap();
        assert_eq!(out.sweeps.len(), 2);
        assert_eq!(out.sweeps[0].rows.len(), 2);
        assert!(!out.frontier.is_empty());
        // Frontier archives only non-dominated designs from both benchmarks.
        let benchmarks: Vec<&str> = out
            .frontier
            .points()
            .iter()
            .map(|p| p.benchmark.as_str())
            .collect();
        assert!(benchmarks.contains(&"figure4a") || benchmarks.contains(&"diffeq"));
        // Frontier strategies are registry ids; rows carry scrubbed
        // diagnostics for each feasible strategy run.
        for p in out.frontier.points() {
            assert!(TABLE2.contains(&p.strategy.as_str()));
        }
        for sweep in &out.sweeps {
            for row in &sweep.rows {
                for d in &row.diagnostics {
                    assert_eq!(d.diagnostics.wall_time_micros, 0);
                }
            }
        }
    }

    #[test]
    fn figure8_style_curves_are_monotone_for_figure4a() {
        // Figure 8's shape: with one bound fixed, feasibility inheritance
        // makes reliability rise, never fall, as the other loosens.
        let tasks = [
            ExploreTask::new(
                "builtin:figure4a",
                [4, 5, 6, 8, 10, 12].map(|latency| (latency, 4)).to_vec(),
            ),
            ExploreTask::new(
                "builtin:figure4a",
                [1, 2, 3, 4, 6, 8].map(|area| (6, area)).to_vec(),
            ),
        ];
        let out = explore(
            &engine(),
            &tasks,
            &FlowSpec::default(),
            RedundancyModel::default(),
        )
        .unwrap();
        for (sweep, axis) in out.sweeps.iter().zip(["latency", "area"]) {
            let feasible: Vec<f64> = sweep.rows.iter().filter_map(|row| row.ours).collect();
            assert!(!feasible.is_empty(), "{axis}");
            for w in feasible.windows(2) {
                assert!(w[1] + 1e-9 >= w[0], "loosening {axis} lowered reliability");
            }
        }
    }

    #[test]
    fn a_sweep_over_a_partial_store_computes_only_the_pending_points() {
        // A sweep killed after two points leaves their results in the
        // store. The same sweep rerun over that store reads them back,
        // synthesizes only the rest, and prints the uninterrupted document.
        let dir = std::env::temp_dir().join(format!(
            "rchls-explore-test-{}-partial-store",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ResultStore::open(&dir).expect("store opens"));
        let grid = [(5, 11), (6, 13), (7, 9), (4, 2), (6, 11)];
        let (done, pending) = grid.split_at(2);
        let sweep = |engine: &Engine, grid: &[(u32, u32)]| {
            let task = ExploreTask::new("builtin:diffeq", grid.to_vec());
            let (flow, model) = (FlowSpec::default(), RedundancyModel::default());
            exploration_json(&explore(engine, &[task], &flow, model).unwrap())
        };
        sweep(&engine().with_jobs(1).with_store(Arc::clone(&store)), done);

        let rerun = engine().with_jobs(2).with_store(Arc::clone(&store));
        assert_eq!(sweep(&rerun, &grid), sweep(&engine().with_jobs(1), &grid));
        let fresh = engine().with_jobs(1);
        sweep(&fresh, pending);
        assert!(fresh.cache_stats().misses > 0);
        assert_eq!(rerun.cache_stats().misses, fresh.cache_stats().misses);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mistyped_pass_ids_and_specs_are_errors_not_infeasible_points() {
        let engine = engine();
        let tasks = [ExploreTask::new("builtin:figure4a", vec![(5, 4)])];
        let bad_flow = FlowSpec::default().with_scheduler("densty");
        let err = explore(&engine, &tasks, &bad_flow, RedundancyModel::default()).unwrap_err();
        assert!(matches!(err, EngineError::Flow(_)), "{err}");
        assert!(err.to_string().contains("unknown scheduler"), "{err}");
        let tasks = [tasks[0].clone(), ExploreTask::new("warp:9", vec![(5, 4)])];
        let err = explore(
            &engine,
            &tasks,
            &FlowSpec::default(),
            RedundancyModel::default(),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Workload(_)), "{err}");
        // Both were caught before any synthesis.
        assert_eq!(engine.cache_stats().misses, 0);
    }

    #[test]
    fn tasks_from_workload_specs_echo_the_canonical_spec() {
        let engine = engine();
        let task = ExploreTask::new("random:18x4", vec![(8, 8)]);
        let out = explore(
            &engine,
            &[task],
            &FlowSpec::default(),
            RedundancyModel::default(),
        )
        .unwrap();
        assert_eq!(out.sweeps[0].workload.as_deref(), Some("random:18x4@0"));
        assert_eq!(
            out.sweeps[0].benchmark,
            engine.workload("random:18x4").unwrap().dfg.name()
        );
        assert_eq!(
            engine.workload("random:18x4@0").unwrap().dfg.node_count(),
            18
        );
    }

    #[test]
    fn default_grid_requires_class_coverage() {
        // An adders-only library cannot grid a graph with multipliers.
        let lib = rchls_reslib::parse_library("library adders\nversion a1 adder 1 1 0.99\n")
            .expect("valid library text");
        assert_eq!(default_grid(&rchls_workloads::diffeq(), &lib), None);
        assert!(default_grid(&rchls_workloads::figure4a(), &lib).is_some());
    }

    #[test]
    fn default_grid_is_deterministic_and_feasible() {
        let dfg = rchls_workloads::fir16();
        let lib = Library::table1();
        let a = default_grid(&dfg, &lib).expect("table1 covers fir16");
        let b = default_grid(&dfg, &lib).expect("table1 covers fir16");
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // The loosest corner must be feasible.
        let &(l, ar) = a.last().unwrap();
        assert!(engine()
            .synth(&SynthJob::new("builtin:fir16", l, ar))
            .is_ok());
    }
}
