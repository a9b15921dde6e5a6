//! High-level exploration drivers: fan `(benchmark × bounds × strategy)`
//! jobs over the executor, assemble sweep tables, and archive the
//! Pareto frontier.
//!
//! Every strategy is dispatched through the [`rchls_core::Strategy`]
//! trait — the explorer never matches on a strategy enum, so
//! out-of-tree strategies sweep exactly like built-ins.

use crate::pareto::{FrontierPoint, ParetoArchive};
use rchls_core::engine::{KeyPrefix, SweepExecutor, SynthCache};
use rchls_core::explore::{inherit, StrategyDiagnostics, SweepRow};
use rchls_core::{Bounds, Design, FlowSpec, RedundancyModel, Strategy, StrategyKind, SynthReport};
use rchls_dfg::Dfg;
use rchls_reslib::Library;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The achieved objectives of one synthesized design.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// Achieved latency in clock cycles.
    pub latency: u32,
    /// Achieved area in normalized units.
    pub area: u32,
    /// Achieved design reliability.
    pub reliability: f64,
}

impl From<&Design> for DesignPoint {
    fn from(d: &Design) -> DesignPoint {
        DesignPoint {
            latency: d.latency,
            area: d.area,
            reliability: d.reliability.value(),
        }
    }
}

/// One benchmark to explore: a graph plus its `(Ld, Ad)` bound grid.
#[derive(Debug, Clone)]
pub struct ExploreTask {
    /// Benchmark name (labels rows and frontier points).
    pub name: String,
    /// The workload spec the graph came from, when it was resolved
    /// through the [`rchls_workloads`] source registry — echoed into the
    /// sweep artifacts so randomized runs are reproducible from their
    /// reports.
    pub workload: Option<String>,
    /// The data-flow graph.
    pub dfg: Dfg,
    /// The `(latency, area)` bound pairs to sweep.
    pub grid: Vec<(u32, u32)>,
}

impl ExploreTask {
    /// Bundles a named graph with its grid.
    #[must_use]
    pub fn new(name: impl Into<String>, dfg: Dfg, grid: Vec<(u32, u32)>) -> ExploreTask {
        ExploreTask {
            name: name.into(),
            workload: None,
            dfg,
            grid,
        }
    }

    /// Resolves a workload spec (`builtin:fir16`, `random:64x8@7`,
    /// `file:path.dfg`, or any registered scheme) into a task over
    /// `grid`. The task is named after the graph and carries the
    /// canonical spec.
    ///
    /// # Errors
    ///
    /// Returns the registry's [`rchls_workloads::WorkloadError`] when
    /// the spec does not resolve.
    pub fn from_spec(
        spec: &str,
        grid: Vec<(u32, u32)>,
    ) -> Result<ExploreTask, rchls_workloads::WorkloadError> {
        let workload = rchls_workloads::load_workload(spec)?;
        Ok(ExploreTask {
            name: workload.dfg.name().to_owned(),
            workload: Some(workload.spec),
            dfg: workload.dfg,
            grid,
        })
    }

    /// Attaches the canonical workload spec this task's graph came from.
    #[must_use]
    pub fn with_workload(mut self, spec: impl Into<String>) -> ExploreTask {
        self.workload = Some(spec.into());
        self
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
    /// The canonical workload spec the benchmark was resolved from
    /// (`None` when the task was built from a bare graph).
    pub workload: Option<String>,
    /// Sweep rows in grid order.
    pub rows: Vec<SweepRow>,
}

/// One unit of executor work: a strategy at a grid point of a benchmark.
struct PointJob<'a> {
    prefix: &'a KeyPrefix,
    dfg: &'a Dfg,
    benchmark: &'a str,
    workload: Option<&'a str>,
    bounds: Bounds,
    strategy: Arc<dyn Strategy>,
}

/// Sweeps every task's grid with the three Table-2 strategies in parallel
/// and archives the Pareto frontier of the achieved designs.
///
/// The row tables are identical to running
/// [`rchls_core::explore::sweep`] serially per benchmark — the executor
/// only changes *when* each point is synthesized, never its result — and
/// the output is byte-for-byte independent of the worker count (sweep
/// artifacts store wall-time-scrubbed diagnostics; see
/// [`rchls_core::Diagnostics::scrubbed`]).
///
/// # Panics
///
/// Panics if `flow` names a pass id the registry doesn't know — a
/// mistyped id would otherwise be indistinguishable from every grid
/// point being infeasible.
#[must_use]
pub fn explore(
    tasks: &[ExploreTask],
    library: &Library,
    flow: &FlowSpec,
    model: RedundancyModel,
    executor: SweepExecutor,
    cache: &SynthCache,
) -> Exploration {
    if let Err(e) = flow.resolve() {
        panic!("explore: {e}");
    }
    let strategies: Vec<Arc<dyn Strategy>> = StrategyKind::TABLE2
        .into_iter()
        .map(StrategyKind::strategy)
        .collect();
    let strategies_ref = &strategies;
    // One graph walk per task, not one per grid point and strategy.
    let prefixes: Vec<KeyPrefix> = tasks
        .iter()
        .map(|t| KeyPrefix::new(&t.dfg, library))
        .collect();
    let jobs: Vec<PointJob<'_>> = tasks
        .iter()
        .zip(&prefixes)
        .flat_map(|(t, prefix)| {
            t.grid.iter().flat_map(move |&(latency, area)| {
                strategies_ref.iter().map(move |strategy| PointJob {
                    prefix,
                    dfg: &t.dfg,
                    benchmark: &t.name,
                    workload: t.workload.as_deref(),
                    bounds: Bounds::new(latency, area),
                    strategy: Arc::clone(strategy),
                })
            })
        })
        .collect();

    let outcomes: Vec<Option<SynthReport>> = executor.run(&jobs, |job| {
        cache.synthesize_with_workload(
            job.prefix,
            job.dfg,
            library,
            job.bounds,
            flow,
            model,
            &*job.strategy,
            job.workload,
        )
    });

    // Frontier: every feasible design, archived in deterministic job
    // order (the archive's contents are order-independent anyway).
    let mut frontier = ParetoArchive::new();
    for (job, outcome) in jobs.iter().zip(&outcomes) {
        if let Some(report) = outcome {
            let point = DesignPoint::from(&report.design);
            frontier.insert(FrontierPoint {
                benchmark: job.benchmark.to_owned(),
                strategy: job.strategy.id().to_owned(),
                latency_bound: job.bounds.latency,
                area_bound: job.bounds.area,
                latency: point.latency,
                area: point.area,
                reliability: point.reliability,
            });
        }
    }

    // Tables: regroup outcomes into per-benchmark rows, then apply the
    // same feasibility inheritance as the serial sweep. Jobs were
    // generated task-major in grid order with all strategies per point,
    // so each outcome's position is directly computable.
    let stride = strategies.len();
    let mut task_offset = 0usize;
    let sweeps = tasks
        .iter()
        .map(|t| {
            let raw: Vec<SweepRow> = t
                .grid
                .iter()
                .enumerate()
                .map(|(point, &(latency, area))| {
                    let mut row = SweepRow::empty(latency, area);
                    let base = task_offset + point * stride;
                    for (slot, kind) in StrategyKind::TABLE2.into_iter().enumerate() {
                        let job = &jobs[base + slot];
                        debug_assert_eq!(job.bounds, Bounds::new(latency, area));
                        debug_assert_eq!(job.strategy.id(), kind.name());
                        let outcome = outcomes[base + slot].as_ref();
                        let r = outcome.map(|rep| rep.design.reliability.value());
                        match kind {
                            StrategyKind::Baseline => row.baseline = r,
                            StrategyKind::Ours => row.ours = r,
                            StrategyKind::Combined => row.combined = r,
                            _ => unreachable!("TABLE2 holds the paper's three strategies"),
                        }
                        if let Some(report) = outcome {
                            row.diagnostics.push(StrategyDiagnostics {
                                strategy: kind.name().to_owned(),
                                diagnostics: report.diagnostics.scrubbed(),
                            });
                        }
                    }
                    row
                })
                .collect();
            task_offset += t.grid.len() * stride;
            BenchmarkSweep {
                benchmark: t.name.clone(),
                workload: t.workload.clone(),
                rows: inherit(&raw),
            }
        })
        .collect();

    Exploration { sweeps, frontier }
}

/// Synthesizes the given grid points of one task (all three Table-2
/// strategies per point) and assembles the *raw* — pre-inheritance —
/// rows plus the feasible frontier candidates, in point order.
///
/// This is the shared fan-out under partial-grid drivers
/// ([`crate::shard`] covers a deterministic slice of the grid;
/// [`crate::resume`] warms pending points between checkpoints), where
/// feasibility inheritance must wait until the full grid is assembled.
pub(crate) fn synthesize_points(
    task: &ExploreTask,
    points: &[(u32, u32)],
    library: &Library,
    flow: &FlowSpec,
    model: RedundancyModel,
    executor: &SweepExecutor,
    cache: &SynthCache,
) -> (Vec<SweepRow>, Vec<FrontierPoint>) {
    let strategies: Vec<Arc<dyn Strategy>> = StrategyKind::TABLE2
        .into_iter()
        .map(StrategyKind::strategy)
        .collect();
    let prefix = &KeyPrefix::new(&task.dfg, library);
    let jobs: Vec<PointJob<'_>> = points
        .iter()
        .flat_map(|&(latency, area)| {
            strategies.iter().map(move |strategy| PointJob {
                prefix,
                dfg: &task.dfg,
                benchmark: &task.name,
                workload: task.workload.as_deref(),
                bounds: Bounds::new(latency, area),
                strategy: Arc::clone(strategy),
            })
        })
        .collect();
    let outcomes: Vec<Option<SynthReport>> = executor.run(&jobs, |job| {
        cache.synthesize_with_workload(
            job.prefix,
            job.dfg,
            library,
            job.bounds,
            flow,
            model,
            &*job.strategy,
            job.workload,
        )
    });

    let mut candidates = Vec::new();
    for (job, outcome) in jobs.iter().zip(&outcomes) {
        if let Some(report) = outcome {
            let point = DesignPoint::from(&report.design);
            candidates.push(FrontierPoint {
                benchmark: job.benchmark.to_owned(),
                strategy: job.strategy.id().to_owned(),
                latency_bound: job.bounds.latency,
                area_bound: job.bounds.area,
                latency: point.latency,
                area: point.area,
                reliability: point.reliability,
            });
        }
    }

    let stride = strategies.len();
    let rows = points
        .iter()
        .enumerate()
        .map(|(point, &(latency, area))| {
            let mut row = SweepRow::empty(latency, area);
            let base = point * stride;
            for (slot, kind) in StrategyKind::TABLE2.into_iter().enumerate() {
                let outcome = outcomes[base + slot].as_ref();
                let r = outcome.map(|rep| rep.design.reliability.value());
                match kind {
                    StrategyKind::Baseline => row.baseline = r,
                    StrategyKind::Ours => row.ours = r,
                    StrategyKind::Combined => row.combined = r,
                    _ => unreachable!("TABLE2 holds the paper's three strategies"),
                }
                if let Some(report) = outcome {
                    row.diagnostics.push(StrategyDiagnostics {
                        strategy: kind.name().to_owned(),
                        diagnostics: report.diagnostics.scrubbed(),
                    });
                }
            }
            row
        })
        .collect();
    (rows, candidates)
}

/// Sweeps one benchmark's grid in parallel — the drop-in counterpart of
/// [`rchls_core::explore::sweep`] with identical output.
#[must_use]
pub fn sweep_parallel(
    dfg: &Dfg,
    library: &Library,
    grid: &[(u32, u32)],
    executor: SweepExecutor,
    cache: &SynthCache,
) -> Vec<SweepRow> {
    let tasks = [ExploreTask::new(dfg.name(), dfg.clone(), grid.to_vec())];
    let mut exploration = explore(
        &tasks,
        library,
        &FlowSpec::default(),
        RedundancyModel::default(),
        executor,
        cache,
    );
    exploration
        .sweeps
        .pop()
        .expect("one task yields one sweep")
        .rows
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
    use rchls_core::explore::sweep;

    #[test]
    fn parallel_matches_serial_rows_exactly() {
        let dfg = rchls_workloads::diffeq();
        let lib = Library::table1();
        let grid = [(5u32, 11u32), (6, 13), (7, 9), (4, 2)];
        let serial = sweep(&dfg, &lib, &grid);
        for jobs in [1usize, 2, 8] {
            let cache = SynthCache::new();
            let parallel = sweep_parallel(&dfg, &lib, &grid, SweepExecutor::new(jobs), &cache);
            assert_eq!(parallel, serial, "jobs = {jobs}");
        }
    }

    #[test]
    fn exploration_builds_a_nonempty_frontier() {
        let lib = Library::table1();
        let tasks = vec![
            ExploreTask::new(
                "figure4a",
                rchls_workloads::figure4a(),
                vec![(5, 4), (6, 6)],
            ),
            ExploreTask::new("diffeq", rchls_workloads::diffeq(), vec![(6, 11)]),
        ];
        let cache = SynthCache::new();
        let out = explore(
            &tasks,
            &lib,
            &FlowSpec::default(),
            RedundancyModel::default(),
            SweepExecutor::new(4),
            &cache,
        );
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
            assert!(["baseline", "ours", "combined"].contains(&p.strategy.as_str()));
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
    #[should_panic(expected = "unknown scheduler")]
    fn mistyped_pass_id_panics_instead_of_reading_as_infeasible() {
        let tasks = vec![ExploreTask::new(
            "figure4a",
            rchls_workloads::figure4a(),
            vec![(5, 4)],
        )];
        let _ = explore(
            &tasks,
            &Library::table1(),
            &FlowSpec::default().with_scheduler("densty"),
            RedundancyModel::default(),
            SweepExecutor::serial(),
            &SynthCache::new(),
        );
    }

    #[test]
    fn tasks_from_workload_specs_echo_the_canonical_spec() {
        let task = ExploreTask::from_spec("random:18x4", vec![(8, 8)]).unwrap();
        assert_eq!(task.workload.as_deref(), Some("random:18x4@0"));
        assert_eq!(task.dfg.node_count(), 18);
        let out = explore(
            &[task],
            &Library::table1(),
            &FlowSpec::default(),
            RedundancyModel::default(),
            SweepExecutor::serial(),
            &SynthCache::new(),
        );
        assert_eq!(out.sweeps[0].workload.as_deref(), Some("random:18x4@0"));
        // Tasks built from bare graphs carry no spec.
        let bare = ExploreTask::new("figure4a", rchls_workloads::figure4a(), vec![(5, 4)]);
        assert_eq!(bare.workload, None);
        assert!(ExploreTask::from_spec("warp:9", vec![(5, 4)]).is_err());
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
        assert!(StrategyKind::Ours
            .run(
                &dfg,
                &lib,
                Bounds::new(l, ar),
                &FlowSpec::default(),
                RedundancyModel::default()
            )
            .is_ok());
    }
}
