//! Sharded sweeps: deterministic grid partitioning and lossless merge.
//!
//! A sweep over a large bound grid can be split across processes (or
//! machines) by running `n` shards, each covering the grid indices
//! congruent to its shard index modulo `n`, and merging the shard
//! documents afterwards. The merge is *lossless*: because shards carry
//! their rows **raw** — before feasibility inheritance, which is a
//! full-grid property — and because [`ParetoArchive`] contents are
//! insertion-order independent, the merged [`Exploration`] is
//! byte-for-byte identical to the document an unsharded run of the same
//! sweep would have produced.
//!
//! Shard documents embed a [`sweep_fingerprint`]
//! of the full sweep configuration (graph, library, grid, flow, model,
//! strategy tokens), so [`merge`] can refuse shards from different
//! sweeps — or from the same grid swept under a different library —
//! instead of quietly interleaving them.

use crate::explore::{resolve, synthesize, BenchmarkSweep, Exploration, ExploreTask};
use crate::pareto::ParetoArchive;
use rchls_core::engine::Fingerprint;
use rchls_core::explore::{inherit, SweepRow, TABLE2};
use rchls_core::{flow, Engine, EngineError, FlowSpec, RedundancyModel};
use serde::{Deserialize, Serialize};
use std::fmt;

/// On-disk schema version of [`SweepShard`] documents.
pub const SHARD_SCHEMA_VERSION: u32 = 1;

/// Deterministic identity of one sweep configuration: the graph, its
/// name and canonical workload spec, the engine's library, the full
/// bound grid, the flow, the redundancy model, and the Table-2 strategy
/// tokens. Stable across processes; every shard document carries it so
/// [`merge`] can refuse shards of different sweeps.
///
/// # Errors
///
/// Returns [`EngineError::Workload`] when the task's spec does not
/// resolve.
pub fn sweep_fingerprint(
    engine: &Engine,
    task: &ExploreTask,
    flow: &FlowSpec,
    model: RedundancyModel,
) -> Result<u64, EngineError> {
    let workload = engine.workload(&task.workload)?;
    let mut fp = Fingerprint::new();
    fp.update(workload.dfg.name());
    fp.update(&Some(workload.spec));
    fp.update(&*workload.dfg);
    fp.update(engine.library());
    fp.update(&task.grid);
    fp.update(flow);
    fp.update(&model);
    for id in TABLE2 {
        let strategy = flow::strategy(id).expect("built-in strategies are always registered");
        fp.update(&strategy.fingerprint_token());
    }
    Ok(fp.finish())
}

/// One shard of a partitioned sweep: the raw rows and local frontier of
/// the grid indices congruent to `shard_index` modulo `shard_count`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepShard {
    /// Document schema version ([`SHARD_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Fingerprint of the *full* sweep configuration. [`merge`] only
    /// combines shards agreeing on it.
    pub fingerprint: u64,
    /// Benchmark name.
    pub benchmark: String,
    /// The canonical workload spec the benchmark was resolved from.
    pub workload: Option<String>,
    /// This shard's index, `0 <= shard_index < shard_count`.
    pub shard_index: u32,
    /// Total number of shards the sweep was split into.
    pub shard_count: u32,
    /// The **full** bound grid of the sweep, not just this shard's slice.
    pub grid: Vec<(u32, u32)>,
    /// Raw — pre-inheritance — rows for this shard's grid indices, in
    /// grid order. Feasibility inheritance is applied by [`merge`] once
    /// the full grid is reassembled.
    pub rows: Vec<SweepRow>,
    /// The non-dominated frontier over this shard's designs.
    pub frontier: ParetoArchive,
}

/// Why a set of shard documents cannot be merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeError(String);

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "merge: {}", self.0)
    }
}

impl std::error::Error for MergeError {}

fn err(msg: impl Into<String>) -> MergeError {
    MergeError(msg.into())
}

/// The grid indices shard `index` of `count` covers, in grid order.
#[must_use]
pub fn shard_indices(grid_len: usize, index: u32, count: u32) -> Vec<usize> {
    assert!(count > 0, "shard count must be positive");
    assert!(index < count, "shard index {index} out of {count}");
    (0..grid_len)
        .filter(|i| i % count as usize == index as usize)
        .collect()
}

/// Sweeps shard `index` of `count` of one task's grid through `engine`
/// and packages the raw rows for a later [`merge`].
///
/// # Errors
///
/// Returns an [`EngineError`] before any synthesis when the task's spec
/// or a pass id in `flow` does not resolve (matching [`crate::explore`](fn@crate::explore)'s
/// contract).
///
/// # Panics
///
/// Panics when `index >= count` or `count == 0`.
pub fn explore_shard(
    engine: &Engine,
    task: &ExploreTask,
    flow: &FlowSpec,
    model: RedundancyModel,
    index: u32,
    count: u32,
) -> Result<SweepShard, EngineError> {
    let indices = shard_indices(task.grid.len(), index, count);
    let workload = resolve(engine, std::slice::from_ref(task), flow)?.remove(0);
    let points: Vec<(u32, u32)> = indices.iter().map(|&i| task.grid[i]).collect();
    let (rows, candidates) = synthesize(engine, &[(&workload, &points)], flow, model).remove(0);
    let mut frontier = ParetoArchive::new();
    frontier.extend(candidates);
    Ok(SweepShard {
        schema_version: SHARD_SCHEMA_VERSION,
        fingerprint: sweep_fingerprint(engine, task, flow, model)?,
        benchmark: workload.dfg.name().to_owned(),
        workload: Some(workload.spec),
        shard_index: index,
        shard_count: count,
        grid: task.grid.clone(),
        rows,
        frontier,
    })
}

/// Recombines a complete set of shard documents into the [`Exploration`]
/// an unsharded run of the same sweep would have produced, byte for byte
/// under the same renderer.
///
/// # Errors
///
/// Returns a [`MergeError`] when the set is empty, mixes schema
/// versions or sweep fingerprints, misses or duplicates a shard index,
/// or a shard's row count disagrees with its slice of the grid.
pub fn merge(shards: &[SweepShard]) -> Result<Exploration, MergeError> {
    let first = shards.first().ok_or_else(|| err("no shard documents"))?;
    if first.schema_version != SHARD_SCHEMA_VERSION {
        return Err(err(format!(
            "unsupported shard schema version {} (this build reads {SHARD_SCHEMA_VERSION})",
            first.schema_version
        )));
    }
    let count = first.shard_count;
    if count == 0 {
        return Err(err("shard count is zero"));
    }
    if shards.len() != count as usize {
        return Err(err(format!(
            "sweep was split into {count} shards but {} were given",
            shards.len()
        )));
    }
    let mut by_index: Vec<Option<&SweepShard>> = vec![None; count as usize];
    for shard in shards {
        for (what, ours, theirs) in [
            (
                "schema version",
                u64::from(first.schema_version),
                u64::from(shard.schema_version),
            ),
            ("fingerprint", first.fingerprint, shard.fingerprint),
            (
                "shard count",
                u64::from(first.shard_count),
                u64::from(shard.shard_count),
            ),
        ] {
            if ours != theirs {
                return Err(err(format!(
                    "shards disagree on {what}: {ours} vs {theirs}"
                )));
            }
        }
        if shard.benchmark != first.benchmark
            || shard.workload != first.workload
            || shard.grid != first.grid
        {
            return Err(err(format!(
                "shard {} describes a different sweep than shard {}",
                shard.shard_index, first.shard_index
            )));
        }
        let slot = by_index
            .get_mut(shard.shard_index as usize)
            .ok_or_else(|| err(format!("shard index {} out of {count}", shard.shard_index)))?;
        if slot.replace(shard).is_some() {
            return Err(err(format!("duplicate shard index {}", shard.shard_index)));
        }
    }
    let by_index: Vec<&SweepShard> = by_index
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.ok_or_else(|| err(format!("missing shard index {i} of {count}"))))
        .collect::<Result<_, _>>()?;

    for shard in &by_index {
        let expected = shard_indices(first.grid.len(), shard.shard_index, count).len();
        if shard.rows.len() != expected {
            return Err(err(format!(
                "shard {} carries {} rows for a {expected}-point slice",
                shard.shard_index,
                shard.rows.len()
            )));
        }
    }

    // Reassemble the raw rows in grid order: index i came from shard
    // i % count, as the ceil(i / count)-th row of its slice.
    let raw: Vec<SweepRow> = (0..first.grid.len())
        .map(|i| {
            let shard = by_index[i % count as usize];
            let row = shard.rows[i / count as usize].clone();
            let (latency, area) = first.grid[i];
            if (row.latency_bound, row.area_bound) != (latency, area) {
                return Err(err(format!(
                    "shard {} row for grid index {i} carries bounds ({}, {}), grid says ({latency}, {area})",
                    shard.shard_index, row.latency_bound, row.area_bound
                )));
            }
            Ok(row)
        })
        .collect::<Result<_, _>>()?;

    // The archive's contents are insertion-order independent, so
    // re-inserting every shard's frontier reproduces the global one.
    let mut frontier = ParetoArchive::new();
    for shard in &by_index {
        frontier.extend(shard.frontier.points().iter().cloned());
    }

    Ok(Exploration {
        sweeps: vec![BenchmarkSweep {
            benchmark: first.benchmark.clone(),
            workload: first.workload.clone(),
            rows: inherit(&raw),
        }],
        frontier,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;
    use rchls_reslib::Library;

    fn task() -> ExploreTask {
        ExploreTask::new(
            "builtin:diffeq",
            vec![(5, 11), (6, 13), (7, 9), (4, 2), (6, 11), (8, 8), (5, 5)],
        )
    }

    fn engine(jobs: usize) -> Engine {
        Engine::new(Library::table1()).with_jobs(jobs)
    }

    fn shards(engine: &Engine, task: &ExploreTask, count: u32) -> Vec<SweepShard> {
        let (flow, model) = (FlowSpec::default(), RedundancyModel::default());
        (0..count)
            .map(|i| explore_shard(engine, task, &flow, model, i, count).unwrap())
            .collect()
    }

    fn unsharded(task: &ExploreTask) -> Exploration {
        explore(
            &engine(1),
            std::slice::from_ref(task),
            &FlowSpec::default(),
            RedundancyModel::default(),
        )
        .unwrap()
    }

    #[test]
    fn fingerprint_tracks_the_sweep_configuration() {
        let task = task();
        let engine = engine(1);
        let flow = FlowSpec::default();
        let model = RedundancyModel::default();
        let fp = sweep_fingerprint(&engine, &task, &flow, model).unwrap();
        assert_eq!(fp, sweep_fingerprint(&engine, &task, &flow, model).unwrap());
        let mut wider = task.clone();
        wider.grid.push((9, 9));
        assert_ne!(
            fp,
            sweep_fingerprint(&engine, &wider, &flow, model).unwrap()
        );
        assert_ne!(
            fp,
            sweep_fingerprint(&engine, &task, &flow.clone().with_refine("none"), model).unwrap()
        );
        // Any spelling of the workload is the same sweep.
        let respelled = ExploreTask::new("diffeq", task.grid.clone());
        assert_eq!(
            fp,
            sweep_fingerprint(&engine, &respelled, &flow, model).unwrap()
        );
    }

    /// [`merge`] refuses shards whose fingerprints differ, so a silent
    /// change would leave every shard document an older build wrote
    /// unmergeable with the new build's. The literal is the CI sweep's
    /// (`rchls sweep --workload builtin:diffeq --latencies 5,6,7 --areas
    /// 7,11`) as shard documents record it.
    #[test]
    fn fingerprint_of_the_ci_sweep_is_pinned() {
        let grid = [5, 6, 7]
            .into_iter()
            .flat_map(|l| [7, 11].map(|a| (l, a)))
            .collect();
        let fp = sweep_fingerprint(
            &engine(1),
            &ExploreTask::new("builtin:diffeq", grid),
            &FlowSpec::default(),
            RedundancyModel::default(),
        );
        assert_eq!(fp, Ok(11_150_032_256_022_472_317));
    }

    #[test]
    fn shard_indices_partition_the_grid() {
        let all: Vec<usize> = (0..7).collect();
        let mut seen = Vec::new();
        for i in 0..3 {
            seen.extend(shard_indices(7, i, 3));
        }
        seen.sort_unstable();
        assert_eq!(seen, all);
        assert_eq!(shard_indices(7, 0, 3), vec![0, 3, 6]);
        assert_eq!(shard_indices(7, 2, 3), vec![2, 5]);
        assert_eq!(shard_indices(2, 2, 3), Vec::<usize>::new());
    }

    #[test]
    fn merged_shards_match_the_unsharded_exploration_exactly() {
        let task = task();
        let whole = unsharded(&task);
        for count in [1u32, 2, 3, 7] {
            // Every shard in a session of its own, as on separate machines.
            let shards: Vec<SweepShard> = (0..count)
                .map(|i| {
                    let (flow, model) = (FlowSpec::default(), RedundancyModel::default());
                    explore_shard(&engine(2), &task, &flow, model, i, count).unwrap()
                })
                .collect();
            let merged = merge(&shards).expect("complete shard set merges");
            assert_eq!(merged, whole, "count = {count}");
            // Byte-identity under the JSON renderer, not just Eq.
            assert_eq!(
                crate::export::exploration_json(&merged),
                crate::export::exploration_json(&whole),
                "count = {count}"
            );
        }
    }

    #[test]
    fn merge_accepts_shards_in_any_order() {
        let task = task();
        let mut shards = shards(&engine(1), &task, 3);
        shards.reverse();
        assert_eq!(merge(&shards).expect("order-free"), unsharded(&task));
    }

    #[test]
    fn merge_rejects_incomplete_or_mismatched_sets() {
        let shards = shards(&engine(1), &task(), 2);

        assert!(merge(&[]).is_err(), "empty set");
        assert!(merge(&shards[..1]).is_err(), "missing shard");
        assert!(
            merge(&[shards[0].clone(), shards[0].clone()]).is_err(),
            "duplicate shard"
        );

        let mut drifted = shards.clone();
        drifted[1].fingerprint ^= 1;
        assert!(merge(&drifted).is_err(), "foreign fingerprint");

        let mut future = shards.clone();
        future[0].schema_version += 1;
        assert!(merge(&future).is_err(), "future schema");

        let mut torn = shards;
        torn[1].rows.pop();
        assert!(merge(&torn).is_err(), "short row slice");
    }

    #[test]
    fn different_libraries_fingerprint_differently() {
        let task = task();
        let a = shards(&engine(1), &task, 1);
        let lib = rchls_reslib::parse_library(
            "library tiny\nversion a1 adder 1 1 0.99\nversion m1 multiplier 1 2 0.98\n",
        )
        .expect("valid library text");
        let b = shards(&Engine::new(lib).with_jobs(1), &task, 1);
        assert_ne!(a[0].fingerprint, b[0].fingerprint);
    }
}
