//! Checkpoint/resume for long sweeps.
//!
//! A checkpointed sweep runs in two phases. The *warm phase* pushes the
//! grid's pending points through the engine — and therefore into its
//! attached [`ResultStore`](rchls_store::ResultStore) — in chunks,
//! writing a [`SweepCheckpoint`] after each chunk. The *assembly phase*
//! is a plain [`explore`](crate::explore()) over the full grid: every
//! point is answered from the cache tiers, so the emitted document is
//! byte-identical to an uninterrupted run no matter where (or how often)
//! the warm phase was killed. Resuming validates the checkpoint's
//! [`sweep_fingerprint`] before trusting its completed-point set — a
//! checkpoint from a different sweep (or a different library) is
//! ignored, never adopted.

use crate::explore::{resolve, synthesize, ExploreTask};
use crate::pareto::ParetoArchive;
use rchls_core::engine::Fingerprint;
use rchls_core::explore::TABLE2;
use rchls_core::{flow, Engine, EngineError, FlowSpec, RedundancyModel};
use rchls_store::Lookup;
use serde::{Deserialize, Serialize};

/// On-disk schema version of [`SweepCheckpoint`] documents.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 1;

/// Deterministic identity of one sweep configuration: the graph, its
/// name and canonical workload spec, the engine's library, the full
/// bound grid, the flow, the redundancy model, and the Table-2 strategy
/// tokens. Stable across processes; keys both checkpoints and shard
/// documents.
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

/// A periodic snapshot of a long sweep: which grid points have been
/// synthesized into the store, plus the frontier over them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCheckpoint {
    /// Document schema version ([`CHECKPOINT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The [`sweep_fingerprint`] of the configuration this snapshot
    /// belongs to; doubles as its key in the store's checkpoint area.
    pub fingerprint: u64,
    /// Completed grid indices, sorted ascending.
    pub completed: Vec<u32>,
    /// The frontier over every design synthesized so far.
    pub frontier: ParetoArchive,
}

/// Renders a checkpoint as its on-disk payload (compact JSON).
#[must_use]
pub fn encode_checkpoint(checkpoint: &SweepCheckpoint) -> String {
    serde_json::to_string(checkpoint).expect("checkpoints always serialize")
}

/// Parses an on-disk payload back into a [`SweepCheckpoint`].
///
/// # Errors
///
/// Returns the decode error when the payload is not a checkpoint — the
/// caller starts the sweep from scratch.
pub fn decode_checkpoint(payload: &str) -> Result<SweepCheckpoint, serde::Error> {
    serde_json::from_str(payload)
}

/// What a checkpointed warm pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeOutcome {
    /// Grid points in the sweep.
    pub total_points: usize,
    /// Points skipped because an adopted checkpoint recorded them done.
    pub skipped: usize,
    /// Points pushed through the cache tiers this run.
    pub computed: usize,
    /// Checkpoints successfully written this run.
    pub checkpoints_written: usize,
    /// Whether a prior checkpoint was adopted.
    pub resumed: bool,
}

/// A checkpointed warm pass over one sweep: the configuration bundle for
/// [`CheckpointedSweep::run`].
pub struct CheckpointedSweep<'a> {
    /// The session to synthesize through. Its attached store receives
    /// both the warmed results and the checkpoints, so a checkpoint can
    /// never name points that went to a different store.
    pub engine: &'a Engine,
    /// The benchmark and its full bound grid.
    pub task: &'a ExploreTask,
    /// The synthesis flow.
    pub flow: &'a FlowSpec,
    /// The redundancy model.
    pub model: RedundancyModel,
    /// Checkpoint after every this many grid points (clamped to ≥ 1).
    pub every: usize,
    /// Adopt a matching prior checkpoint instead of starting over.
    pub resume: bool,
}

impl CheckpointedSweep<'_> {
    /// Warms the sweep's pending points into the store, checkpointing as
    /// it goes. Follow with a plain [`explore`](crate::explore()) over
    /// the same configuration to assemble the document, then
    /// [`clear`](CheckpointedSweep::clear) the checkpoint.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] before any synthesis when the task's
    /// spec or a pass id in the flow does not resolve (matching
    /// [`crate::explore`](fn@crate::explore)'s contract).
    ///
    /// # Panics
    ///
    /// Panics if the engine has no store attached.
    pub fn run(&self) -> Result<ResumeOutcome, EngineError> {
        let store = self
            .engine
            .store()
            .expect("a checkpointed sweep needs an engine with a store attached");
        let workload = resolve(self.engine, std::slice::from_ref(self.task), self.flow)?.remove(0);
        let fingerprint = self.fingerprint()?;
        let total_points = self.task.grid.len();
        let mut completed: Vec<u32> = Vec::new();
        let mut frontier = ParetoArchive::new();
        let mut resumed = false;
        if self.resume {
            if let Lookup::Hit(payload) = store.load_checkpoint(fingerprint) {
                if let Ok(checkpoint) = decode_checkpoint(&payload) {
                    if checkpoint.schema_version == CHECKPOINT_SCHEMA_VERSION
                        && checkpoint.fingerprint == fingerprint
                    {
                        completed = checkpoint.completed;
                        completed.sort_unstable();
                        completed.retain(|&i| (i as usize) < total_points);
                        frontier = checkpoint.frontier;
                        resumed = !completed.is_empty();
                    }
                }
            }
        }
        let skipped = completed.len();
        let pending: Vec<u32> = (0..total_points as u32)
            .filter(|i| completed.binary_search(i).is_err())
            .collect();
        let mut checkpoints_written = 0;
        for chunk in pending.chunks(self.every.max(1)) {
            let points: Vec<(u32, u32)> =
                chunk.iter().map(|&i| self.task.grid[i as usize]).collect();
            let (_rows, candidates) =
                synthesize(self.engine, &[(&workload, &points)], self.flow, self.model).remove(0);
            frontier.extend(candidates);
            completed.extend_from_slice(chunk);
            completed.sort_unstable();
            let snapshot = SweepCheckpoint {
                schema_version: CHECKPOINT_SCHEMA_VERSION,
                fingerprint,
                completed: completed.clone(),
                frontier: frontier.clone(),
            };
            if store
                .save_checkpoint(fingerprint, &encode_checkpoint(&snapshot))
                .is_ok()
            {
                checkpoints_written += 1;
            }
        }
        Ok(ResumeOutcome {
            total_points,
            skipped,
            computed: pending.len(),
            checkpoints_written,
            resumed,
        })
    }

    /// The [`sweep_fingerprint`] of this configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Workload`] when the task's spec does not
    /// resolve.
    pub fn fingerprint(&self) -> Result<u64, EngineError> {
        sweep_fingerprint(self.engine, self.task, self.flow, self.model)
    }

    /// Removes this sweep's checkpoint from the engine's store — call
    /// once the final document has been assembled and emitted.
    pub fn clear(&self) {
        if let (Some(store), Ok(fingerprint)) = (self.engine.store(), self.fingerprint()) {
            store.remove_checkpoint(fingerprint);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;
    use crate::export::exploration_json;
    use rchls_reslib::Library;
    use rchls_store::ResultStore;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rchls-resume-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn task() -> ExploreTask {
        ExploreTask::new(
            "builtin:diffeq",
            vec![(5, 11), (6, 13), (7, 9), (4, 2), (6, 11)],
        )
    }

    fn session(store: &Arc<ResultStore>, jobs: usize) -> Engine {
        Engine::new(Library::table1())
            .with_jobs(jobs)
            .with_store(Arc::clone(store))
    }

    fn document(engine: &Engine, task: &ExploreTask) -> String {
        let flow = FlowSpec::default();
        let model = RedundancyModel::default();
        exploration_json(&explore(engine, std::slice::from_ref(task), &flow, model).unwrap())
    }

    fn baseline(task: &ExploreTask) -> String {
        document(&Engine::new(Library::table1()).with_jobs(1), task)
    }

    #[test]
    fn fingerprint_tracks_the_sweep_configuration() {
        let task = task();
        let engine = Engine::new(Library::table1());
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

    /// Checkpoints and shard documents are keyed by the fingerprint, so
    /// a silent change would orphan every one already written. The
    /// literal is the CI sweep's (`rchls sweep --workload builtin:diffeq
    /// --latencies 5,6,7 --areas 7,11`) as shard documents record it.
    #[test]
    fn fingerprint_of_the_ci_sweep_is_pinned() {
        let grid = [5, 6, 7]
            .into_iter()
            .flat_map(|l| [7, 11].map(|a| (l, a)))
            .collect();
        let fp = sweep_fingerprint(
            &Engine::new(Library::table1()),
            &ExploreTask::new("builtin:diffeq", grid),
            &FlowSpec::default(),
            RedundancyModel::default(),
        );
        assert_eq!(fp, Ok(11_150_032_256_022_472_317));
    }

    #[test]
    fn checkpointed_run_matches_the_plain_document() {
        let dir = scratch("full");
        let store = Arc::new(ResultStore::open(&dir).expect("store opens"));
        let task = task();
        let flow = FlowSpec::default();
        let engine = session(&store, 2);
        let sweep = CheckpointedSweep {
            engine: &engine,
            task: &task,
            flow: &flow,
            model: RedundancyModel::default(),
            every: 2,
            resume: false,
        };
        let outcome = sweep.run().unwrap();
        assert_eq!(outcome.total_points, 5);
        assert_eq!(outcome.skipped, 0);
        assert_eq!(outcome.computed, 5);
        assert_eq!(outcome.checkpoints_written, 3, "ceil(5 / 2) chunks");
        assert!(!outcome.resumed);
        // The checkpoint is live until cleared.
        let fingerprint = sweep.fingerprint().unwrap();
        assert!(matches!(store.load_checkpoint(fingerprint), Lookup::Hit(_)));
        assert_eq!(document(&engine, &task), baseline(&task));
        sweep.clear();
        assert!(matches!(store.load_checkpoint(fingerprint), Lookup::Miss));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_skips_checkpointed_points_and_reproduces_the_document() {
        let dir = scratch("resume");
        let store = Arc::new(ResultStore::open(&dir).expect("store opens"));
        let task = task();
        let flow = FlowSpec::default();
        let model = RedundancyModel::default();

        // Session 1 "dies" after warming grid points 0 and 1: the store
        // holds their results and a checkpoint naming them complete.
        {
            let engine = session(&store, 1);
            let workload = engine.workload(&task.workload).unwrap();
            let points = [task.grid[0], task.grid[1]];
            let (_rows, candidates) =
                synthesize(&engine, &[(&workload, &points)], &flow, model).remove(0);
            let mut frontier = ParetoArchive::new();
            frontier.extend(candidates);
            let fp = sweep_fingerprint(&engine, &task, &flow, model).unwrap();
            let snapshot = SweepCheckpoint {
                schema_version: CHECKPOINT_SCHEMA_VERSION,
                fingerprint: fp,
                completed: vec![0, 1],
                frontier,
            };
            store
                .save_checkpoint(fp, &encode_checkpoint(&snapshot))
                .expect("checkpoint writes");
        }

        // Session 2 resumes: skips the finished points, computes the rest,
        // and the assembled document is byte-identical to an uninterrupted
        // run.
        let engine = session(&store, 1);
        let sweep = CheckpointedSweep {
            engine: &engine,
            task: &task,
            flow: &flow,
            model,
            every: 10,
            resume: true,
        };
        let outcome = sweep.run().unwrap();
        assert!(outcome.resumed);
        assert_eq!(outcome.skipped, 2);
        assert_eq!(outcome.computed, 3);
        assert_eq!(document(&engine, &task), baseline(&task));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_or_corrupt_checkpoints_are_ignored() {
        let dir = scratch("foreign");
        let store = Arc::new(ResultStore::open(&dir).expect("store opens"));
        let task = task();
        let flow = FlowSpec::default();
        let engine = session(&store, 1);
        let sweep = CheckpointedSweep {
            engine: &engine,
            task: &task,
            flow: &flow,
            model: RedundancyModel::default(),
            every: 10,
            resume: true,
        };
        let fp = sweep.fingerprint().unwrap();

        // A checkpoint whose embedded fingerprint disagrees with its key.
        let snapshot = SweepCheckpoint {
            schema_version: CHECKPOINT_SCHEMA_VERSION,
            fingerprint: fp ^ 1,
            completed: vec![0, 1, 2, 3, 4],
            frontier: ParetoArchive::new(),
        };
        store
            .save_checkpoint(fp, &encode_checkpoint(&snapshot))
            .expect("checkpoint writes");
        let outcome = sweep.run().unwrap();
        assert!(!outcome.resumed, "mismatched fingerprint is not adopted");
        assert_eq!(outcome.computed, 5);

        // A checkpoint that does not decode at all.
        store
            .save_checkpoint(fp, "not a checkpoint")
            .expect("checkpoint writes");
        let outcome = sweep.run().unwrap();
        assert!(!outcome.resumed, "undecodable checkpoint is not adopted");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
