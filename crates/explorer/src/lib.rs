//! Parallel design-space exploration for reliability-centric HLS.
//!
//! The paper's entire evaluation is a design-space sweep: synthesize the
//! same data-flow graph under a grid of `(latency, area)` bounds with
//! three strategies, and compare. This crate turns that one-off pattern
//! into reusable sweeps over the session [`Engine`](rchls_core::Engine):
//!
//! * [`explore`](fn@explore) — turns each [`ExploreTask`] (a workload spec plus its
//!   grid) into engine jobs and runs them through
//!   [`Engine::synth_batch`](rchls_core::Engine::synth_batch), so a sweep
//!   shares the engine's interned workloads, its fingerprint cache and
//!   store tier, and its worker pool (a parallel run is
//!   byte-identical to a serial one, and a killed sweep rerun over the
//!   same store synthesizes only the points it had not finished);
//! * [`ParetoArchive`] — maintains the non-dominated frontier over
//!   achieved `(latency, area, reliability)` with dominance pruning and
//!   a deterministic iteration order;
//! * [`shard`] — split a grid across processes and merge the pieces
//!   losslessly;
//! * [`export`] — JSON and CSV renderings of frontiers and sweep tables.
//!
//! Strategies and passes are addressed by registry id through the
//! [`rchls_core::Strategy`] trait, so out-of-tree strategies sweep and
//! cache exactly like built-ins, and every feasible point carries the
//! [`rchls_core::Diagnostics`] of its run (wall time scrubbed so
//! artifacts stay deterministic).
//!
//! # Examples
//!
//! Explore two benchmarks in parallel and print the Pareto frontier:
//!
//! ```
//! use rchls_core::{Engine, FlowSpec, RedundancyModel};
//! use rchls_explorer::{explore, ExploreTask};
//! use rchls_reslib::Library;
//!
//! let engine = Engine::new(Library::table1()).with_jobs(4);
//! let tasks = vec![
//!     ExploreTask::new("builtin:figure4a", vec![(5, 4), (6, 6)]),
//!     ExploreTask::new("builtin:diffeq", vec![(6, 11), (7, 9)]),
//! ];
//! let (flow, model) = (FlowSpec::default(), RedundancyModel::default());
//! let out = explore(&engine, &tasks, &flow, model)?;
//! assert_eq!(out.sweeps.len(), 2);
//! assert!(!out.frontier.is_empty());
//! // Re-running the same tasks is answered entirely from the cache.
//! let before = engine.cache_stats().misses;
//! assert_eq!(explore(&engine, &tasks, &flow, model)?, out);
//! assert_eq!(engine.cache_stats().misses, before);
//! println!("{}", rchls_explorer::export::frontier_table(&out.frontier));
//! # Ok::<(), rchls_core::EngineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod explore;
pub mod export;
mod pareto;
pub mod shard;

pub use explore::{default_grid, explore, BenchmarkSweep, Exploration, ExploreTask};
pub use pareto::{FrontierPoint, ParetoArchive};
pub use shard::{explore_shard, merge, sweep_fingerprint, MergeError, SweepShard};
