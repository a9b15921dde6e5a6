//! The session-oriented synthesis engine: interned inputs, a shared
//! fingerprint cache, and deterministic parallel batch execution.
//!
//! The per-call API ([`crate::Strategy::run`]) re-borrows its DFG and
//! library on every request; a service synthesizing many scenario-diverse
//! requests wants the opposite shape — set the session up once, then
//! stream jobs through it. An [`Engine`] owns that session state:
//!
//! * the resource library and every resolved workload are interned
//!   behind [`Arc`], so repeated jobs share one copy instead of cloning
//!   on the hot path;
//! * workloads are named by **spec strings** resolved through the
//!   [`rchls_workloads`] source registry (`builtin:fir16`,
//!   `random:64x8@7`, `file:path.dfg`, or any out-of-tree scheme), and
//!   the canonical spec — seed and all — is echoed in every outcome so
//!   a report alone reproduces its run;
//! * every job runs through the [`SynthCache`] keyed by content
//!   fingerprints, so structurally identical requests are answered once;
//! * [`Engine::synth_batch`] runs jobs on the engine's worker pool, at
//!   most `jobs` threads started on demand: the caller works through its
//!   own batch and idle pool threads help. Results come back in job
//!   order and are byte-identical at any worker count. Batches, the
//!   daemon (whose requests are pool tasks, see [`Engine::post`]), and
//!   every `rchls-explorer` sweep synthesize through it, and the CLI's
//!   `synth`, `validate` and `store verify` run through
//!   [`Engine::synth`]. The engine is the only way to run a cached
//!   synthesis.
//!
//! This module also hosts the pool, fingerprint, and cache primitives
//! the engine is built from.
//!
//! # Examples
//!
//! ```
//! use rchls_core::engine::{Engine, SynthJob};
//! use rchls_reslib::Library;
//!
//! let engine = Engine::new(Library::table1()).with_jobs(2);
//! let jobs = vec![
//!     SynthJob::new("builtin:figure4a", 6, 4),
//!     SynthJob::new("random:16x4@7", 8, 8).with_strategy("combined"),
//! ];
//! let batch = engine.run_batch(&jobs);
//! assert_eq!(batch.outcomes.len(), 2);
//! assert!(batch.outcomes.iter().all(|o| o.report.is_some()));
//! // The random workload's seed is echoed in the canonical spec.
//! assert_eq!(batch.outcomes[1].workload, "random:16x4@7");
//! ```

mod budget;
mod cache;
mod fingerprint;
mod memo;
mod pool;
mod starts;
pub mod store_tier;

pub use budget::CacheBudget;
use cache::KeyPrefix;
pub(crate) use cache::PartReader;
pub use cache::{CacheKey, CacheStats, SynthCache};
pub use fingerprint::{fingerprint, Fingerprint};
pub use memo::TableStats;
pub use pool::worker_count;
use pool::Pool;
pub use starts::StartsCache;
pub use store_tier::{Provenance, StoredEntry};

use crate::bounds::{Bounds, MAX_LATENCY};
use crate::error::SynthesisError;
use crate::flow::{self, FlowSpec, Strategy, SynthReport};
use crate::redundancy::RedundancyModel;
use rchls_dfg::Dfg;
use rchls_reslib::Library;
use rchls_workloads::WorkloadError;
use serde::{map_get, Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

/// An engine-level failure for one job.
///
/// Every variant's message is a pure function of the job's inputs (in
/// particular, infeasibility is reported canonically rather than with
/// the synthesizer's run-dependent detail), so batch outputs stay
/// byte-identical across worker counts and cache states.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The workload spec did not resolve through the source registry.
    Workload(WorkloadError),
    /// The job named an unregistered strategy id.
    UnknownStrategy(String),
    /// The job's flow named an unregistered pass id.
    Flow(SynthesisError),
    /// The job's latency bound is above [`MAX_LATENCY`], more control
    /// steps than the kernels size their per-step tables for.
    LatencyLimit {
        /// The latency bound asked for.
        latency: u32,
    },
    /// No design meets the job's bounds.
    Infeasible {
        /// The canonical workload spec.
        workload: String,
        /// The bounds that could not be met.
        bounds: Bounds,
        /// The strategy that found no design.
        strategy: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Workload(e) => write!(f, "{e}"),
            EngineError::UnknownStrategy(id) => {
                write!(f, "{id:?} is not a registered strategy")
            }
            EngineError::Flow(e) => write!(f, "{e}"),
            EngineError::LatencyLimit { latency } => write!(
                f,
                "latency bound {latency} exceeds the limit of {MAX_LATENCY} control steps"
            ),
            EngineError::Infeasible {
                workload,
                bounds,
                strategy,
            } => write!(f, "no {strategy} design for {workload} meets {bounds}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Workload(e) => Some(e),
            EngineError::Flow(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WorkloadError> for EngineError {
    fn from(e: WorkloadError) -> EngineError {
        EngineError::Workload(e)
    }
}

/// One synthesis job, fully described by value: a workload spec plus
/// bounds, strategy id, flow, and redundancy model.
///
/// Serializes flat (`workload`, `latency`, `area`, `strategy`, `flow`,
/// `redundancy`); deserialization accepts job files that omit
/// `strategy`, `flow`, and `redundancy`, which default to `"ours"`, the
/// default flow, and the default model — so a minimal batch entry is
/// `{"workload": "builtin:fir16", "latency": 12, "area": 8}`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SynthJob {
    /// The workload spec (resolved through the source registry).
    pub workload: String,
    /// Latency bound `Ld` in cycles (must be positive).
    pub latency: u32,
    /// Area bound `Ad` in normalized units (must be positive).
    pub area: u32,
    /// Strategy registry id.
    pub strategy: String,
    /// Pass composition.
    pub flow: FlowSpec,
    /// Redundancy growth model.
    pub redundancy: RedundancyModel,
}

impl SynthJob {
    /// A job with the default strategy (`ours`), flow, and model.
    ///
    /// # Panics
    ///
    /// Panics if either bound is zero.
    #[must_use]
    pub fn new(workload: impl Into<String>, latency: u32, area: u32) -> SynthJob {
        let bounds = Bounds::new(latency, area);
        SynthJob {
            workload: workload.into(),
            latency: bounds.latency,
            area: bounds.area,
            strategy: "ours".to_owned(),
            flow: FlowSpec::default(),
            redundancy: RedundancyModel::default(),
        }
    }

    /// Replaces the strategy id.
    #[must_use]
    pub fn with_strategy(mut self, id: impl Into<String>) -> SynthJob {
        self.strategy = id.into();
        self
    }

    /// Replaces the flow spec.
    #[must_use]
    pub fn with_flow(mut self, flow: FlowSpec) -> SynthJob {
        self.flow = flow;
        self
    }

    /// Replaces the redundancy model.
    #[must_use]
    pub fn with_redundancy(mut self, model: RedundancyModel) -> SynthJob {
        self.redundancy = model;
        self
    }

    /// The job's bounds.
    #[must_use]
    pub fn bounds(&self) -> Bounds {
        Bounds::new(self.latency, self.area)
    }
}

impl Deserialize for SynthJob {
    fn from_value(v: &Value) -> Result<SynthJob, serde::Error> {
        let entries = v
            .as_map()
            .ok_or_else(|| serde::Error::unexpected("map", v))?;
        let field = |name: &str| map_get(entries, name);
        let workload = String::from_value(
            field("workload").ok_or_else(|| serde::Error::missing_field("workload"))?,
        )?;
        let latency = u32::from_value(
            field("latency").ok_or_else(|| serde::Error::missing_field("latency"))?,
        )?;
        let area =
            u32::from_value(field("area").ok_or_else(|| serde::Error::missing_field("area"))?)?;
        if latency == 0 || area == 0 {
            return Err(serde::Error::custom(
                "latency and area bounds must be positive",
            ));
        }
        let mut job = SynthJob::new(workload, latency, area);
        if let Some(s) = field("strategy") {
            job.strategy = String::from_value(s)?;
        }
        if let Some(f) = field("flow") {
            job.flow = FlowSpec::from_value(f)?;
        }
        if let Some(r) = field("redundancy") {
            job.redundancy = RedundancyModel::from_value(r)?;
        }
        Ok(job)
    }
}

/// One job's result in a [`BatchReport`]: the canonical workload spec
/// (seed made explicit), the job facts, and either a report (wall time
/// scrubbed for determinism) or a deterministic error string.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobOutcome {
    /// Canonical workload spec (the input spec when resolution failed).
    pub workload: String,
    /// The job's latency bound.
    pub latency_bound: u32,
    /// The job's area bound.
    pub area_bound: u32,
    /// The job's strategy id.
    pub strategy: String,
    /// The synthesis report, diagnostics scrubbed; `None` on error.
    pub report: Option<SynthReport>,
    /// Why the job produced no design; `None` on success.
    pub error: Option<String>,
}

/// A whole batch's outcomes plus session counters — the
/// diagnostics-carrying document `rchls batch` serializes.
///
/// Byte-identical for the same jobs at any worker count *and any cache
/// budget*: outcomes are in job order, wall times are scrubbed, error
/// strings are canonical, and the cache fields count distinct
/// fingerprints ever interned — cumulative *sizes*, never hit/miss
/// tallies (which a budget's evictions skew) and never resident counts
/// (which eviction order skews). (Hit rates and resident bytes live in
/// the telemetry metrics registry, which makes no determinism promise.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchReport {
    /// Number of jobs submitted.
    pub jobs: usize,
    /// Distinct synthesis points memoized in the engine's cache so far
    /// (cumulative; eviction never decrements it).
    pub memoized_points: usize,
    /// Distinct uniform start pools interned by the session's
    /// [`StartsCache`] so far.
    pub starts_pools: usize,
    /// Distinct allocation-first designs interned by the session so far.
    pub alloc_designs: usize,
    /// Per-job outcomes, in job order.
    pub outcomes: Vec<JobOutcome>,
}

/// A workload interned by an [`Engine`]: the canonical spec plus the
/// shared graph.
#[derive(Debug, Clone)]
pub struct InternedWorkload {
    /// The canonical spec string.
    pub spec: String,
    /// The shared graph.
    pub dfg: Arc<Dfg>,
    /// The cache-key prefix of `dfg` under the engine's library. Private,
    /// so only the engine that computed it can pair it with a graph.
    prefix: KeyPrefix,
}

/// A synthesis session: one library, an open-ended stream of jobs.
///
/// See the [module docs](self) for the full story; in short, an engine
/// interns everything a job references, memoizes every synthesis point,
/// and runs batches in parallel with deterministic output.
#[derive(Debug)]
pub struct Engine {
    /// What pool threads run this engine's jobs on.
    session: Arc<Session>,
    /// The requested worker count; `0` means one worker per CPU.
    jobs: usize,
    budget: CacheBudget,
    workloads: RwLock<HashMap<String, InternedWorkload>>,
    /// The worker pool for `jobs`, built the first time it is needed, so
    /// that building an engine starts no thread and a caller that sets
    /// the count never reads the CPU count. Dropping it closes the pool.
    pool: OnceLock<Pool>,
}

/// The library and the session caches: one allocation, shared with the
/// pool threads that run the engine's jobs.
#[derive(Debug)]
struct Session {
    library: Library,
    cache: SynthCache,
}

/// A batch job resolved on its caller: the job, its interned workload,
/// and its strategy (`None`: the id did not resolve).
type Resolved = (
    SynthJob,
    Result<InternedWorkload, EngineError>,
    Option<Arc<dyn Strategy>>,
);

impl Engine {
    /// A session over `library` with one worker per CPU.
    #[must_use]
    pub fn new(library: Library) -> Engine {
        Engine {
            // `new_cyclic` allocates before it builds the session, and the
            // cache constructors are inlined, so the ~800-byte session is
            // written straight into the allocation: no stack copy, and the
            // engine costs what one `Arc<Library>` did.
            session: Arc::new_cyclic(|_| Session {
                library,
                cache: SynthCache::new(),
            }),
            jobs: 0,
            budget: CacheBudget::UNLIMITED,
            workloads: RwLock::new(HashMap::new()),
            pool: OnceLock::new(),
        }
    }

    /// Replaces the batch worker count (`0` = one worker per CPU). The
    /// worker count never changes results, only wall time.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Engine {
        self.jobs = jobs;
        self.pool = OnceLock::new();
        self
    }

    /// Applies a session cache budget across all four cache layers
    /// (synthesis reports, start pools, alloc designs, scratch arenas).
    /// The budget changes what stays *resident*, never what any request
    /// returns — evicted work is simply recomputed.
    #[must_use]
    pub fn with_cache_budget(mut self, budget: CacheBudget) -> Engine {
        self.budget = budget;
        self.session.cache.set_budget(budget);
        self
    }

    /// Attaches an on-disk [`rchls_store::ResultStore`] as the second
    /// cache tier: memory misses probe the store, fresh syntheses write
    /// back. Tiering changes where answers come from, never what they
    /// are — store-served reports are byte-identical (wall time
    /// scrubbed) to freshly computed ones in every deterministic
    /// artifact.
    #[must_use]
    pub fn with_store(self, store: Arc<rchls_store::ResultStore>) -> Engine {
        self.session.cache.set_store(store);
        self
    }

    /// The attached on-disk store, if any.
    #[must_use]
    pub fn store(&self) -> Option<&Arc<rchls_store::ResultStore>> {
        self.session.cache.store()
    }

    /// The session cache budget.
    #[must_use]
    pub fn cache_budget(&self) -> CacheBudget {
        self.budget
    }

    /// The session synthesis cache (and through it the starts cache and
    /// scratch pool).
    #[must_use]
    pub fn cache(&self) -> &SynthCache {
        &self.session.cache
    }

    /// Approximate resident bytes across the three memo layers plus the
    /// pooled scratch arenas — the number a budget bounds.
    #[must_use]
    pub fn resident_cache_bytes(&self) -> usize {
        self.tables()
            .iter()
            .map(|t| t.resident_bytes)
            .sum::<usize>()
            + self.cache().scratch_pool().pooled_bytes()
    }

    /// Entries evicted across all cache layers since construction.
    #[must_use]
    pub fn cache_evictions(&self) -> u64 {
        self.tables().iter().map(|t| t.evictions).sum()
    }

    /// The three memo tables: reports, start pools, alloc designs.
    fn tables(&self) -> [TableStats; 3] {
        let starts = self.cache().starts_cache();
        [self.cache().stats(), starts.stats(), starts.alloc_stats()]
    }

    /// The session library.
    #[must_use]
    pub fn library(&self) -> &Library {
        &self.session.library
    }

    /// The worker count: the most pool threads this engine runs.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.pool().workers()
    }

    /// The worker pool, built (with `0` resolved) on first use.
    fn pool(&self) -> &Pool {
        self.pool.get_or_init(|| Pool::new(self.jobs))
    }

    /// Runs `task` on the engine's worker pool, after the batch work
    /// already queued there. When the pool has no thread and cannot
    /// start one, `task` runs on the calling thread before this returns.
    /// The daemon posts one task per admitted request.
    pub fn post(&self, task: impl FnOnce() + Send + 'static) {
        self.pool().post(Box::new(task));
    }

    /// Hit/miss counters of the session cache.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache().stats().lookups
    }

    /// Distinct synthesis points memoized so far — cumulative over the
    /// session, independent of eviction, so it is identical at any
    /// worker count or cache budget.
    #[must_use]
    pub fn memoized_points(&self) -> usize {
        self.cache().stats().seen
    }

    /// Distinct uniform start pools interned so far (cumulative,
    /// eviction-independent).
    #[must_use]
    pub fn starts_pools(&self) -> usize {
        self.cache().starts_cache().stats().seen
    }

    /// Distinct allocation-first designs interned so far (cumulative,
    /// eviction-independent).
    #[must_use]
    pub fn alloc_designs(&self) -> usize {
        self.cache().starts_cache().alloc_stats().seen
    }

    /// Resolves a workload spec through the source registry, interning
    /// the result: the first resolution of a spec loads (or generates)
    /// the graph and fingerprints it into the cache-key prefix every
    /// later request on it reuses; every later resolution returns the
    /// shared [`Arc`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Workload`] when the spec does not resolve.
    pub fn workload(&self, spec: &str) -> Result<InternedWorkload, EngineError> {
        if let Some(found) = crate::sync::read_unpoisoned(&self.workloads).get(spec) {
            return Ok(found.clone());
        }
        let loaded = rchls_workloads::load_workload(spec)?;
        // The graph walk happens outside the write lock, so resolving a
        // large graph never stalls lookups of interned ones.
        let prefix = KeyPrefix::new(&loaded.dfg, self.library());
        let mut table = crate::sync::write_unpoisoned(&self.workloads);
        // Under the write lock, prefer any entry that appeared since the
        // read-lock miss — either this spelling (a racing resolver) or
        // the canonical one (`random:30x6` after `random:30x6@0`) — so
        // every spelling of a workload shares one graph.
        let entry = match table.get(spec).or_else(|| table.get(&loaded.spec)) {
            Some(existing) => existing.clone(),
            None => InternedWorkload {
                spec: loaded.spec.clone(),
                dfg: Arc::new(loaded.dfg),
                prefix,
            },
        };
        table
            .entry(spec.to_owned())
            .or_insert_with(|| entry.clone());
        // Index the canonical spelling too.
        table
            .entry(entry.spec.clone())
            .or_insert_with(|| entry.clone());
        Ok(entry)
    }

    /// Number of distinct workloads interned so far.
    #[must_use]
    pub fn interned_workloads(&self) -> usize {
        let table = crate::sync::read_unpoisoned(&self.workloads);
        let mut specs: Vec<&str> = table.values().map(|w| w.spec.as_str()).collect();
        specs.sort_unstable();
        specs.dedup();
        specs.len()
    }

    /// Synthesizes one job through the session cache.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] when the workload, strategy, or flow
    /// does not resolve, or when no design meets the bounds.
    pub fn synth(&self, job: &SynthJob) -> Result<SynthReport, EngineError> {
        let workload = self.workload(&job.workload)?;
        self.session
            .synth_resolved(job, &workload, flow::strategy(&job.strategy).as_deref())
    }

    /// Runs a batch in parallel on the engine's worker pool.
    ///
    /// Results are in job order and independent of the worker count.
    /// Workloads are resolved (and interned) up front on the calling
    /// thread, so a batch over `n` jobs with `k` distinct specs loads
    /// exactly `k` graphs.
    #[must_use]
    pub fn synth_batch(&self, jobs: &[SynthJob]) -> Vec<Result<SynthReport, EngineError>> {
        self.resolve_and_run(jobs).1
    }

    /// Runs a batch and assembles the deterministic outcome document.
    #[must_use]
    pub fn run_batch(&self, jobs: &[SynthJob]) -> BatchReport {
        let (resolved, results) = self.resolve_and_run(jobs);
        let outcomes = resolved
            .iter()
            .zip(results)
            .map(|((job, workload, _), result)| {
                // Echo the canonical spec so randomized runs are
                // reproducible from the outcome alone; echo the input
                // spec when resolution failed.
                let workload = workload
                    .as_ref()
                    .map_or_else(|_| job.workload.clone(), |w| w.spec.clone());
                let (report, error) = match result {
                    Ok(report) => (
                        Some(SynthReport {
                            diagnostics: report.diagnostics.scrubbed(),
                            ..report
                        }),
                        None,
                    ),
                    Err(e) => (None, Some(e.to_string())),
                };
                JobOutcome {
                    workload,
                    latency_bound: job.latency,
                    area_bound: job.area,
                    strategy: job.strategy.clone(),
                    report,
                    error,
                }
            })
            .collect();
        BatchReport {
            jobs: jobs.len(),
            memoized_points: self.memoized_points(),
            starts_pools: self.starts_pools(),
            alloc_designs: self.alloc_designs(),
            outcomes,
        }
    }

    /// Resolves every job's workload and strategy on the calling thread,
    /// then runs the jobs on the worker pool. Returns each job's
    /// resolution and result, in job order.
    ///
    /// Jobs whose strategy is a composite are dispatched after all the
    /// others, in job order within each group. A composite reads its
    /// parts from the session memo, and a part another worker is still
    /// computing is a slot it can only wait on; dispatched last, it
    /// mostly finds its parts done, and the workers spend the batch on
    /// the parts themselves.
    fn resolve_and_run(
        &self,
        jobs: &[SynthJob],
    ) -> (Arc<[Resolved]>, Vec<Result<SynthReport, EngineError>>) {
        let resolved: Arc<[Resolved]> = jobs
            .iter()
            .map(|job| {
                let workload = self.workload(&job.workload);
                (job.clone(), workload, flow::strategy(&job.strategy))
            })
            .collect();
        let composite = |&i: &usize| {
            let strategy = resolved[i].2.as_ref();
            strategy.is_some_and(|s| !s.parts().is_empty())
        };
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_key(composite);
        // Pool threads may outlive this call, so the batch owns what its
        // jobs read: the resolved jobs and the session.
        let (session, shared) = (Arc::clone(&self.session), Arc::clone(&resolved));
        let mut results = self.pool().run(order, move |&i| {
            let (job, workload, strategy) = &shared[i];
            let result = workload
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|workload| session.synth_resolved(job, workload, strategy.as_deref()));
            (i, result)
        });
        results.sort_unstable_by_key(|&(i, _)| i);
        (
            resolved,
            results.into_iter().map(|(_, result)| result).collect(),
        )
    }
}

impl Session {
    /// The cached synthesis of one job whose workload and strategy are
    /// already resolved (`None`: the strategy id did not resolve).
    /// Validation (flow, strategy, latency limit) happens before the
    /// cache so every failure mode has a canonical, order-independent
    /// message.
    fn synth_resolved(
        &self,
        job: &SynthJob,
        workload: &InternedWorkload,
        strategy: Option<&dyn Strategy>,
    ) -> Result<SynthReport, EngineError> {
        job.flow.resolve().map_err(EngineError::Flow)?;
        let strategy =
            strategy.ok_or_else(|| EngineError::UnknownStrategy(job.strategy.clone()))?;
        if job.latency > MAX_LATENCY {
            return Err(EngineError::LatencyLimit {
                latency: job.latency,
            });
        }
        self.cache
            .synthesize_with_workload(workload, &self.library, job, strategy)
            .ok_or_else(|| EngineError::Infeasible {
                workload: workload.spec.clone(),
                bounds: job.bounds(),
                strategy: job.strategy.clone(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Strategy, SynthRequest};

    fn engine() -> Engine {
        Engine::new(Library::table1())
    }

    #[test]
    fn engine_matches_the_per_call_api() {
        let e = engine();
        let job = SynthJob::new("builtin:figure4a", 6, 4);
        let via_engine = e.synth(&job).unwrap();
        let dfg = rchls_workloads::figure4a();
        let direct = flow::strategy("ours")
            .unwrap()
            .run(&SynthRequest::new(&dfg, e.library(), job.bounds()))
            .unwrap();
        assert_eq!(via_engine.design, direct.design);
    }

    #[test]
    fn workloads_are_interned_once_per_spec() {
        let e = engine();
        let a = e.workload("random:20x4@3").unwrap();
        let b = e.workload("random:20x4@3").unwrap();
        assert!(Arc::ptr_eq(&a.dfg, &b.dfg));
        // The non-canonical spelling shares the canonical entry.
        let c = e.workload("builtin:ewf").unwrap();
        assert!(!Arc::ptr_eq(&a.dfg, &c.dfg));
        assert_eq!(e.interned_workloads(), 2);
        let e2 = engine();
        let d = e2.workload("random:20x4").unwrap();
        assert_eq!(d.spec, "random:20x4@0");
        let d2 = e2.workload("random:20x4@0").unwrap();
        assert!(Arc::ptr_eq(&d.dfg, &d2.dfg));
        assert_eq!(e2.interned_workloads(), 1);
        // ... and in the opposite order: the canonical spelling first,
        // the defaulted one after, still one shared graph.
        let e3 = engine();
        let f = e3.workload("random:20x4@0").unwrap();
        let f2 = e3.workload("random:20x4").unwrap();
        assert!(Arc::ptr_eq(&f.dfg, &f2.dfg));
        assert_eq!(e3.interned_workloads(), 1);
    }

    #[test]
    fn repeated_jobs_hit_the_session_cache() {
        let e = engine();
        let job = SynthJob::new("builtin:diffeq", 6, 11);
        let first = e.synth(&job).unwrap();
        let second = e.synth(&job).unwrap();
        assert_eq!(first, second);
        assert_eq!(e.cache_stats().hits, 1);
        assert_eq!(e.cache_stats().misses, 1);
        assert_eq!(e.memoized_points(), 1);
    }

    #[test]
    fn batch_results_are_in_job_order_and_jobs_invariant() {
        let jobs: Vec<SynthJob> = (0..6)
            .flat_map(|i| {
                [
                    SynthJob::new("builtin:figure4a", 5 + i % 3, 4),
                    SynthJob::new(format!("random:12x3@{i}"), 8, 6).with_strategy("combined"),
                ]
            })
            .collect();
        let reference: Vec<_> = Engine::new(Library::table1())
            .with_jobs(1)
            .run_batch(&jobs)
            .outcomes;
        for workers in [2usize, 8] {
            let out = Engine::new(Library::table1())
                .with_jobs(workers)
                .run_batch(&jobs);
            assert_eq!(out.outcomes, reference, "workers = {workers}");
            assert_eq!(out.jobs, jobs.len());
        }
    }

    #[test]
    fn worker_count_resolves_as_the_pool_does() {
        assert_eq!(engine().jobs(), worker_count(0));
        assert_eq!(engine().with_jobs(3).jobs(), 3);
        // Building an engine starts no pool, and so no thread.
        let e = engine().with_jobs(2);
        assert!(e.pool.get().is_none());
        // A one-job batch needs no helper: the pool starts no thread.
        assert!(e.synth_batch(&[SynthJob::new("builtin:figure4a", 6, 4)])[0].is_ok());
        assert_eq!(e.pool().threads(), 0);
    }

    /// Answers as `baseline`, recording the thread and the overlap of
    /// every run. A run waits (at most ten seconds) until two runs have
    /// overlapped, so a batch that gets a helper shows both threads.
    struct Overlap;

    #[derive(Default)]
    struct Runs {
        active: usize,
        peak: usize,
        threads: Vec<std::thread::ThreadId>,
    }

    fn runs() -> &'static (std::sync::Mutex<Runs>, std::sync::Condvar) {
        static RUNS: OnceLock<(std::sync::Mutex<Runs>, std::sync::Condvar)> = OnceLock::new();
        RUNS.get_or_init(Default::default)
    }

    impl Strategy for Overlap {
        fn id(&self) -> &str {
            "test-overlap"
        }

        fn run(&self, request: &SynthRequest<'_>) -> Result<SynthReport, SynthesisError> {
            let (state, changed) = runs();
            let mut runs = state.lock().unwrap();
            runs.active += 1;
            runs.peak = runs.peak.max(runs.active);
            runs.threads.push(std::thread::current().id());
            changed.notify_all();
            let timeout = std::time::Duration::from_secs(10);
            let mut runs = changed
                .wait_timeout_while(runs, timeout, |runs| runs.peak < 2)
                .unwrap()
                .0;
            runs.active -= 1;
            drop(runs);
            flow::strategy("baseline").unwrap().run(request)
        }
    }

    #[test]
    fn batches_run_on_the_caller_and_one_reused_pool_thread() {
        let _ = flow::register_strategy(Arc::new(Overlap));
        let e = engine().with_jobs(2);
        let caller = std::thread::current().id();
        let mut helpers = Vec::new();
        for batch in 0..2 {
            *runs().0.lock().unwrap() = Runs::default();
            // Distinct bounds: no job joins another's computation.
            let jobs: Vec<SynthJob> = (0..4)
                .map(|i| {
                    SynthJob::new("builtin:figure4a", 6 + 4 * batch + i, 4)
                        .with_strategy("test-overlap")
                })
                .collect();
            assert_eq!(e.synth_batch(&jobs).len(), 4);
            let runs = runs().0.lock().unwrap();
            assert_eq!(runs.peak, 2, "batch {batch} ran two-way, never more");
            let threads: std::collections::HashSet<_> = runs.threads.iter().copied().collect();
            assert!(threads.contains(&caller));
            assert_eq!(threads.len(), 2, "batch {batch}: the caller and one helper");
            helpers.extend(threads.into_iter().filter(|&t| t != caller));
            drop(runs);
            // The helper is back in the pool before the next batch posts.
            e.pool().await_idle_thread();
        }
        assert_eq!(
            helpers[0], helpers[1],
            "one pool thread helped both batches"
        );
        assert_eq!(e.pool().threads(), 1);
    }

    #[test]
    fn batch_reports_scrub_wall_time() {
        let e = engine();
        let batch = e.run_batch(&[SynthJob::new("builtin:figure4a", 6, 4)]);
        let report = batch.outcomes[0].report.as_ref().unwrap();
        assert_eq!(report.diagnostics.wall_time_micros, 0);
        // ... while the direct API keeps the measured time.
        assert_eq!(batch.memoized_points, 1);
    }

    #[test]
    fn every_failure_mode_has_a_canonical_error() {
        let e = engine();
        let bad_workload = e.synth(&SynthJob::new("warp:9", 6, 4)).unwrap_err();
        assert!(matches!(bad_workload, EngineError::Workload(_)));
        assert!(bad_workload.to_string().contains("warp"));
        let bad_strategy = e
            .synth(&SynthJob::new("builtin:figure4a", 6, 4).with_strategy("nope"))
            .unwrap_err();
        assert!(matches!(bad_strategy, EngineError::UnknownStrategy(_)));
        let bad_flow = e
            .synth(
                &SynthJob::new("builtin:figure4a", 6, 4)
                    .with_flow(FlowSpec::default().with_scheduler("warp")),
            )
            .unwrap_err();
        assert!(matches!(bad_flow, EngineError::Flow(_)));
        let infeasible = e
            .synth(&SynthJob::new("builtin:figure4a", 3, 99))
            .unwrap_err();
        assert_eq!(
            infeasible.to_string(),
            "no ours design for builtin:figure4a meets Ld=3, Ad=99"
        );
        // Infeasibility is reported identically on the cached repeat.
        let again = e
            .synth(&SynthJob::new("builtin:figure4a", 3, 99))
            .unwrap_err();
        assert_eq!(infeasible, again);
    }

    /// An out-of-tree composite: the more reliable report of its parts.
    struct BestOf(&'static str, [&'static str; 2]);

    impl Strategy for BestOf {
        fn id(&self) -> &str {
            self.0
        }

        fn parts(&self) -> &[&str] {
            &self.1
        }

        fn run(&self, request: &SynthRequest<'_>) -> Result<SynthReport, SynthesisError> {
            let [a, b] = self.1.map(|id| request.part(id));
            let (a, b) = (a?, b?);
            let reliability = |r: &SynthReport| r.design.reliability.value();
            Ok(if reliability(&b) > reliability(&a) {
                b
            } else {
                a
            })
        }
    }

    #[test]
    fn out_of_tree_composites_read_their_parts_from_the_memo() {
        let _ = flow::register_strategy(Arc::new(BestOf("test-best-of", ["ours", "redundancy"])));
        let _ = flow::register_strategy(Arc::new(BestOf("test-bad-parts", ["nope", "combined"])));
        let e = engine().with_jobs(2);
        let job = |strategy: &str| SynthJob::new("builtin:figure4a", 6, 4).with_strategy(strategy);
        let jobs = ["test-best-of", "ours", "redundancy", "test-bad-parts"].map(job);
        let results = e.synth_batch(&jobs);
        // Dispatched after the jobs computing its parts, the composite
        // reads both from the memo.
        assert_eq!(e.cache_stats(), CacheStats { hits: 2, misses: 4 });
        let dfg = rchls_workloads::figure4a();
        let request = SynthRequest::new(&dfg, e.library(), job("ours").bounds());
        let direct = flow::strategy("test-best-of")
            .unwrap()
            .run(&request)
            .unwrap();
        let composite = results[0].as_ref().unwrap();
        assert_eq!(composite.design, direct.design);
        assert_eq!(
            composite.diagnostics.scrubbed(),
            direct.diagnostics.scrubbed()
        );
        // A part that does not resolve, or is itself a composite, is an
        // error of the composite's run, never a panic.
        for id in ["nope", "combined"] {
            assert_eq!(
                request.part(id).unwrap_err(),
                SynthesisError::UnknownPass {
                    kind: "part strategy".to_owned(),
                    id: id.to_owned()
                }
            );
        }
        assert!(matches!(results[3], Err(EngineError::Infeasible { .. })));
    }

    #[test]
    fn latency_bounds_past_the_limit_are_one_canonical_error() {
        let e = engine();
        let jobs = [
            SynthJob::new("builtin:diffeq", 4_000_000_000, 11),
            SynthJob::new("builtin:figure4a", MAX_LATENCY + 1, 4).with_strategy("combined"),
            SynthJob::new("builtin:figure4a", MAX_LATENCY, 4),
            SynthJob::new("builtin:diffeq", 6, 11),
        ];
        let results = e.synth_batch(&jobs);
        assert_eq!(
            results[0].as_ref().unwrap_err(),
            &EngineError::LatencyLimit {
                latency: 4_000_000_000
            }
        );
        assert_eq!(
            results[0].as_ref().unwrap_err().to_string(),
            "latency bound 4000000000 exceeds the limit of 65536 control steps"
        );
        assert_eq!(
            results[1].as_ref().unwrap_err().to_string(),
            "latency bound 65537 exceeds the limit of 65536 control steps"
        );
        // The limit itself is a bound like any other, and the rest of the
        // batch still runs.
        assert!(results[2].is_ok());
        assert_eq!(results[3].as_ref().unwrap(), &e.synth(&jobs[3]).unwrap());
        assert_eq!(e.memoized_points(), 2, "a rejected job reaches no cache");
    }

    #[test]
    fn parametric_strategy_ids_name_jobs() {
        let e = engine();
        let job = |strategy: &str| SynthJob::new("builtin:diffeq", 8, 14).with_strategy(strategy);
        let explicit = e.synth(&job("pipelined@ii=4")).unwrap();
        let direct = flow::Pipelined::with_ii(4)
            .run(&SynthRequest::new(
                &rchls_workloads::diffeq(),
                e.library(),
                job("pipelined@ii=4").bounds(),
            ))
            .unwrap();
        assert_eq!(explicit.design, direct.design);
        // `pipelined` and `pipelined@auto` are one strategy under one key.
        e.synth(&job("pipelined")).unwrap();
        e.synth(&job("pipelined@auto")).unwrap();
        assert_eq!(e.cache_stats(), CacheStats { hits: 1, misses: 2 });

        // Non-canonical spellings are per-job errors in a batch, and the
        // rest of the batch still runs.
        let mut jobs: Vec<SynthJob> = [
            "pipelined@ii=0",
            "pipelined@ii=03",
            "pipelined@ii=",
            "pipelined@ii=x",
            "ours@ii=2",
        ]
        .map(job)
        .to_vec();
        jobs.push(job("pipelined@ii=4"));
        let results = e.synth_batch(&jobs);
        for (result, job) in results.iter().zip(&jobs).take(jobs.len() - 1) {
            assert_eq!(
                result.as_ref().unwrap_err(),
                &EngineError::UnknownStrategy(job.strategy.clone())
            );
        }
        assert_eq!(results.last().unwrap().as_ref().unwrap(), &explicit);
    }

    #[test]
    fn malformed_file_workload_errors_surface_path_and_line_in_batch() {
        let dir = std::env::temp_dir().join("rchls-engine-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.dfg");
        std::fs::write(&path, "graph g\nop a add\na -> ghost\n").unwrap();
        let e = engine();
        let batch = e.run_batch(&[SynthJob::new(format!("file:{}", path.display()), 6, 4)]);
        let error = batch.outcomes[0].error.as_deref().unwrap();
        assert!(error.contains("broken.dfg"), "{error}");
        assert!(error.contains("line 3"), "{error}");
        assert!(error.contains("ghost"), "{error}");
    }

    #[test]
    fn jobs_deserialize_with_defaults() {
        let text = r#"[
            {"workload": "builtin:fir16", "latency": 12, "area": 8},
            {"workload": "random:24x4@9", "latency": 10, "area": 7,
             "strategy": "baseline",
             "flow": {"scheduler": "force-directed", "binder": "left-edge",
                      "victim": "max-delay", "refine": "greedy"}}
        ]"#;
        let jobs: Vec<SynthJob> = serde_json::from_str(text).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].strategy, "ours");
        assert_eq!(jobs[0].flow, FlowSpec::default());
        assert_eq!(jobs[1].strategy, "baseline");
        assert_eq!(jobs[1].flow.scheduler, "force-directed");
        // Serialize -> deserialize round-trips.
        let back: Vec<SynthJob> =
            serde_json::from_str(&serde_json::to_string(&jobs).unwrap()).unwrap();
        assert_eq!(back, jobs);
        // Zero bounds and missing fields are rejected.
        assert!(serde_json::from_str::<SynthJob>(
            r#"{"workload": "builtin:fir16", "latency": 0, "area": 8}"#
        )
        .is_err());
        assert!(serde_json::from_str::<SynthJob>(r#"{"latency": 1, "area": 8}"#).is_err());
    }

    #[test]
    fn batch_report_serializes_and_round_trips() {
        let e = engine();
        let batch = e.run_batch(&[
            SynthJob::new("builtin:figure4a", 6, 4),
            SynthJob::new("builtin:figure4a", 3, 99),
        ]);
        assert!(batch.outcomes[0].error.is_none());
        assert!(batch.outcomes[1].report.is_none());
        let json = serde_json::to_string_pretty(&batch).unwrap();
        let back: BatchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, batch);
    }
}

/// Single-flight tests of the memo tables: a request that arrives while
/// another fills its key joins that fill. The tests keep the ids they
/// had when the in-flight slots were a module of their own, and one
/// name dates from when a joiner helped the allocation search it
/// joined; a joiner now only waits (see the `memo` module docs).
#[cfg(test)]
mod flight {
    mod tests {
        use crate::engine::cache::CacheStats;
        use crate::engine::memo::{Fill, Memo};
        use std::sync::mpsc;
        use std::time::Duration;

        /// Key 7's value under facts 1, filled by `fill` on a miss.
        fn get(memo: &Memo<u32, String>, fill: impl FnOnce() -> Fill<String>) -> String {
            let filled = memo.get_or_fill(7, |f| *f == 1, || 1, |_| Ok::<_, ()>(fill()));
            String::clone(&filled.unwrap())
        }

        /// A request that arrives while the leader fills takes no part in
        /// the fill: it waits, and returns the leader's value as a hit and
        /// a `.joined`.
        #[test]
        fn a_joiner_arriving_mid_scan_helps_and_returns_the_leaders_value() {
            // The only table that records into `memo_test.*`.
            let memo = Memo::new(crate::obs::memo_test, |_, value: &String| value.capacity());
            let joined = || crate::obs::memo_test().joined.get();
            let before = joined();
            let (led, leading) = mpsc::channel();
            std::thread::scope(|scope| {
                let memo = &memo;
                let leader = scope.spawn(move || {
                    get(memo, || {
                        led.send(()).unwrap();
                        memo.await_joiners(7, 1);
                        Fill::Computed("a".into())
                    })
                });
                leading.recv().unwrap();
                let joiner = scope.spawn(|| get(memo, || Fill::Computed("unused".into())));
                assert_eq!(leader.join().unwrap(), "a");
                assert_eq!(joiner.join().unwrap(), "a");
            });
            assert_eq!(memo.stats().lookups, CacheStats { hits: 1, misses: 1 });
            assert_eq!(joined() - before, 1);
            assert!(memo.no_slots());
        }

        /// A joiner only waits: its own fill never runs, and it returns
        /// only once the leader has filled its entry and closed its slot.
        #[test]
        fn a_joiner_arriving_after_the_scan_closed_only_waits() {
            // Records into the report cache's metrics, which no test reads.
            let memo = Memo::new(crate::obs::synth_cache, |_, value: &String| {
                value.capacity()
            });
            let (led, leading) = mpsc::channel();
            let (go, finish) = mpsc::channel::<()>();
            std::thread::scope(|scope| {
                let memo = &memo;
                let leader = scope.spawn(move || {
                    get(memo, || {
                        led.send(()).unwrap();
                        let _ = finish.recv_timeout(Duration::from_secs(10));
                        Fill::Computed("a".into())
                    })
                });
                leading.recv().unwrap();
                let joiner = scope.spawn(|| get(memo, || panic!("a joiner never fills")));
                memo.await_joiners(7, 1);
                assert!(!joiner.is_finished(), "the joiner waits for the leader");
                go.send(()).unwrap();
                assert_eq!(leader.join().unwrap(), "a");
                assert_eq!(joiner.join().unwrap(), "a");
            });
            assert!(memo.no_slots());
            // The leader's entry is resident: the next request hits it.
            assert_eq!(get(&memo, || panic!("a hit never fills")), "a");
            assert_eq!(memo.stats().lookups, CacheStats { hits: 2, misses: 1 });
        }
    }
}
