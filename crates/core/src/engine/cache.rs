//! Memoization of synthesis reports keyed by a content fingerprint.
//!
//! A sweep re-synthesizes the same `(DFG, library, bounds, flow, model,
//! strategy)` point whenever grids overlap between runs, benchmarks share
//! structure, or a frontier is refined interactively. The [`SynthCache`]
//! makes every repeat near-free: reports are stored under a 64-bit
//! fingerprint of the *content* of all synthesis inputs — the flow's pass
//! ids and the strategy's [`fingerprint
//! token`](crate::Strategy::fingerprint_token), never enum
//! discriminants — so any structurally identical request, even from a
//! rebuilt [`Dfg`] value or an out-of-tree strategy, hits the cache.
//!
//! Fingerprinting the graph and library is the expensive part of a key
//! (a serialized walk of every node), and it is the same for every
//! request on one graph. FNV-1a folds bytes left to right, so a key splits
//! for free after that part: a `KeyPrefix` holds the state after
//! `(DFG, library)`, computed once per workload an engine interns, and
//! `KeyPrefix::key` finishes each request's key from it.

use crate::engine::budget::CacheBudget;
use crate::engine::fingerprint::Fingerprint;
use crate::engine::memo::{Fill, Memo, TableStats};
use crate::engine::store_tier::{self, Provenance, StoreOutcome};
use crate::engine::{InternedWorkload, SynthJob};
use crate::{
    Bounds, FlowSpec, RedundancyModel, Strategy, SynthReport, SynthRequest, SynthesisError,
};
use rchls_dfg::Dfg;
use rchls_reslib::Library;
use rchls_store::ResultStore;
use std::convert::Infallible;
use std::sync::{Arc, OnceLock};

/// The cache key: a content fingerprint of every input that can change a
/// synthesis result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(u64);

impl CacheKey {
    /// Fingerprints one synthesis request for a strategy, keyed by the
    /// flow's pass ids and the strategy's fingerprint token.
    ///
    /// This is the definition of a key. It walks the whole graph; an
    /// [`Engine`](crate::Engine) instead finishes each request's key from
    /// the `(DFG, library)` prefix it computed once when it interned the
    /// workload, which yields the same key.
    #[must_use]
    pub fn for_point(
        dfg: &Dfg,
        library: &Library,
        bounds: Bounds,
        flow: &FlowSpec,
        model: RedundancyModel,
        strategy_token: &str,
    ) -> CacheKey {
        KeyPrefix::walk(dfg, library).key(bounds, flow, model, strategy_token)
    }

    /// The raw 64-bit fingerprint.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// The fingerprint state after a request's `(DFG, library)`: the part of
/// a [`CacheKey`] that every request on one graph shares.
///
/// [`KeyPrefix::key`] finishes a key from it without touching the graph,
/// byte-identical to [`CacheKey::for_point`] over the same inputs, so
/// keys (and on-disk store entries) do not depend on which path made
/// them. A prefix is only meaningful next to the graph and library it was
/// computed from; [`SynthCache::synthesize_with_workload`] checks the
/// pairing in debug builds.
#[derive(Debug, Clone)]
pub(crate) struct KeyPrefix(Fingerprint);

impl KeyPrefix {
    /// Fingerprints `(dfg, library)` (the whole-graph walk), counted in
    /// the `synth_cache.key_prefixes` metric.
    #[must_use]
    pub(crate) fn new(dfg: &Dfg, library: &Library) -> KeyPrefix {
        crate::obs::synth_cache_key_prefixes().incr();
        KeyPrefix::walk(dfg, library)
    }

    fn walk(dfg: &Dfg, library: &Library) -> KeyPrefix {
        let mut fp = Fingerprint::new();
        fp.update(dfg);
        fp.update(library);
        KeyPrefix(fp)
    }

    /// The key of one request on this prefix's graph and library.
    #[must_use]
    pub(crate) fn key(
        &self,
        bounds: Bounds,
        flow: &FlowSpec,
        model: RedundancyModel,
        strategy_token: &str,
    ) -> CacheKey {
        let mut fp = self.0.clone();
        fp.update(&bounds);
        fp.update(flow);
        fp.update(&model);
        fp.update(strategy_token);
        CacheKey(fp.finish())
    }
}

/// Counters describing a cache's effectiveness so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that ran a fresh synthesis.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of requests served from the cache (`0.0` when empty).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// How a composite strategy's request reads its parts under an engine:
/// through the session report memo, each under the part's own key at the
/// composite job's point (see [`SynthRequest::part`]).
///
/// Single-flight slots are then taken in one order only: a composite's
/// report slot, then its parts' report slots, then start-pool and alloc
/// slots (the `memo` module docs give the argument).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PartReader<'a> {
    cache: &'a SynthCache,
    workload: &'a InternedWorkload,
    library: &'a Library,
    /// The composite's job: its bounds, flow and model, not its strategy.
    job: &'a SynthJob,
}

impl PartReader<'_> {
    /// The memoized report of `part` at the job's point; `None` when it
    /// is infeasible.
    pub(crate) fn read(&self, part: &dyn Strategy) -> Option<SynthReport> {
        self.cache
            .synthesize_with_workload(self.workload, self.library, self.job, part)
    }
}

/// The request facts a report is computed for: its bounds and strategy
/// token. They are cheap to compare, so a 64-bit fingerprint collision
/// between two requests is detected instead of answered with the wrong
/// design. (The other inputs (DFG, library, flow) vary far less across a
/// sweep, so the pair covers virtually all of the key diversity.)
type ReportFacts = (Bounds, String);

/// The session memo of synthesis reports.
///
/// Stores `Option<SynthReport>` per key: `None` records an *infeasible*
/// point, so repeated sweeps don't re-prove infeasibility either. The
/// reports are one memo table (see `engine::memo`): a table lock is never
/// held across a synthesis run, and concurrent misses on one key compute
/// once, the first leading and the rest joining it as hits. A leader's
/// fill step probes the on-disk store, when one is attached, before it
/// synthesizes, and writes a fresh result back.
///
/// Cached reports keep the wall time of the run that populated the entry;
/// callers assembling deterministic artifacts scrub it (see
/// [`crate::Diagnostics::scrubbed`]).
///
/// Under a [`CacheBudget`], every layer this cache owns (the report
/// table, the two [`StartsCache`](crate::engine::StartsCache) tables, and
/// the scratch pool) evicts least-recently-used entries to stay inside
/// its share — see [`Engine::with_cache_budget`](crate::Engine::with_cache_budget).
/// Eviction never changes outputs, only recompute cost.
///
/// Every session cache belongs to an [`Engine`](crate::Engine), which is
/// the only way to run a cached synthesis; [`Engine::cache`](crate::Engine::cache)
/// exposes this one for its counters and lower-level probes.
#[derive(Debug)]
pub struct SynthCache {
    reports: Memo<ReportFacts, Option<SynthReport>>,
    /// Session scratch arenas lent to every miss's synthesis run, so a
    /// sweep/batch over this cache allocates one arena per concurrent
    /// worker instead of per point.
    scratch: crate::scratch::ScratchPool,
    /// Session-interned uniform start pools (see
    /// [`StartsCache`](crate::engine::StartsCache)), shared by every
    /// refining flow this cache runs.
    starts: crate::engine::StartsCache,
    /// The optional on-disk second tier (see `SynthCache::set_store`):
    /// probed by a leader's fill step, written back after a fresh
    /// synthesis. Set once per session.
    store: OnceLock<Arc<ResultStore>>,
}

impl SynthCache {
    /// An empty cache.
    #[must_use]
    // Inlined so that `Engine::new` builds its session in place.
    #[inline(always)]
    pub(crate) fn new() -> SynthCache {
        SynthCache {
            reports: Memo::new(crate::obs::synth_cache, |(_, token), report| {
                token.capacity() + report.as_ref().map_or(0, SynthReport::approx_bytes)
            }),
            scratch: crate::scratch::ScratchPool::new(),
            starts: crate::engine::StartsCache::new(),
            store: OnceLock::new(),
        }
    }

    /// Runs `strategy` (the job's resolved strategy) on one job through
    /// the cache: returns the memoized report if the fingerprint is
    /// known, otherwise synthesizes, stores, and returns the result.
    /// Infeasibility maps to `None`.
    ///
    /// The key is finished from the workload's interned prefix, never
    /// from a fresh walk of the graph (debug builds re-derive it with
    /// [`CacheKey::for_point`] and assert the two agree). The workload's
    /// canonical spec rides into on-disk store entries as re-synthesis
    /// provenance (`rchls store verify`); it never affects the cache key
    /// or the result.
    ///
    /// A miss on a composite strategy (see [`Strategy::parts`]) runs it
    /// on a request that reads its parts ([`SynthRequest::part`]) back
    /// through this cache, each under the part's own key. A part is never
    /// a composite, so its own request reads no parts, and a hit runs no
    /// strategy at all.
    pub(crate) fn synthesize_with_workload(
        &self,
        workload: &InternedWorkload,
        library: &Library,
        job: &SynthJob,
        strategy: &dyn Strategy,
    ) -> Option<SynthReport> {
        let (dfg, bounds, flow, model) = (&*workload.dfg, job.bounds(), &job.flow, job.redundancy);
        let token = strategy.fingerprint_token();
        let key = workload.prefix.key(bounds, flow, model, &token);
        debug_assert_eq!(
            key,
            CacheKey::for_point(dfg, library, bounds, flow, model, &token),
            "key prefix paired with a graph or library it was not computed from"
        );
        let provenance = || {
            Some(Provenance {
                workload: workload.spec.clone(),
                flow: flow.clone(),
                model,
            })
        };
        self.get_or_compute_with(key, bounds, &token, provenance, || {
            let request = SynthRequest::new(dfg, library, bounds)
                .with_flow(flow.clone())
                .with_redundancy(model)
                .with_scratch_pool(&self.scratch)
                .with_starts_cache(&self.starts);
            if strategy.parts().is_empty() {
                return strategy.run(&request);
            }
            let reader = PartReader {
                cache: self,
                workload,
                library,
                job,
            };
            strategy.run(&request.with_part_reader(reader))
        })
    }

    /// Attaches the on-disk result store as the second cache tier. The
    /// first store attached to a session wins; later calls are ignored
    /// (tiering is a session-construction decision, not a runtime
    /// toggle).
    pub(crate) fn set_store(&self, store: Arc<ResultStore>) {
        let _ = self.store.set(store);
    }

    /// The attached on-disk store, if any.
    #[must_use]
    pub fn store(&self) -> Option<&Arc<ResultStore>> {
        self.store.get()
    }

    /// The session scratch pool misses synthesize on.
    #[must_use]
    pub fn scratch_pool(&self) -> &crate::scratch::ScratchPool {
        &self.scratch
    }

    /// The session-interned uniform start pools misses draw from.
    #[must_use]
    pub fn starts_cache(&self) -> &crate::engine::StartsCache {
        &self.starts
    }

    /// Applies a session-wide cache budget: the report table takes the
    /// synth share, the starts/alloc tables and the scratch pool take
    /// theirs. Layers over their new share evict immediately.
    pub(crate) fn set_budget(&self, budget: CacheBudget) {
        self.reports.set_budget(budget.synth_share());
        self.starts
            .set_budget(budget.starts_share(), budget.alloc_share());
        self.scratch.set_budget(budget.scratch_share());
    }

    /// Looks up `key`, computing and storing with `compute` on a miss.
    ///
    /// `bounds` and `strategy_token` double as a collision check: an
    /// entry found under `key` but recorded for a different request is a
    /// fingerprint collision, and the request is computed fresh (and not
    /// cached) rather than answered with the wrong design.
    pub fn get_or_compute(
        &self,
        key: CacheKey,
        bounds: Bounds,
        strategy_token: &str,
        compute: impl FnOnce() -> Result<SynthReport, SynthesisError>,
    ) -> Option<SynthReport> {
        self.get_or_compute_with(key, bounds, strategy_token, || None, compute)
    }

    /// [`SynthCache::get_or_compute`] with store provenance for the
    /// write-back path (see `SynthCache::synthesize_with_workload`),
    /// built only when a fresh result is written back.
    fn get_or_compute_with(
        &self,
        key: CacheKey,
        bounds: Bounds,
        strategy_token: &str,
        provenance: impl FnOnce() -> Option<Provenance>,
        compute: impl FnOnce() -> Result<SynthReport, SynthesisError>,
    ) -> Option<SynthReport> {
        let same = |(b, token): &ReportFacts| *b == bounds && token == strategy_token;
        let facts = || (bounds, strategy_token.to_owned());
        let Ok(report) = self.reports.get_or_fill(key.0, same, facts, |cacheable| {
            // A collision (not cacheable) skips the store: it is keyed
            // by the same fingerprint, so its entry is just as suspect.
            let Some(store) = self.store.get().filter(|_| cacheable) else {
                return Ok::<_, Infallible>(Fill::Computed(compute().ok()));
            };
            Ok(match store_tier::load(store, key, bounds, strategy_token) {
                StoreOutcome::Hit(report) => Fill::Loaded(report),
                StoreOutcome::Collision => Fill::Uncacheable(compute().ok()),
                StoreOutcome::Miss => {
                    let report = compute().ok();
                    store_tier::save(
                        store,
                        key,
                        bounds,
                        strategy_token,
                        report.as_ref(),
                        provenance(),
                    );
                    Fill::Computed(report)
                }
            })
        });
        Arc::unwrap_or_clone(report)
    }

    /// The report table's tallies and sizes.
    #[must_use]
    pub fn stats(&self) -> TableStats {
        self.reports.stats()
    }

    /// Approximate resident bytes of the report table.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.stats().resident_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::TABLE2;
    use crate::flow;
    use rchls_dfg::{DfgBuilder, OpKind};

    fn tiny() -> Dfg {
        DfgBuilder::new("tiny")
            .ops(&["a", "b"], OpKind::Add)
            .dep("a", "b")
            .build()
            .unwrap()
    }

    fn ours() -> Arc<dyn Strategy> {
        flow::strategy("ours").unwrap()
    }

    /// One request through `cache` with the Table 1 library and the
    /// default redundancy model, keyed from a prefix computed for it.
    fn synth(
        cache: &SynthCache,
        dfg: &Dfg,
        bounds: Bounds,
        flow_spec: &FlowSpec,
        strategy: &dyn Strategy,
    ) -> Option<SynthReport> {
        let lib = Library::table1();
        let workload = InternedWorkload {
            spec: format!("test:{}", dfg.name()),
            dfg: Arc::new(dfg.clone()),
            prefix: KeyPrefix::new(dfg, &lib),
        };
        let job = SynthJob::new(workload.spec.clone(), bounds.latency, bounds.area)
            .with_flow(flow_spec.clone());
        cache.synthesize_with_workload(&workload, &lib, &job, strategy)
    }

    #[test]
    fn identical_requests_hit() {
        let dfg = tiny();
        let cache = SynthCache::new();
        let flow_spec = FlowSpec::default();
        let first = synth(&cache, &dfg, Bounds::new(6, 4), &flow_spec, &*ours());
        let second = synth(&cache, &dfg, Bounds::new(6, 4), &flow_spec, &*ours());
        assert_eq!(first, second);
        assert_eq!(cache.stats().lookups, CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.stats().len, 1);
    }

    #[test]
    fn structurally_equal_graphs_share_entries() {
        // A rebuilt graph with the same content fingerprints identically.
        let cache = SynthCache::new();
        let combined = flow::strategy("combined").unwrap();
        for _ in 0..2 {
            let dfg = tiny();
            synth(
                &cache,
                &dfg,
                Bounds::new(6, 4),
                &FlowSpec::default(),
                &*combined,
            );
        }
        assert_eq!(cache.stats().lookups.hits, 1);
    }

    #[test]
    fn different_inputs_do_not_collide() {
        let dfg = tiny();
        let cache = SynthCache::new();
        let flow_spec = FlowSpec::default();
        for id in TABLE2 {
            synth(
                &cache,
                &dfg,
                Bounds::new(6, 4),
                &flow_spec,
                &*flow::strategy(id).unwrap(),
            );
        }
        synth(&cache, &dfg, Bounds::new(7, 4), &flow_spec, &*ours());
        synth(&cache, &dfg, Bounds::new(6, 5), &flow_spec, &*ours());
        // A different pass id is a different point too.
        synth(
            &cache,
            &dfg,
            Bounds::new(6, 4),
            &FlowSpec::default().with_victim("min-reliability-loss"),
            &*ours(),
        );
        // `combined` read its `ours` and `baseline` parts from the two
        // entries before it, which count as hits.
        assert_eq!(cache.stats().lookups, CacheStats { hits: 2, misses: 6 });
        assert_eq!(cache.stats().len, 6);
    }

    #[test]
    fn infeasibility_is_cached_too() {
        let dfg = tiny();
        let cache = SynthCache::new();
        for _ in 0..2 {
            let out = synth(
                &cache,
                &dfg,
                // Latency 1 is impossible for two dependent ops.
                Bounds::new(1, 4),
                &FlowSpec::default(),
                &*ours(),
            );
            assert!(out.is_none());
        }
        assert_eq!(cache.stats().lookups, CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn fingerprint_collisions_are_detected_not_served() {
        let dfg = tiny();
        let lib = Library::table1();
        let cache = SynthCache::new();
        let flow_spec = FlowSpec::default();
        let model = RedundancyModel::default();
        // Slack bounds settle on the reliable slow adders (latency 4);
        // the tight-latency request must use fast adders (latency 2).
        let wide = Bounds::new(6, 4);
        let tight = Bounds::new(2, 6);
        let key = CacheKey::for_point(&dfg, &lib, wide, &flow_spec, model, "ours");
        let run = |bounds: Bounds| ours().run(&SynthRequest::new(&dfg, &lib, bounds));
        let first = cache.get_or_compute(key, wide, "ours", || run(wide));
        // The same key arriving with a different declared request is a
        // collision: it must compute fresh, never serve the wide result.
        let second = cache.get_or_compute(key, tight, "ours", || run(tight));
        assert_ne!(first, second);
        assert_eq!(second.as_ref().map(|r| r.design.latency), Some(2));
        assert_eq!(cache.stats().lookups, CacheStats { hits: 0, misses: 2 });
        assert_eq!(cache.stats().len, 1, "a collided request is not cached");
        // The original entry still answers its own request.
        let again = cache.get_or_compute(key, wide, "ours", || {
            unreachable!("must be served from the cache")
        });
        assert_eq!(again, first);
        // A differing strategy token on the same key is a collision too.
        let other = cache.get_or_compute(key, wide, "pipelined@ii=2", || run(wide));
        assert_eq!(cache.stats().lookups.misses, 3);
        assert!(other.is_some());
    }

    #[test]
    fn budget_zero_evicts_everything_without_changing_outputs() {
        let dfg = tiny();
        let unlimited = SynthCache::new();
        let zero = SynthCache::new();
        zero.set_budget(CacheBudget::limited(0));
        let flow_spec = FlowSpec::default();
        let bounds = Bounds::new(6, 4);
        for _ in 0..2 {
            let cached = synth(&unlimited, &dfg, bounds, &flow_spec, &*ours()).unwrap();
            let evicted = synth(&zero, &dfg, bounds, &flow_spec, &*ours()).unwrap();
            // Only wall times may differ between a cache hit and a
            // recompute-after-eviction.
            assert_eq!(cached.design, evicted.design);
            assert_eq!(
                cached.diagnostics.scrubbed(),
                evicted.diagnostics.scrubbed()
            );
        }
        // The unlimited session memoized; the budget-0 session kept
        // nothing resident but still counted the distinct point.
        assert_eq!(unlimited.stats().lookups, CacheStats { hits: 1, misses: 1 });
        assert_eq!(zero.stats().lookups, CacheStats { hits: 0, misses: 2 });
        assert_eq!(zero.stats().len, 0);
        assert_eq!(zero.resident_bytes(), 0);
        assert_eq!(zero.stats().seen, 1);
        assert_eq!(zero.stats().evictions, 2);
        assert!(unlimited.resident_bytes() > 0);
        assert_eq!(unlimited.stats().evictions, 0);
        assert_eq!(unlimited.stats().seen, 1);
    }

    #[test]
    fn a_poisoned_lock_does_not_wedge_the_cache() {
        let dfg = tiny();
        let cache = SynthCache::new();
        let flow_spec = FlowSpec::default();
        let first = synth(&cache, &dfg, Bounds::new(6, 4), &flow_spec, &*ours());
        // Panic while holding the memo-table lock, as a panicking request
        // in a shared session would.
        let poisoner = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = cache.reports.table().lock().unwrap();
                    panic!("poison the cache lock");
                })
                .join()
        });
        assert!(poisoner.is_err());
        assert!(cache.reports.table().is_poisoned());
        // The session keeps serving: the memoized entry still answers.
        let second = synth(&cache, &dfg, Bounds::new(6, 4), &flow_spec, &*ours());
        assert_eq!(first, second);
        assert_eq!(cache.stats().lookups, CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn prefix_keys_equal_full_keys() {
        let lib = Library::table1();
        let mut specs: Vec<String> = rchls_workloads::all_benchmarks()
            .into_iter()
            .map(|(name, _)| format!("builtin:{name}"))
            .collect();
        specs.extend(["random:24x4", "random:64x6", "random:256x16"].map(String::from));
        let flows = [
            FlowSpec::default(),
            FlowSpec::default().with_scheduler("force-directed"),
            FlowSpec::default().with_victim("min-reliability-loss"),
        ];
        let models = [RedundancyModel::DuplexAndNmr, RedundancyModel::NmrOnly];
        let tokens = ["ours", "combined", "baseline", "pipelined@ii=2"];
        let mut seen = std::collections::HashSet::new();
        for spec in &specs {
            let dfg = rchls_workloads::load_workload(spec).unwrap().dfg;
            // One prefix serves every request on the graph.
            let prefix = KeyPrefix::new(&dfg, &lib);
            for bounds in [Bounds::new(12, 8), Bounds::new(6, 11)] {
                for flow_spec in &flows {
                    for model in models {
                        for token in tokens {
                            let key = prefix.key(bounds, flow_spec, model, token);
                            let full =
                                CacheKey::for_point(&dfg, &lib, bounds, flow_spec, model, token);
                            assert_eq!(
                                key, full,
                                "{spec} {bounds} {flow_spec:?} {model:?} {token}"
                            );
                            seen.insert(key);
                        }
                    }
                }
            }
        }
        // Every input part moves the key.
        assert_eq!(
            seen.len(),
            specs.len() * 2 * flows.len() * models.len() * tokens.len()
        );
    }

    #[test]
    fn keys_keep_their_stored_values() {
        // On-disk store entries live under these keys: a change to the
        // key's byte order must fail here, not orphan every store.
        let lib = Library::table1();
        let pinned = [
            ("builtin:fir16", 12, 8, "ours", 0x83eb_6bb5_cc0b_4e61),
            ("builtin:diffeq", 6, 11, "combined", 0x85b4_8223_49f4_27a8),
            (
                "random:64x6@2001",
                16,
                16,
                "baseline",
                0xba7c_b4f2_5afc_85e2,
            ),
            (
                "random:512x16@2005",
                64,
                256,
                "baseline",
                0x0337_6b38_d8e3_90a9,
            ),
        ];
        for (spec, latency, area, token, raw) in pinned {
            let dfg = rchls_workloads::load_workload(spec).unwrap().dfg;
            let key = CacheKey::for_point(
                &dfg,
                &lib,
                Bounds::new(latency, area),
                &FlowSpec::default(),
                RedundancyModel::default(),
                token,
            );
            assert_eq!(
                key.raw(),
                raw,
                "{spec} {latency}/{area} {token}: {:#018x}",
                key.raw()
            );
        }
    }

    #[test]
    fn hit_rate_is_reported() {
        let stats = CacheStats { hits: 3, misses: 1 };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    /// A fresh store root under the system temp dir, unique per test.
    fn store_at(tag: &str) -> Arc<ResultStore> {
        let root =
            std::env::temp_dir().join(format!("rchls-core-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        Arc::new(ResultStore::open(root).expect("temp store opens"))
    }

    /// A session cache tiered over an existing store root.
    fn session_over(store: &Arc<ResultStore>) -> SynthCache {
        let cache = SynthCache::new();
        cache.set_store(Arc::clone(store));
        cache
    }

    #[test]
    fn store_tier_round_trips_across_sessions() {
        let store = store_at("roundtrip");
        let dfg = tiny();
        let flow_spec = FlowSpec::default();
        let bounds = Bounds::new(6, 4);

        let cold = session_over(&store);
        let first = synth(&cold, &dfg, bounds, &flow_spec, &*ours()).unwrap();
        assert_eq!(cold.stats().lookups, CacheStats { hits: 0, misses: 1 });

        // A brand-new session over the same root answers from disk:
        // same design, same scrubbed diagnostics, no synthesis run.
        let warm = session_over(&store);
        let second = synth(&warm, &dfg, bounds, &flow_spec, &*ours()).unwrap();
        assert_eq!(warm.stats().lookups, CacheStats { hits: 1, misses: 0 });
        assert_eq!(first.design, second.design);
        assert_eq!(first.diagnostics.scrubbed(), second.diagnostics);
        // The store keeps wall-time-scrubbed diagnostics, so store-served
        // reports are deterministic as-is.
        assert_eq!(second.diagnostics.wall_time_micros, 0);
        // The hit was promoted into the memory tier: the cumulative
        // point count matches a cold-computed session, and the next
        // lookup never touches disk.
        assert_eq!(warm.stats().seen, 1);
        let third = synth(&warm, &dfg, bounds, &flow_spec, &*ours()).unwrap();
        assert_eq!(third, second);
        assert_eq!(warm.stats().lookups, CacheStats { hits: 2, misses: 0 });
    }

    #[test]
    fn store_tier_records_infeasibility_too() {
        let store = store_at("infeasible");
        let dfg = tiny();
        let flow_spec = FlowSpec::default();
        // Latency 1 is impossible for two dependent ops.
        let bounds = Bounds::new(1, 4);
        let cold = session_over(&store);
        assert!(synth(&cold, &dfg, bounds, &flow_spec, &*ours()).is_none());
        let warm = session_over(&store);
        assert!(synth(&warm, &dfg, bounds, &flow_spec, &*ours()).is_none());
        assert_eq!(warm.stats().lookups, CacheStats { hits: 1, misses: 0 });
    }

    #[test]
    fn corrupt_store_entries_are_recomputed_never_served() {
        let store = store_at("corrupt");
        let dfg = tiny();
        let flow_spec = FlowSpec::default();
        let bounds = Bounds::new(6, 4);
        let cold = session_over(&store);
        let first = synth(&cold, &dfg, bounds, &flow_spec, &*ours()).unwrap();

        // Truncate every live entry file behind the store's back.
        let mut corrupted = 0;
        for key in store.keys() {
            let rchls_store::Lookup::Hit(_) = store.load(key) else {
                panic!("cold entries load");
            };
            corrupted += 1;
        }
        assert_eq!(corrupted, 1);
        fn truncate_all(dir: &std::path::Path) {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    truncate_all(&path);
                } else {
                    let text = std::fs::read_to_string(&path).unwrap();
                    std::fs::write(&path, &text[..text.len() / 2]).unwrap();
                }
            }
        }
        truncate_all(&store.root().join("objects"));

        // The warm session quarantines, recomputes, and matches.
        let warm = session_over(&store);
        let second = synth(&warm, &dfg, bounds, &flow_spec, &*ours()).unwrap();
        assert_eq!(warm.stats().lookups, CacheStats { hits: 0, misses: 1 });
        assert_eq!(first.design, second.design);
        assert_eq!(store.stats().quarantined, 1);
        // The recompute wrote a clean entry back.
        let healed = session_over(&store);
        let third = synth(&healed, &dfg, bounds, &flow_spec, &*ours()).unwrap();
        assert_eq!(healed.stats().lookups, CacheStats { hits: 1, misses: 0 });
        assert_eq!(second.design, third.design);
    }

    #[test]
    fn undecodable_store_payloads_are_quarantined() {
        let store = store_at("undecodable");
        let dfg = tiny();
        let lib = Library::table1();
        let flow_spec = FlowSpec::default();
        let model = RedundancyModel::default();
        let bounds = Bounds::new(6, 4);
        let key = CacheKey::for_point(&dfg, &lib, bounds, &flow_spec, model, "ours");
        // A valid envelope whose payload is not a StoredEntry — what an
        // engine schema change would leave behind.
        store.save(key.raw(), r#"{"era": "older-engine"}"#).unwrap();
        let cache = session_over(&store);
        assert!(synth(&cache, &dfg, bounds, &flow_spec, &*ours()).is_some());
        assert_eq!(cache.stats().lookups, CacheStats { hits: 0, misses: 1 });
        assert_eq!(store.stats().quarantined, 1);
    }

    #[test]
    fn store_collisions_compute_fresh_and_keep_the_entry() {
        let store = store_at("collision");
        let dfg = tiny();
        let lib = Library::table1();
        let flow_spec = FlowSpec::default();
        let model = RedundancyModel::default();
        let wide = Bounds::new(6, 4);
        let tight = Bounds::new(2, 6);
        let key = CacheKey::for_point(&dfg, &lib, wide, &flow_spec, model, "ours");
        let run = |bounds: Bounds| ours().run(&SynthRequest::new(&dfg, &lib, bounds));

        let first = session_over(&store).get_or_compute(key, wide, "ours", || run(wide));
        // A different request arriving under the same fingerprint in a
        // fresh session collides against the *disk* entry: computed
        // fresh, not written back.
        let colliding = session_over(&store);
        let second = colliding.get_or_compute(key, tight, "ours", || run(tight));
        assert_ne!(first, second);
        assert_eq!(second.as_ref().map(|r| r.design.latency), Some(2));
        assert_eq!(colliding.stats().lookups, CacheStats { hits: 0, misses: 1 });
        // The original entry survived and still answers its own request.
        let again = session_over(&store).get_or_compute(key, wide, "ours", || {
            unreachable!("must be served from the store")
        });
        assert_eq!(
            again.as_ref().map(|r| r.design.clone()),
            first.as_ref().map(|r| r.design.clone())
        );
    }
}
