//! Session interning of uniform feasible start pools.
//!
//! Every refining flow (the `"greedy"` pass, the `"redundancy"`
//! strategy) begins by scheduling and binding **every uniform
//! one-version-per-class assignment** that meets the bounds — a pool
//! that depends only on `(graph, library, bounds, scheduler, binder)`.
//! Sweeps and batches hit the same pool over and over across strategies
//! and flows that differ only in their victim/refine slots; a
//! [`StartsCache`] computes each pool once per session and replays it
//! (including the deterministic scheduler/binder *call counts* the fresh
//! computation would have booked, so diagnostics stay byte-identical
//! between a cache hit and a miss — only the wall time disappears).
//!
//! The cache is owned by the session [`SynthCache`](crate::engine::SynthCache)
//! alongside the scratch pool and travels to every
//! [`Synthesizer`](crate::Synthesizer) through the
//! [`SynthRequest`](crate::SynthRequest), so engine batches, explorer
//! sweeps, and CLI sweeps all share one pool table per session.
//!
//! Workers that miss on the same key at the same time compute it once:
//! the first leads, and the others join its single-flight slot and
//! answer from the value it publishes. Joiners on an allocation search
//! help scan it; joiners on a start pool only wait.

use crate::alloc_search::{
    best_allocation_design_diag, best_allocation_design_shared, AllocSearch,
};
use crate::bounds::Bounds;
use crate::engine::budget::BudgetedTable;
use crate::engine::cache::CacheStats;
use crate::engine::fingerprint::Fingerprint;
use crate::engine::flight::{Claim, Flights, Leader};
use crate::error::SynthesisError;
use crate::flow::{Diagnostics, FlowState};
use crate::synth::Synthesizer;
use rchls_bind::{Assignment, Binding};
use rchls_sched::Schedule;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One interned pool plus the request facts that detect fingerprint
/// collisions and the pass-call counts to replay on every hit.
#[derive(Debug, Clone)]
struct StartsEntry {
    bounds: Bounds,
    scheduler: String,
    binder: String,
    states: Vec<FlowState>,
    sched_calls: u32,
    bind_calls: u32,
}

impl StartsEntry {
    /// Approximate bytes this entry keeps resident — the size-accounting
    /// input for the cache's LRU budget.
    fn approx_bytes(&self) -> usize {
        size_of::<StartsEntry>()
            + self.scheduler.capacity()
            + self.binder.capacity()
            + self
                .states
                .iter()
                .map(FlowState::approx_bytes)
                .sum::<usize>()
    }
}

/// One interned allocation-first design (see
/// [`crate::alloc_search::best_allocation_design_diag`]) plus the
/// completeness flag its search reported.
#[derive(Debug, Clone)]
struct AllocEntry {
    bounds: Bounds,
    design: Option<(Assignment, Schedule, Binding)>,
    cap_hit: bool,
}

impl AllocEntry {
    /// Approximate bytes this entry keeps resident — the size-accounting
    /// input for the cache's LRU budget.
    fn approx_bytes(&self) -> usize {
        size_of::<AllocEntry>()
            + self.design.as_ref().map_or(0, |(a, s, b)| {
                a.approx_heap_bytes() + s.approx_heap_bytes() + b.approx_heap_bytes()
            })
    }
}

/// The request facts a start pool is computed for: bounds, scheduler
/// id and binder id. Entries with the same key but other facts are
/// fingerprint collisions.
type PoolFacts = (Bounds, String, String);

/// Where a request's answer comes from.
enum Source<'a, E, F, S> {
    /// The table, or a computation in flight (`true`: the caller waited
    /// on one), had the entry.
    Hit(E, bool),
    /// An entry or computation with the same key but other facts: compute
    /// fresh and leave the result uncached.
    Collision,
    /// Nobody had it: the caller computes, inserts, then publishes.
    Lead(Leader<'a, F, S, E>),
}

/// Finds the answer to a request for `key` in `table` or among its
/// `flights`, or makes the caller the leader of its computation. `same`
/// tells an entry of the request's facts from a collision; a caller that
/// joins a computation runs `help` on the work its leader opens.
fn find<'a, E: Clone, F: PartialEq, S>(
    table: &Mutex<BudgetedTable<E>>,
    flights: &'a Flights<F, S, E>,
    key: u64,
    same: impl Fn(&E) -> bool,
    facts: impl FnOnce() -> F,
    help: impl FnMut(&S),
) -> Source<'a, E, F, S> {
    let lookup = || {
        crate::sync::lock_unpoisoned(table).get(key).map(|entry| {
            if same(entry) {
                Source::Hit(entry.clone(), false)
            } else {
                Source::Collision
            }
        })
    };
    if let Some(found) = lookup() {
        return found;
    }
    let leader = match flights.claim(key, facts(), help) {
        Claim::Lead(leader) => leader,
        Claim::Joined(entry) => return Source::Hit(entry, true),
        Claim::Collision => return Source::Collision,
    };
    // A leader may have inserted the entry and retired its slot between
    // the lookup and the claim.
    match lookup() {
        Some(Source::Hit(entry, _)) => {
            leader.publish(entry.clone());
            Source::Hit(entry, false)
        }
        Some(found) => found,
        None => Source::Lead(leader),
    }
}

/// A thread-safe memo table of refine-portfolio ingredients: the uniform
/// feasible start pools (keyed by a content fingerprint of `(dfg,
/// library, bounds, scheduler id, binder id)`) and the allocation-first
/// designs (keyed by `(dfg, library, bounds)` — the allocation search
/// runs its own list scheduler, independent of the flow's passes).
///
/// Mirrors the [`SynthCache`](crate::engine::SynthCache) locking
/// discipline — a table lock is never held across a computation — and
/// adds single-flight slots (see `engine::flight`): a miss on a key
/// another worker is already computing joins that computation instead
/// of repeating it. A joiner on an allocation search helps scan it; a
/// joiner on a start pool only waits. Joiners count as hits, so misses
/// equal the distinct keys computed at any worker count. A fingerprint
/// collision (an entry or in-flight computation whose request facts
/// differ) is computed fresh and left uncached rather than answered
/// wrongly.
#[derive(Default)]
pub struct StartsCache {
    entries: Mutex<BudgetedTable<StartsEntry>>,
    alloc: Mutex<BudgetedTable<AllocEntry>>,
    pool_flights: Flights<PoolFacts, (), StartsEntry>,
    alloc_flights: Flights<Bounds, AllocSearch, AllocEntry>,
    hits: AtomicU64,
    misses: AtomicU64,
    alloc_hits: AtomicU64,
    alloc_misses: AtomicU64,
}

impl StartsCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> StartsCache {
        StartsCache::default()
    }

    /// Number of *resident* interned pools. Under a budget this can
    /// shrink; for the deterministic ever-interned count use
    /// [`StartsCache::seen_len`].
    #[must_use]
    pub fn len(&self) -> usize {
        crate::sync::lock_unpoisoned(&self.entries).len()
    }

    /// `true` when no pool is currently interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of *resident* interned allocation-first designs (see
    /// [`StartsCache::alloc_seen_len`] for the deterministic count).
    #[must_use]
    pub fn alloc_len(&self) -> usize {
        crate::sync::lock_unpoisoned(&self.alloc).len()
    }

    /// Number of distinct start pools ever interned — independent of
    /// eviction, so deterministic documents report this.
    #[must_use]
    pub fn seen_len(&self) -> usize {
        crate::sync::lock_unpoisoned(&self.entries).seen_len()
    }

    /// Number of distinct allocation-first designs ever interned.
    #[must_use]
    pub fn alloc_seen_len(&self) -> usize {
        crate::sync::lock_unpoisoned(&self.alloc).seen_len()
    }

    /// Approximate resident bytes across both tables.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        crate::sync::lock_unpoisoned(&self.entries).resident_bytes()
            + crate::sync::lock_unpoisoned(&self.alloc).resident_bytes()
    }

    /// Entries evicted from both tables since construction.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        crate::sync::lock_unpoisoned(&self.entries).evictions()
            + crate::sync::lock_unpoisoned(&self.alloc).evictions()
    }

    /// Applies the session budget's shares to the pool and alloc-design
    /// tables, evicting immediately when over.
    pub(crate) fn set_budget(&self, pools: Option<usize>, alloc: Option<usize>) {
        let evicted = crate::sync::lock_unpoisoned(&self.entries).set_budget(pools);
        crate::obs::starts_cache_evictions().add(evicted);
        let evicted = crate::sync::lock_unpoisoned(&self.alloc).set_budget(alloc);
        crate::obs::alloc_cache_evictions().add(evicted);
    }

    /// Hit/miss counters for the uniform start pool table. Collisions
    /// count as misses (the pool is computed fresh); joining an
    /// in-flight computation counts as a hit.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Hit/miss counters for the allocation-first design table.
    #[must_use]
    pub fn alloc_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.alloc_hits.load(Ordering::Relaxed),
            misses: self.alloc_misses.load(Ordering::Relaxed),
        }
    }

    fn pool_hit(&self, joined: bool) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        crate::obs::starts_cache_hits().incr();
        if joined {
            crate::obs::starts_cache_joined().incr();
        }
    }

    fn pool_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        crate::obs::starts_cache_misses().incr();
    }

    /// The uniform feasible start pool for `synth` at `bounds`: answered
    /// from the cache when interned or in flight (replaying the recorded
    /// scheduler/binder call counts into the synthesizer's phase
    /// accounting), computed fresh — and interned — otherwise.
    ///
    /// # Errors
    ///
    /// Propagates the fresh computation's [`SynthesisError`] (library
    /// gaps, malformed graphs); errors are never cached.
    pub(crate) fn get_or_compute(
        &self,
        synth: &Synthesizer<'_>,
        bounds: Bounds,
    ) -> Result<Vec<FlowState>, SynthesisError> {
        let flow = synth.flow();
        let mut fp = Fingerprint::new();
        fp.update("uniform-starts");
        fp.update(synth.dfg());
        fp.update(synth.library());
        fp.update(&bounds);
        fp.update(&flow.scheduler);
        fp.update(&flow.binder);
        let key = fp.finish();
        let same = |entry: &StartsEntry| {
            entry.bounds == bounds
                && entry.scheduler == flow.scheduler
                && entry.binder == flow.binder
        };
        let facts = || (bounds, flow.scheduler.clone(), flow.binder.clone());
        let leader = match find(&self.entries, &self.pool_flights, key, same, facts, |()| {}) {
            Source::Hit(entry, joined) => {
                self.pool_hit(joined);
                synth.replay_pass_calls(entry.sched_calls, entry.bind_calls);
                return Ok(entry.states);
            }
            Source::Collision => {
                self.pool_miss();
                return synth.uniform_feasible_starts_fresh(bounds);
            }
            Source::Lead(leader) => leader,
        };

        self.pool_miss();
        let _span = rchls_telemetry::span!("starts.compute");
        let before = synth.pass_call_counts();
        // An error drops the leader unpublished: joiners compute it again.
        let states = synth.uniform_feasible_starts_fresh(bounds)?;
        let after = synth.pass_call_counts();
        let entry = StartsEntry {
            bounds,
            scheduler: flow.scheduler.clone(),
            binder: flow.binder.clone(),
            states: states.clone(),
            sched_calls: after.0 - before.0,
            bind_calls: after.1 - before.1,
        };
        let bytes = entry.approx_bytes();
        let (evicted, resident) = {
            let mut table = crate::sync::lock_unpoisoned(&self.entries);
            let evicted = table.insert(key, entry.clone(), bytes);
            (evicted, table.resident_bytes())
        };
        crate::obs::starts_cache_evictions().add(evicted);
        crate::obs::starts_cache_resident_bytes().record(resident as u64);
        leader.publish(entry);
        Ok(states)
    }
}

impl StartsCache {
    fn alloc_hit(&self, joined: bool) {
        self.alloc_hits.fetch_add(1, Ordering::Relaxed);
        crate::obs::alloc_cache_hits().incr();
        if joined {
            crate::obs::alloc_cache_joined().incr();
        }
    }

    fn alloc_miss(&self) {
        self.alloc_misses.fetch_add(1, Ordering::Relaxed);
        crate::obs::alloc_cache_misses().incr();
    }

    /// The allocation-first portfolio design for `synth` at `bounds`,
    /// interned per `(dfg, library, bounds)`: the design (or its
    /// absence) and the search's cap-hit flag are recorded into
    /// `diagnostics` exactly as a fresh
    /// [`best_allocation_design_diag`](crate::alloc_search::best_allocation_design_diag)
    /// run would record them, so reports are byte-identical across cache
    /// states. A miss on a search another worker is running helps scan
    /// it and returns its answer.
    pub(crate) fn alloc_design(
        &self,
        synth: &Synthesizer<'_>,
        bounds: Bounds,
        diagnostics: &mut Diagnostics,
    ) -> Option<(Assignment, Schedule, Binding)> {
        let mut fp = Fingerprint::new();
        fp.update("alloc-design");
        fp.update(synth.dfg());
        fp.update(synth.library());
        fp.update(&bounds);
        let key = fp.finish();
        let same = |entry: &AllocEntry| entry.bounds == bounds;
        let help = |search: &AllocSearch| search.help(synth.dfg(), synth.library());
        let entry = match find(&self.alloc, &self.alloc_flights, key, same, || bounds, help) {
            Source::Hit(entry, joined) => {
                self.alloc_hit(joined);
                entry
            }
            Source::Collision => {
                self.alloc_miss();
                return best_allocation_design_diag(
                    synth.dfg(),
                    synth.library(),
                    bounds,
                    diagnostics,
                );
            }
            Source::Lead(leader) => {
                self.alloc_miss();
                let mut fresh = Diagnostics::default();
                let design = best_allocation_design_shared(
                    synth.dfg(),
                    synth.library(),
                    bounds,
                    &mut fresh,
                    |search| leader.open(search),
                    || leader.close(),
                );
                let entry = AllocEntry {
                    bounds,
                    design,
                    cap_hit: fresh.alloc_cap_hit,
                };
                let bytes = entry.approx_bytes();
                let (evicted, resident) = {
                    let mut table = crate::sync::lock_unpoisoned(&self.alloc);
                    let evicted = table.insert(key, entry.clone(), bytes);
                    (evicted, table.resident_bytes())
                };
                crate::obs::alloc_cache_evictions().add(evicted);
                crate::obs::alloc_cache_resident_bytes().record(resident as u64);
                leader.publish(entry.clone());
                entry
            }
        };
        diagnostics.alloc_cap_hit |= entry.cap_hit;
        entry.design
    }
}

impl fmt::Debug for StartsCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StartsCache")
            .field("pools", &self.len())
            .field("alloc_designs", &self.alloc_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowSpec;
    use rchls_reslib::Library;

    #[test]
    fn pools_are_interned_once_and_replay_call_counts() {
        let dfg = rchls_workloads::figure4a();
        let lib = Library::table1();
        let cache = StartsCache::new();
        let bounds = Bounds::new(6, 6);

        let fresh_synth = Synthesizer::new(&dfg, &lib);
        let fresh = fresh_synth.uniform_feasible_starts_fresh(bounds).unwrap();
        let fresh_counts = fresh_synth.pass_call_counts();
        assert!(fresh_counts.0 > 0, "starts must schedule something");

        let miss_synth = Synthesizer::new(&dfg, &lib);
        let first = cache.get_or_compute(&miss_synth, bounds).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(miss_synth.pass_call_counts(), fresh_counts);

        // The hit returns the same pool and books the same call counts
        // without scheduling anything.
        let hit_synth = Synthesizer::new(&dfg, &lib);
        let second = cache.get_or_compute(&hit_synth, bounds).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(hit_synth.pass_call_counts(), fresh_counts);
        assert_eq!(first.len(), second.len());
        assert_eq!(first.len(), fresh.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.assignment, b.assignment);
            assert_eq!(a.schedule, b.schedule);
            assert_eq!(a.binding, b.binding);
        }

        // A different bound pair is a different pool.
        let other_synth = Synthesizer::new(&dfg, &lib);
        let _ = cache
            .get_or_compute(&other_synth, Bounds::new(8, 8))
            .unwrap();
        assert_eq!(cache.len(), 2);

        // ... and a different scheduler/binder slot is too.
        let force = Synthesizer::with_flow(
            &dfg,
            &lib,
            &FlowSpec::default().with_scheduler("force-directed"),
        )
        .unwrap();
        let _ = cache.get_or_compute(&force, bounds).unwrap();
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn concurrent_identical_requests_compute_once() {
        let dfg = rchls_workloads::load_workload("random:24x4@5").unwrap().dfg;
        let lib = Library::table1();
        let cache = StartsCache::new();
        let bounds = Bounds::new(8, 18);
        let expected = crate::alloc_search::best_allocation_design(&dfg, &lib, bounds);
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let synth = Synthesizer::new(&dfg, &lib);
                    barrier.wait();
                    let pool = cache.get_or_compute(&synth, bounds).unwrap();
                    assert!(!pool.is_empty());
                    let mut diagnostics = Diagnostics::default();
                    let design = cache.alloc_design(&synth, bounds, &mut diagnostics);
                    assert_eq!(design, expected);
                });
            }
        });
        // Whoever arrived while another worker computed joined it.
        assert_eq!((cache.stats().misses, cache.stats().hits), (1, 3));
        assert_eq!(
            (cache.alloc_stats().misses, cache.alloc_stats().hits),
            (1, 3)
        );
        assert_eq!((cache.seen_len(), cache.alloc_seen_len()), (1, 1));
    }
}
