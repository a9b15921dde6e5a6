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
//! [`Synthesizer`] through the
//! [`SynthRequest`](crate::SynthRequest), so engine batches, explorer
//! sweeps, and CLI sweeps all share one pool table per session.
//!
//! Workers that miss on the same key at the same time compute it once:
//! the first leads, and the others wait on its single-flight slot and
//! answer from the value it publishes.

use crate::alloc_search::best_allocation_design_diag;
use crate::bounds::Bounds;
use crate::engine::fingerprint::Fingerprint;
use crate::engine::memo::{Fill, Memo, TableStats};
use crate::error::SynthesisError;
use crate::flow::{Diagnostics, FlowState};
use crate::synth::Synthesizer;
use rchls_bind::{Assignment, Binding};
use rchls_sched::Schedule;
use std::convert::Infallible;
use std::sync::Arc;

/// One interned pool plus the pass-call counts to replay on every hit.
#[derive(Debug, Clone)]
struct StartsEntry {
    states: Vec<FlowState>,
    sched_calls: u32,
    bind_calls: u32,
}

/// One interned allocation-first design (see
/// [`crate::alloc_search::best_allocation_design_diag`]) plus the
/// completeness flag its search reported.
#[derive(Debug, Clone)]
struct AllocEntry {
    design: Option<(Assignment, Schedule, Binding)>,
    cap_hit: bool,
}

/// The request facts a start pool is computed for: bounds, scheduler
/// id and binder id. Entries with the same key but other facts are
/// fingerprint collisions.
type PoolFacts = (Bounds, String, String);

/// The session memo of refine-portfolio ingredients: the uniform
/// feasible start pools (keyed by a content fingerprint of `(dfg,
/// library, bounds, scheduler id, binder id)`) and the allocation-first
/// designs (keyed by `(dfg, library, bounds)` — the allocation search
/// runs its own list scheduler, independent of the flow's passes).
///
/// Each is one memo table (see `engine::memo`): a miss on a key another
/// worker is already computing waits for that computation instead of
/// repeating it, and counts as a hit.
#[derive(Debug)]
pub struct StartsCache {
    pools: Memo<PoolFacts, StartsEntry>,
    designs: Memo<Bounds, AllocEntry>,
}

impl Default for StartsCache {
    fn default() -> StartsCache {
        StartsCache::new()
    }
}

impl StartsCache {
    /// An empty cache.
    #[must_use]
    // Inlined so that `Engine::new` builds its session in place.
    #[inline(always)]
    pub fn new() -> StartsCache {
        StartsCache {
            pools: Memo::new(crate::obs::starts_cache, |(_, scheduler, binder), entry| {
                scheduler.capacity()
                    + binder.capacity()
                    + entry
                        .states
                        .iter()
                        .map(FlowState::approx_bytes)
                        .sum::<usize>()
            }),
            designs: Memo::new(crate::obs::alloc_cache, |_, entry| {
                entry.design.as_ref().map_or(0, |(a, s, b)| {
                    a.approx_heap_bytes() + s.approx_heap_bytes() + b.approx_heap_bytes()
                })
            }),
        }
    }

    /// The start-pool table's tallies and sizes.
    #[must_use]
    pub fn stats(&self) -> TableStats {
        self.pools.stats()
    }

    /// The allocation-first design table's tallies and sizes.
    #[must_use]
    pub fn alloc_stats(&self) -> TableStats {
        self.designs.stats()
    }

    /// Applies the session budget's shares to the pool and alloc-design
    /// tables, evicting immediately when over.
    pub(crate) fn set_budget(&self, pools: Option<usize>, alloc: Option<usize>) {
        self.pools.set_budget(pools);
        self.designs.set_budget(alloc);
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
        let same = |(b, scheduler, binder): &PoolFacts| {
            *b == bounds && *scheduler == flow.scheduler && *binder == flow.binder
        };
        let facts = || (bounds, flow.scheduler.clone(), flow.binder.clone());
        let mut computed = false;
        let entry = self.pools.get_or_fill(key, same, facts, |_| {
            computed = true;
            let _span = rchls_telemetry::span!("starts.compute");
            let before = synth.pass_call_counts();
            let states = synth.uniform_feasible_starts_fresh(bounds)?;
            let after = synth.pass_call_counts();
            Ok::<_, SynthesisError>(Fill::Computed(StartsEntry {
                states,
                sched_calls: after.0 - before.0,
                bind_calls: after.1 - before.1,
            }))
        })?;
        // A computation on this thread booked its pass calls as it ran.
        if !computed {
            synth.replay_pass_calls(entry.sched_calls, entry.bind_calls);
        }
        Ok(Arc::unwrap_or_clone(entry).states)
    }

    /// The allocation-first portfolio design for `synth` at `bounds`,
    /// interned per `(dfg, library, bounds)`: the design (or its
    /// absence) and the search's cap-hit flag are recorded into
    /// `diagnostics` exactly as a fresh [`best_allocation_design_diag`]
    /// run would record them, so reports are byte-identical across cache
    /// states. A miss on a search another worker is running waits for it
    /// and returns its answer.
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
        let Ok(entry) = self.designs.get_or_fill(
            key,
            |b| *b == bounds,
            || bounds,
            |_| {
                let mut fresh = Diagnostics::default();
                let design =
                    best_allocation_design_diag(synth.dfg(), synth.library(), bounds, &mut fresh);
                Ok::<_, Infallible>(Fill::Computed(AllocEntry {
                    design,
                    cap_hit: fresh.alloc_cap_hit,
                }))
            },
        );
        diagnostics.alloc_cap_hit |= entry.cap_hit;
        Arc::unwrap_or_clone(entry).design
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CacheStats;
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
        assert_eq!(cache.stats().len, 1);
        assert_eq!(miss_synth.pass_call_counts(), fresh_counts);

        // The hit returns the same pool and books the same call counts
        // without scheduling anything.
        let hit_synth = Synthesizer::new(&dfg, &lib);
        let second = cache.get_or_compute(&hit_synth, bounds).unwrap();
        assert_eq!(cache.stats().len, 1);
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
        assert_eq!(cache.stats().len, 2);

        // ... and a different scheduler/binder slot is too.
        let force = Synthesizer::with_flow(
            &dfg,
            &lib,
            &FlowSpec::default().with_scheduler("force-directed"),
        )
        .unwrap();
        let _ = cache.get_or_compute(&force, bounds).unwrap();
        assert_eq!(cache.stats().len, 3);
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
        // Whoever arrived while another worker computed waited for it.
        for table in [cache.stats(), cache.alloc_stats()] {
            assert_eq!(table.lookups, CacheStats { hits: 3, misses: 1 });
            assert_eq!(table.seen, 1);
        }
    }
}
