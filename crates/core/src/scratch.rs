//! Session-scoped synthesis scratch state.
//!
//! Every synthesis point runs the same inner loop — derive delays,
//! schedule, bind, check — hundreds of times while the Figure-6 loops and
//! the refinement pass explore candidates. A [`SynthScratch`] bundles the
//! reusable arenas those kernels need ([`SchedScratch`], [`BindScratch`],
//! and a delay-map buffer); a [`ScratchPool`] lends scratches to
//! concurrent jobs so a whole batch/sweep session allocates a handful of
//! arenas total instead of re-allocating per point.
//!
//! The pool is wired through the stack automatically: every
//! [`SynthCache`](crate::engine::SynthCache) owns one (so the engine's batches,
//! the explorer's sweeps, and the CLI's sweep/pareto/batch commands all
//! pool), and [`SynthRequest`](crate::SynthRequest) carries an optional
//! pool reference for strategies to hand to the
//! [`Synthesizer`](crate::Synthesizer) they construct.

use rchls_bind::BindScratch;
use rchls_sched::{Delays, SchedScratch};
use std::fmt;
use std::sync::Mutex;

/// The per-synthesis-run scratch bundle.
#[derive(Debug, Default)]
pub struct SynthScratch {
    /// Scheduling buffers (cached topological order, windows, densities).
    pub sched: SchedScratch,
    /// Binding buffers (version groups, interval/conflict state).
    pub bind: BindScratch,
    /// Reusable delay map derived from the current version assignment.
    pub delays: Delays,
}

impl SynthScratch {
    /// Approximate heap footprint of the retained arenas in bytes
    /// (capacity-based, excluding `size_of::<SynthScratch>()`) — the
    /// size-accounting input for the pool's memory budget.
    #[must_use]
    pub fn approx_heap_bytes(&self) -> usize {
        self.sched.approx_heap_bytes()
            + self.bind.approx_heap_bytes()
            + self.delays.approx_heap_bytes()
    }
}

/// The lock-protected pool state: idle arenas with the byte size each
/// was booked at, the running total, and the optional retention budget.
#[derive(Default)]
struct PoolState {
    arenas: Vec<(SynthScratch, usize)>,
    bytes: usize,
    budget: Option<usize>,
}

/// A lock-protected stack of idle [`SynthScratch`] arenas.
///
/// `acquire` pops an arena (or creates one when the pool is dry) and
/// `release` returns it; with `k` concurrent jobs the pool converges on
/// `k` arenas for the life of the session. Returned arenas have their
/// cached topological order invalidated, so reuse across different
/// graphs is always safe.
///
/// Under a [`set_budget`](ScratchPool::set_budget) cap, `release` drops
/// (rather than retains) any arena that would push the pooled bytes past
/// the budget — arenas are pure capacity, so dropping one never changes
/// results, only the next acquire's allocation cost.
#[derive(Default)]
pub struct ScratchPool {
    pool: Mutex<PoolState>,
}

impl ScratchPool {
    /// An empty pool.
    #[must_use]
    // Inlined so that `Engine::new` builds its session in place.
    #[inline(always)]
    pub fn new() -> ScratchPool {
        ScratchPool::default()
    }

    /// Caps the bytes of idle arena capacity the pool may retain
    /// (`None` = unlimited). A budget of 0 disables pooling entirely.
    pub fn set_budget(&self, budget: Option<usize>) {
        crate::sync::lock_unpoisoned(&self.pool).budget = budget;
    }

    /// Takes an idle scratch (creating one when none is pooled). The
    /// scratch's graph-keyed caches are invalidated before hand-out.
    #[must_use]
    pub fn acquire(&self) -> SynthScratch {
        crate::obs::scratch_pool_lends().incr();
        let pooled = {
            let mut state = crate::sync::lock_unpoisoned(&self.pool);
            let popped = state.arenas.pop();
            if let Some((_, bytes)) = &popped {
                state.bytes -= bytes;
            }
            popped.map(|(scratch, _)| scratch)
        };
        let mut scratch = pooled.unwrap_or_else(|| {
            crate::obs::scratch_pool_creates().incr();
            SynthScratch::default()
        });
        scratch.sched.invalidate();
        scratch
    }

    /// Returns a scratch to the pool for the next job — or drops it when
    /// retaining it would exceed the pool's byte budget.
    pub fn release(&self, scratch: SynthScratch) {
        let bytes = scratch.approx_heap_bytes();
        let mut state = crate::sync::lock_unpoisoned(&self.pool);
        if let Some(budget) = state.budget {
            if state.bytes + bytes > budget {
                drop(state);
                crate::obs::scratch_pool_drops().incr();
                return;
            }
        }
        state.bytes += bytes;
        state.arenas.push((scratch, bytes));
    }

    /// Number of idle arenas currently pooled.
    #[must_use]
    pub fn idle(&self) -> usize {
        crate::sync::lock_unpoisoned(&self.pool).arenas.len()
    }

    /// Approximate bytes of idle arena capacity currently pooled.
    #[must_use]
    pub fn pooled_bytes(&self) -> usize {
        crate::sync::lock_unpoisoned(&self.pool).bytes
    }
}

impl fmt::Debug for ScratchPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScratchPool")
            .field("idle", &self.idle())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_recycles_arenas() {
        let pool = ScratchPool::new();
        assert_eq!(pool.idle(), 0);
        let a = pool.acquire();
        let b = pool.acquire();
        pool.release(a);
        pool.release(b);
        assert_eq!(pool.idle(), 2);
        let _c = pool.acquire();
        assert_eq!(pool.idle(), 1);
    }
}
