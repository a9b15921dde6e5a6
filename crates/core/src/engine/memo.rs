//! The memo table behind every session cache: one get-or-fill path over
//! a budgeted LRU table and its single-flight slots.
//!
//! An engine session memoizes three things: synthesis reports (the
//! [`SynthCache`](crate::engine::SynthCache)), and uniform start pools
//! and allocation-first designs (the two tables of the
//! [`StartsCache`](crate::engine::StartsCache)). Each is one [`Memo`]: a
//! [`BudgetedTable`] of entries, the [`Flights`] in progress, hit/miss
//! tallies and the table's metrics. A request:
//!
//! 1. looks its key up and compares the stored request facts through a
//!    closure, so a hit takes one lock and allocates nothing;
//! 2. on a miss, builds its facts and claims the key's slot: it joins a
//!    computation already in flight, which counts as a hit, or leads;
//! 3. leading, looks in the table again (the `flight` module docs say
//!    why), then fills the entry, inserts it and publishes it.
//!
//! The fill step reports how it filled the entry ([`Fill`]). An entry or
//! computation under the same key but other facts is a fingerprint
//! collision: the request is filled without a slot and never cached, so
//! it is computed fresh instead of answered wrongly. A fill error is never
//! cached either: it abandons the slot, and a joiner re-leads.
//!
//! Slots nest in one order only: a composite's report slot, then its
//! parts' report slots, then start-pool and alloc-design slots. A
//! report's fill runs a strategy. A composite strategy reads its parts
//! back through the report table (`SynthRequest::part`), each under the
//! part's own key, and any strategy may claim start-pool and alloc-design
//! slots, whose fills claim no slot. So nested single-flight cannot
//! deadlock:
//!
//! * A part is never a composite, so its fill reads no parts: it claims
//!   no report slot, only start-pool and alloc slots.
//! * A thread waiting on a part's slot holds only its composite's slot,
//!   and one waiting on a start-pool or alloc slot holds report slots
//!   only.
//! * No part's leader ever waits on a composite's slot, and no start-pool
//!   or alloc leader waits on any slot.
//!
//! Every wait therefore points from a slot to one strictly later in the
//! order, the wait-for graph has no cycle, and every leader finishes.
//!
//! Values sit behind an [`Arc`], so a hit or a join copies a pointer. A
//! miss copies its value once, into the table.

use crate::engine::budget::BudgetedTable;
use crate::engine::cache::CacheStats;
use crate::engine::flight::{Claim, Flights};
use crate::obs::TableMetrics;
use crate::sync::lock_unpoisoned;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One memo table at one instant: its hit/miss tallies and its sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableStats {
    /// Hit/miss tallies since construction. A request that joined
    /// another worker's computation of its key counts as a hit, and a
    /// fingerprint collision as a miss.
    pub lookups: CacheStats,
    /// Entries resident now. A cache budget can shrink it.
    pub len: usize,
    /// Distinct keys ever inserted. Eviction never lowers it, so
    /// deterministic documents report it.
    pub seen: usize,
    /// Approximate resident bytes.
    pub resident_bytes: usize,
    /// Entries evicted since construction.
    pub evictions: u64,
}

/// How a fill step filled an entry.
pub(crate) enum Fill<V> {
    /// Computed fresh: a miss, inserted and published.
    Computed(V),
    /// Loaded from a lower tier (the report cache's store): inserted and
    /// published. It counts as a hit in the table's [`CacheStats`], but
    /// in neither its hit nor its miss metric.
    Loaded(V),
    /// Not cacheable (the lower tier holds another request under this
    /// key): a miss, returned but not inserted. The slot is abandoned,
    /// so joiners re-lead.
    Uncacheable(V),
}

/// A memo table: values `V` by 64-bit key, each stored beside the
/// request facts `F` it was computed for.
pub(crate) struct Memo<F, V> {
    table: Mutex<BudgetedTable<(F, Arc<V>)>>,
    flights: Flights<F, Arc<V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// The table's metric handles, resolved on first use.
    metrics: fn() -> &'static TableMetrics,
    /// An entry's heap bytes. It is booked at these plus the inline
    /// sizes of its facts and value.
    heap_bytes: fn(&F, &V) -> usize,
}

impl<F, V> Memo<F, V> {
    /// An empty table recording into `metrics`.
    // Inlined so that `Engine::new` builds its session in place.
    #[inline(always)]
    pub(crate) fn new(
        metrics: fn() -> &'static TableMetrics,
        heap_bytes: fn(&F, &V) -> usize,
    ) -> Memo<F, V> {
        Memo {
            table: Mutex::default(),
            flights: Flights::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            metrics,
            heap_bytes,
        }
    }

    /// Applies this table's share of the session budget, evicting
    /// immediately when over.
    pub(crate) fn set_budget(&self, budget: Option<usize>) {
        let evicted = lock_unpoisoned(&self.table).set_budget(budget);
        (self.metrics)().evictions.add(evicted);
    }

    /// The table's tallies and sizes.
    pub(crate) fn stats(&self) -> TableStats {
        let table = lock_unpoisoned(&self.table);
        TableStats {
            lookups: CacheStats {
                hits: self.hits.load(Ordering::Relaxed),
                misses: self.misses.load(Ordering::Relaxed),
            },
            len: table.len(),
            seen: table.seen_len(),
            resident_bytes: table.resident_bytes(),
            evictions: table.evictions(),
        }
    }

    fn hit(&self, value: Arc<V>, joined: bool) -> Arc<V> {
        self.hits.fetch_add(1, Ordering::Relaxed);
        let metrics = (self.metrics)();
        metrics.hits.incr();
        if joined {
            metrics.joined.incr();
        }
        value
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        (self.metrics)().misses.incr();
    }
}

impl<F: Clone + PartialEq, V: Clone> Memo<F, V> {
    /// The value for `key`: from the table when an entry of the request's
    /// facts is there (`same` tells), from the computation in flight for
    /// it, or from `fill`. `facts` is built only on a table miss.
    ///
    /// `fill` gets whether its value will be cached: `false` when the
    /// request collides with another under the same key.
    ///
    /// The value is shared with the table on a hit and the caller's own
    /// when it filled it, so [`Arc::unwrap_or_clone`] copies it only on a
    /// hit.
    ///
    /// # Errors
    ///
    /// Propagates `fill`'s error, which is never cached.
    pub(crate) fn get_or_fill<E>(
        &self,
        key: u64,
        same: impl Fn(&F) -> bool,
        facts: impl FnOnce() -> F,
        fill: impl FnOnce(bool) -> Result<Fill<V>, E>,
    ) -> Result<Arc<V>, E> {
        // `Some(None)`: an entry for other facts under this key.
        let lookup = || {
            lock_unpoisoned(&self.table)
                .get(key)
                .map(|(stored, value)| same(stored).then(|| Arc::clone(value)))
        };
        let lead = match lookup() {
            Some(Some(value)) => return Ok(self.hit(value, false)),
            Some(None) => None,
            None => {
                let facts = facts();
                match self.flights.claim(key, facts.clone()) {
                    Claim::Joined(value) => return Ok(self.hit(value, true)),
                    Claim::Collision => None,
                    // A leader may have inserted the entry and retired its
                    // slot between the lookup and the claim.
                    Claim::Lead(leader) => match lookup() {
                        Some(Some(value)) => {
                            leader.publish(Arc::clone(&value));
                            return Ok(self.hit(value, false));
                        }
                        Some(None) => None,
                        None => Some((leader, facts)),
                    },
                }
            }
        };
        let Some((leader, facts)) = lead else {
            self.miss();
            return fill(false).map(|filled| match filled {
                Fill::Computed(value) | Fill::Loaded(value) | Fill::Uncacheable(value) => {
                    Arc::new(value)
                }
            });
        };
        // An error drops the leader unpublished: joiners compute again.
        let value = match fill(true).inspect_err(|_| self.miss())? {
            Fill::Computed(value) => {
                self.miss();
                value
            }
            Fill::Loaded(value) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                value
            }
            Fill::Uncacheable(value) => {
                self.miss();
                return Ok(Arc::new(value));
            }
        };
        leader.publish(self.insert(key, facts, &value));
        Ok(Arc::new(value))
    }

    /// Inserts a copy of `value`, booking its bytes and any evictions, and
    /// returns the copy for joiners. The caller keeps `value` itself, so a
    /// miss copies the value once. A copy holds no spare capacity, so the
    /// table books what it keeps.
    fn insert(&self, key: u64, facts: F, value: &V) -> Arc<V> {
        let stored = Arc::new(value.clone());
        let bytes = size_of::<F>() + size_of::<V>() + (self.heap_bytes)(&facts, &stored);
        let metrics = (self.metrics)();
        metrics.inserts.incr();
        let (evicted, resident) = {
            let mut table = lock_unpoisoned(&self.table);
            let evicted = table.insert(key, (facts, Arc::clone(&stored)), bytes);
            (evicted, table.resident_bytes())
        };
        metrics.evictions.add(evicted);
        metrics.resident_bytes.record(resident as u64);
        stored
    }
}

impl<F, V> fmt::Debug for Memo<F, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Memo").field(&self.stats()).finish()
    }
}

#[cfg(test)]
impl<F, V> Memo<F, V> {
    /// The table's lock, for tests that poison it.
    pub(crate) fn table(&self) -> &Mutex<BudgetedTable<(F, Arc<V>)>> {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table of strings under `u32` facts, recording into the report
    /// cache's metrics (no test reads them).
    fn memo() -> Memo<u32, String> {
        Memo::new(crate::obs::synth_cache, |_, value| value.capacity())
    }

    fn get(memo: &Memo<u32, String>, facts: u32, fill: Fill<String>) -> String {
        let filled = memo.get_or_fill(7, |f| *f == facts, || facts, |_| Ok::<_, ()>(fill));
        String::clone(&filled.unwrap())
    }

    #[test]
    fn only_clean_fills_are_kept_and_the_kept_copy_is_booked() {
        let memo = memo();
        // Uncacheable values and errors are returned, never kept.
        assert_eq!(get(&memo, 1, Fill::Uncacheable("a".into())), "a");
        let failed = memo.get_or_fill(7, |f| *f == 1, || 1, |_| Err("no"));
        assert_eq!(failed.unwrap_err(), "no");
        assert_eq!(memo.stats().len, 0);
        // A loaded value is kept and counts as a hit. The table keeps a
        // copy without the spare capacity, and books that.
        let mut spare = String::with_capacity(64);
        spare.push('b');
        assert_eq!(get(&memo, 1, Fill::Loaded(spare)), "b");
        assert_eq!(get(&memo, 1, Fill::Computed("unused".into())), "b");
        // Other facts under the same key: filled fresh, never cached.
        assert_eq!(get(&memo, 2, Fill::Computed("c".into())), "c");
        let stats = memo.stats();
        assert_eq!(stats.lookups, CacheStats { hits: 2, misses: 3 });
        assert_eq!((stats.len, stats.seen), (1, 1));
        assert_eq!(
            stats.resident_bytes,
            size_of::<u32>() + size_of::<String>() + 1
        );
    }
}
