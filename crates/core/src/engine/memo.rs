//! The memo table behind every session cache: one get-or-fill path over
//! a budgeted LRU table and the computations in flight for it, under one
//! lock.
//!
//! An engine session memoizes three things: synthesis reports (the
//! [`SynthCache`](crate::engine::SynthCache)), and uniform start pools
//! and allocation-first designs (the two tables of the
//! [`StartsCache`](crate::engine::StartsCache)). Each is one [`Memo`]:
//! one lock over the resident entries (a [`BudgetedTable`]) and the
//! slots of the keys being computed, plus hit/miss tallies and the
//! table's metrics. A request takes the lock once and finds one of three
//! things under its key:
//!
//! 1. an entry: a hit when the stored request facts match, compared
//!    through a closure, so a hit allocates nothing;
//! 2. a slot: another worker is computing the key. The request joins
//!    it, waits without the lock for the leader's value, and counts as a
//!    hit;
//! 3. nothing: the request builds its facts, opens a slot and leads. It
//!    fills the entry without the lock, then takes the lock once more to
//!    insert the entry and close the slot in one critical section,
//!    handing the value to the slot's joiners.
//!
//! Concurrent misses on one key therefore compute once, and a table's
//! misses equal its distinct keys at any worker count.
//!
//! The fill step reports how it filled the entry ([`Fill`]). An entry or
//! slot under the same key but other facts is a fingerprint collision:
//! the request is filled without a slot and never cached, so it is
//! computed fresh instead of answered wrongly. A fill error, an
//! uncacheable fill or a panic abandons the slot: its joiners wake, the
//! first of them to look leads a fresh computation, and the others wait
//! on that one.
//!
//! Slots nest in one order only: a composite's report slot, then its
//! parts' report slots, then start-pool and alloc-design slots. A
//! report's fill runs a strategy. A composite strategy reads its parts
//! back through the report table (`SynthRequest::part`), each under the
//! part's own key, and any strategy may lead or join start-pool and
//! alloc-design slots, whose fills touch no slot. No lock is held across
//! a fill or a wait, so only slots can block a thread, and nested
//! single-flight cannot deadlock:
//!
//! * A part is never a composite, so its fill reads no parts: it takes
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
use crate::obs::TableMetrics;
use crate::sync::{lock_unpoisoned, wait_unpoisoned};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

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
    /// Computed fresh: a miss, inserted and handed to joiners.
    Computed(V),
    /// Loaded from a lower tier (the report cache's store): inserted and
    /// handed to joiners. It counts as a hit in the table's
    /// [`CacheStats`], but in neither its hit nor its miss metric.
    Loaded(V),
    /// Not cacheable (the lower tier holds another request under this
    /// key): a miss, returned but not inserted. The slot is abandoned,
    /// so joiners re-lead.
    Uncacheable(V),
}

/// What a slot's leader is doing, as its joiners see it.
enum State<V> {
    /// Computing.
    Running,
    /// Finished: the value each joiner returns.
    Done(Arc<V>),
    /// The leader unwound, or gave up, without a value: the next request
    /// to see the slot leads it.
    Abandoned,
}

/// One key's computation in flight: the request facts its leader
/// computes for, its state, and the joiners waiting on it. A resolved
/// slot stays until its last joiner has seen it.
struct Slot<F, V> {
    facts: F,
    state: State<V>,
    joiners: usize,
}

/// What a memo's lock guards: the resident entries, each stored beside
/// the request facts it was computed for, and the slots in flight.
pub(crate) struct Table<F, V> {
    entries: BudgetedTable<(F, Arc<V>)>,
    slots: HashMap<u64, Slot<F, V>>,
}

/// A memo table: values `V` by 64-bit key, each stored beside the
/// request facts `F` it was computed for.
pub(crate) struct Memo<F, V> {
    table: Mutex<Table<F, V>>,
    /// Wakes joiners when a slot resolves.
    resolved: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    /// The table's metric handles, resolved on first use.
    metrics: fn() -> &'static TableMetrics,
    /// An entry's heap bytes. It is booked at these plus the inline
    /// sizes of its facts and value.
    heap_bytes: fn(&F, &V) -> usize,
}

/// What a request found under its key.
enum Found<'a, F, V> {
    /// The value for the request's facts: resident (`false`), or handed
    /// over by the slot it joined (`true`).
    Hit(Arc<V>, bool),
    /// An entry or slot for other facts.
    Collision,
    /// Nothing running for the key: the request leads, with its facts.
    Lead(Leader<'a, F, V>, F),
}

/// A request's lead on its key's slot. Dropping it unpublished abandons
/// the slot.
struct Leader<'a, F, V> {
    memo: &'a Memo<F, V>,
    key: u64,
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
            table: Mutex::new(Table {
                entries: BudgetedTable::default(),
                slots: HashMap::new(),
            }),
            resolved: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            metrics,
            heap_bytes,
        }
    }

    /// Applies this table's share of the session budget, evicting
    /// immediately when over.
    pub(crate) fn set_budget(&self, budget: Option<usize>) {
        let evicted = lock_unpoisoned(&self.table).entries.set_budget(budget);
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
            len: table.entries.len(),
            seen: table.entries.seen_len(),
            resident_bytes: table.entries.resident_bytes(),
            evictions: table.entries.evictions(),
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

impl<F: Clone, V: Clone> Memo<F, V> {
    /// The value for `key`: from the table when an entry of the request's
    /// facts is there (`same` tells), from the computation in flight for
    /// it, or from `fill`. `facts` is built only when the request leads.
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
        let (leader, facts) = match self.find(key, same, facts) {
            Found::Hit(value, joined) => return Ok(self.hit(value, joined)),
            Found::Lead(leader, facts) => (leader, facts),
            Found::Collision => {
                self.miss();
                return fill(false).map(|filled| match filled {
                    Fill::Computed(value) | Fill::Loaded(value) | Fill::Uncacheable(value) => {
                        Arc::new(value)
                    }
                });
            }
        };
        // An error, an uncacheable value or a panic drops the leader
        // unpublished: the slot is abandoned and a joiner re-leads.
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
        leader.publish(facts, &value);
        Ok(Arc::new(value))
    }

    /// Looks `key` up under one lock. A request that finds a slot for its
    /// facts joins it: it waits, without the lock, until the slot
    /// resolves.
    // Inlined into `get_or_fill`: left a call, it slowed memory hits by
    // about a tenth (rcbench `warm_replay`, 2-CPU VM).
    #[inline(always)]
    fn find(
        &self,
        key: u64,
        same: impl Fn(&F) -> bool,
        facts: impl FnOnce() -> F,
    ) -> Found<'_, F, V> {
        let mut table = lock_unpoisoned(&self.table);
        match table.entries.get(key) {
            Some((stored, value)) if same(stored) => return Found::Hit(Arc::clone(value), false),
            Some(_) => return Found::Collision,
            None => {}
        }
        match table.slots.get_mut(&key) {
            Some(slot) if !same(&slot.facts) => return Found::Collision,
            Some(slot) => slot.joiners += 1,
            None => {
                let facts = facts();
                let slot = Slot {
                    facts: facts.clone(),
                    state: State::Running,
                    joiners: 0,
                };
                table.slots.insert(key, slot);
                return Found::Lead(Leader { memo: self, key }, facts);
            }
        }
        loop {
            let slot = table
                .slots
                .get_mut(&key)
                .expect("a slot stays while it has joiners");
            match &slot.state {
                State::Running => table = wait_unpoisoned(&self.resolved, table),
                State::Done(value) => {
                    let value = Arc::clone(value);
                    slot.joiners -= 1;
                    if slot.joiners == 0 {
                        table.slots.remove(&key);
                    }
                    return Found::Hit(value, true);
                }
                State::Abandoned => {
                    slot.joiners -= 1;
                    slot.state = State::Running;
                    return Found::Lead(Leader { memo: self, key }, facts());
                }
            }
        }
    }
}

impl<F, V> Leader<'_, F, V> {
    /// Resolves the slot to `state` in the critical section `table`
    /// holds. A slot nobody joined goes; one with joiners stays, and they
    /// wake to see it.
    fn resolve(&self, mut table: MutexGuard<'_, Table<F, V>>, state: State<V>) {
        match table.slots.get_mut(&self.key) {
            Some(slot) if slot.joiners > 0 => {
                slot.state = state;
                drop(table);
                self.memo.resolved.notify_all();
            }
            _ => {
                table.slots.remove(&self.key);
            }
        }
    }

    /// Inserts a copy of `value` and closes the slot in one critical
    /// section, handing the copy to the slot's joiners, then books the
    /// entry's bytes and any evictions. The caller keeps `value` itself,
    /// so a miss copies its value once. A copy holds no spare capacity,
    /// so the table books what it keeps.
    fn publish(self, facts: F, value: &V)
    where
        V: Clone,
    {
        let memo = self.memo;
        let stored = Arc::new(value.clone());
        let bytes = size_of::<F>() + size_of::<V>() + (memo.heap_bytes)(&facts, &stored);
        let mut table = lock_unpoisoned(&memo.table);
        let evicted = table
            .entries
            .insert(self.key, (facts, Arc::clone(&stored)), bytes);
        let resident = table.entries.resident_bytes();
        self.resolve(table, State::Done(stored));
        // Resolved: nothing is left to abandon.
        std::mem::forget(self);
        let metrics = (memo.metrics)();
        metrics.inserts.incr();
        metrics.evictions.add(evicted);
        metrics.resident_bytes.record(resident as u64);
    }
}

impl<F, V> Drop for Leader<'_, F, V> {
    fn drop(&mut self) {
        self.resolve(lock_unpoisoned(&self.memo.table), State::Abandoned);
    }
}

impl<F, V> fmt::Debug for Memo<F, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Memo").field(&self.stats()).finish()
    }
}

#[cfg(test)]
impl<F, V> Memo<F, V> {
    /// The memo's lock, for tests that poison it.
    pub(crate) fn table(&self) -> &Mutex<Table<F, V>> {
        &self.table
    }

    /// Yields until `key`'s slot holds `n` joiners, for at most ten
    /// seconds.
    pub(super) fn await_joiners(&self, key: u64, n: usize) {
        let start = std::time::Instant::now();
        let joiners = || {
            let table = lock_unpoisoned(&self.table);
            table.slots.get(&key).map_or(0, |slot| slot.joiners)
        };
        while joiners() != n {
            assert!(start.elapsed().as_secs() < 10, "never {n} joiners");
            std::thread::yield_now();
        }
    }

    /// Whether no slot is in flight.
    pub(super) fn no_slots(&self) -> bool {
        lock_unpoisoned(&self.table).slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A table of strings under `u32` facts, recording into the report
    /// cache's metrics (no test reads them).
    fn memo() -> Memo<u32, String> {
        Memo::new(crate::obs::synth_cache, |_, value| value.capacity())
    }

    /// Key 7's value for `facts`, filled by `fill` on a miss.
    fn get_with(
        memo: &Memo<u32, String>,
        facts: u32,
        fill: impl FnOnce(bool) -> Fill<String>,
    ) -> String {
        let filled = memo.get_or_fill(7, |f| *f == facts, || facts, |c| Ok::<_, ()>(fill(c)));
        String::clone(&filled.unwrap())
    }

    fn get(memo: &Memo<u32, String>, facts: u32, fill: Fill<String>) -> String {
        get_with(memo, facts, |_| fill)
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

    #[test]
    fn a_panicking_leader_releases_its_joiners_and_one_re_leads() {
        let memo = memo();
        let (led, leading) = mpsc::channel();
        let mut outcomes: Vec<&str> = std::thread::scope(|scope| {
            let memo = &memo;
            let leader = scope.spawn(move || {
                get_with(memo, 1, |_| {
                    led.send(()).unwrap();
                    // Fail only once both joiners wait on the slot.
                    memo.await_joiners(7, 2);
                    panic!("the leader's fill fails");
                })
            });
            leading.recv().unwrap();
            let joiners: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(move || {
                        let mut led = false;
                        let value = get_with(memo, 1, |_| {
                            // The other joiner still waits, on this lead.
                            memo.await_joiners(7, 1);
                            led = true;
                            Fill::Computed("b".into())
                        });
                        assert_eq!(value, "b");
                        if led {
                            "led"
                        } else {
                            "joined"
                        }
                    })
                })
                .collect();
            assert!(leader.join().is_err(), "the leader panicked");
            joiners.into_iter().map(|j| j.join().unwrap()).collect()
        });
        outcomes.sort_unstable();
        assert_eq!(outcomes, ["joined", "led"]);
        // The re-led value is kept: the next request hits it.
        assert_eq!(get(&memo, 1, Fill::Computed("unused".into())), "b");
        assert_eq!(memo.stats().lookups, CacheStats { hits: 2, misses: 1 });
        assert!(memo.no_slots());
    }

    #[test]
    fn a_fingerprint_collision_never_joins() {
        let memo = memo();
        let (led, leading) = mpsc::channel();
        let (collided, finish) = mpsc::channel();
        std::thread::scope(|scope| {
            let memo = &memo;
            let leader = scope.spawn(move || {
                get_with(memo, 1, |_| {
                    led.send(()).unwrap();
                    // A collision that joined would never send.
                    let _ = finish.recv_timeout(Duration::from_secs(10));
                    Fill::Computed("a".into())
                })
            });
            leading.recv().unwrap();
            // Same key, other facts, while the leader fills: not this
            // slot's computation, so it is filled fresh and uncached.
            let mut cacheable = None;
            let value = get_with(memo, 2, |c| {
                cacheable = Some(c);
                Fill::Computed("b".into())
            });
            assert_eq!((value.as_str(), cacheable), ("b", Some(false)));
            collided.send(()).unwrap();
            assert_eq!(leader.join().unwrap(), "a");
        });
        // A collision with the resident entry is filled fresh too.
        assert_eq!(get(&memo, 2, Fill::Computed("c".into())), "c");
        let stats = memo.stats();
        assert_eq!(stats.lookups, CacheStats { hits: 0, misses: 3 });
        assert_eq!((stats.len, stats.seen), (1, 1));
    }

    #[test]
    fn an_error_or_uncacheable_fill_leaves_no_slot() {
        let memo = memo();
        let failed = memo.get_or_fill(7, |f| *f == 1, || 1, |_| Err::<Fill<String>, _>("no"));
        assert_eq!(failed.unwrap_err(), "no");
        assert!(memo.no_slots());
        assert_eq!(get(&memo, 1, Fill::Uncacheable("a".into())), "a");
        assert!(memo.no_slots());
        // Neither left anything behind: the next request leads.
        assert_eq!(get(&memo, 1, Fill::Computed("b".into())), "b");
        assert_eq!(memo.stats().len, 1);
    }

    /// A table that keeps nothing still hands its leader's value to the
    /// requests that joined it.
    #[test]
    fn joiners_get_the_leaders_value_under_a_zero_budget() {
        let memo = memo();
        memo.set_budget(Some(0));
        let (led, leading) = mpsc::channel();
        std::thread::scope(|scope| {
            let memo = &memo;
            let leader = scope.spawn(move || {
                get_with(memo, 1, |_| {
                    led.send(()).unwrap();
                    memo.await_joiners(7, 2);
                    Fill::Computed("a".into())
                })
            });
            leading.recv().unwrap();
            let joiners: Vec<_> = (0..2)
                .map(|_| scope.spawn(move || get(memo, 1, Fill::Computed("unused".into()))))
                .collect();
            assert_eq!(leader.join().unwrap(), "a");
            for joiner in joiners {
                assert_eq!(joiner.join().unwrap(), "a");
            }
        });
        let stats = memo.stats();
        assert_eq!((stats.len, stats.seen), (0, 1));
        assert_eq!(stats.lookups, CacheStats { hits: 2, misses: 1 });
        assert!(memo.no_slots());
    }
}
