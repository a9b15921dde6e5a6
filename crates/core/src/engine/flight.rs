//! Single-flight slots: concurrent misses on one cache key compute once.
//!
//! A cache miss claims its key's slot before it computes. The first
//! claimant *leads*: it computes, inserts the result into its table, and
//! publishes it through the slot. A claimant that finds the slot taken
//! *joins*: it waits for the published value, which its table answers as
//! a hit. A table's misses therefore equal its distinct keys at any
//! worker count.
//!
//! Two rules keep a slot from answering wrongly or wedging:
//!
//! * A slot remembers the request facts its leader computes for. A
//!   claimant with the same key but different facts (a fingerprint
//!   collision) never joins: it computes fresh and leaves the result
//!   uncached.
//! * A leader that unwinds, or drops its [`Leader`] without publishing,
//!   abandons the slot: its joiners wake, and the first of them to claim
//!   again leads a fresh computation.
//!
//! A cache hit never touches a slot: claims follow a table miss. The
//! leader inserts into its table before it retires the slot, so a
//! claimant that missed the table just before that insert and leads just
//! after it must look in the table again before computing.

use crate::sync::{lock_unpoisoned, wait_unpoisoned};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// What a slot's leader is doing, as its joiners see it.
enum State<V> {
    /// Computing.
    Running,
    /// Finished: the value every joiner returns.
    Done(V),
    /// The leader unwound, or gave up, without publishing.
    Abandoned,
}

/// One key's in-flight computation.
struct Slot<F, V> {
    facts: F,
    state: Mutex<State<V>>,
    changed: Condvar,
}

/// The slots in flight, by key.
type Slots<F, V> = HashMap<u64, Arc<Slot<F, V>>>;

/// The in-flight computations of one cache table, by key: `F` is the
/// request facts a key stands for and `V` the value its leader publishes.
pub(crate) struct Flights<F, V> {
    slots: Mutex<Slots<F, V>>,
}

impl<F, V> Default for Flights<F, V> {
    // Inlined so that `Engine::new` builds its session in place.
    #[inline(always)]
    fn default() -> Flights<F, V> {
        Flights {
            slots: Mutex::new(HashMap::new()),
        }
    }
}

/// The outcome of [`Flights::claim`].
pub(crate) enum Claim<'a, F, V> {
    /// Nothing was in flight for the key: the caller computes, then
    /// publishes through the guard.
    Lead(Leader<'a, F, V>),
    /// A leader for the same facts published this value.
    Joined(V),
    /// A computation for the same key but different facts is in flight.
    Collision,
}

impl<F: PartialEq, V: Clone> Flights<F, V> {
    /// Claims `key` for a computation of `facts`. Joining, the caller
    /// waits for the leader's value.
    pub(crate) fn claim(&self, key: u64, facts: F) -> Claim<'_, F, V> {
        loop {
            let slot = {
                let mut slots = lock_unpoisoned(&self.slots);
                match slots.get(&key) {
                    Some(slot) if slot.facts != facts => return Claim::Collision,
                    Some(slot) => Arc::clone(slot),
                    None => {
                        let slot = Arc::new(Slot {
                            facts,
                            state: Mutex::new(State::Running),
                            changed: Condvar::new(),
                        });
                        slots.insert(key, Arc::clone(&slot));
                        return Claim::Lead(Leader {
                            flights: self,
                            key,
                            slot,
                        });
                    }
                }
            };
            if let Some(value) = join(&slot) {
                return Claim::Joined(value);
            }
            // Abandoned: claim again, leading if nobody else has yet.
        }
    }
}

/// Waits on `slot` until it resolves: `Some` once its value is
/// published, `None` once it is abandoned.
fn join<F, V: Clone>(slot: &Slot<F, V>) -> Option<V> {
    let mut state = lock_unpoisoned(&slot.state);
    loop {
        match &*state {
            State::Done(value) => return Some(value.clone()),
            State::Abandoned => return None,
            State::Running => state = wait_unpoisoned(&slot.changed, state),
        }
    }
}

/// The leading claim on a key. Dropping it retires the slot; dropping it
/// unpublished abandons it, waking every joiner to claim again.
pub(crate) struct Leader<'a, F, V> {
    flights: &'a Flights<F, V>,
    key: u64,
    slot: Arc<Slot<F, V>>,
}

impl<F, V> Leader<'_, F, V> {
    /// Publishes `value` to every joiner and retires the slot. Insert
    /// the value into the table first (see the module docs).
    pub(crate) fn publish(self, value: V) {
        *lock_unpoisoned(&self.slot.state) = State::Done(value);
        self.slot.changed.notify_all();
    }
}

impl<F, V> Drop for Leader<'_, F, V> {
    fn drop(&mut self) {
        {
            let mut state = lock_unpoisoned(&self.slot.state);
            if !matches!(*state, State::Done(_)) {
                *state = State::Abandoned;
            }
        }
        self.slot.changed.notify_all();
        let mut slots = lock_unpoisoned(&self.flights.slots);
        if slots
            .get(&self.key)
            .is_some_and(|slot| Arc::ptr_eq(slot, &self.slot))
        {
            slots.remove(&self.key);
        }
    }
}

#[cfg(test)]
impl<F, V> Flights<F, V> {
    /// Joiners currently holding `key`'s slot: every reference beyond
    /// the table's and the leader's.
    fn joiners(&self, key: u64) -> usize {
        lock_unpoisoned(&self.slots)
            .get(&key)
            .map_or(0, |slot| Arc::strong_count(slot) - 2)
    }

    /// Yields until `key`'s slot holds `n` joiners.
    fn await_joiners(&self, key: u64, n: usize) {
        while self.joiners(key) != n {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    type Table = Flights<u32, u64>;

    fn lead(table: &Table, facts: u32) -> Leader<'_, u32, u64> {
        match table.claim(7, facts) {
            Claim::Lead(leader) => leader,
            _ => panic!("the first claim leads"),
        }
    }

    fn joined<F, V>(claim: Claim<'_, F, V>) -> V {
        match claim {
            Claim::Joined(value) => value,
            Claim::Lead(_) => panic!("expected to join, led"),
            Claim::Collision => panic!("expected to join, collided"),
        }
    }

    /// A joiner that arrives while the leader is still computing takes no
    /// part in the computation: it waits, and returns the leader's value.
    #[test]
    fn a_joiner_arriving_mid_scan_helps_and_returns_the_leaders_value() {
        let table = Table::default();
        let (led, leading) = mpsc::channel::<()>();
        let (go, finish) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let table = &table;
            let leader = scope.spawn(move || {
                let leader = lead(table, 1);
                led.send(()).unwrap();
                // Mid-computation until the joiner waits on the slot.
                finish.recv().unwrap();
                leader.publish(42);
            });
            leading.recv().unwrap();
            let joiner = scope.spawn(|| joined(table.claim(7, 1)));
            table.await_joiners(7, 1);
            go.send(()).unwrap();
            leader.join().unwrap();
            assert_eq!(joiner.join().unwrap(), 42);
        });
        // The slot is retired: the next claim leads.
        assert!(matches!(table.claim(7, 1), Claim::Lead(_)));
    }

    /// A joiner that arrives once the leader's computation has ended, but
    /// before it publishes, waits for the published value.
    #[test]
    fn a_joiner_arriving_after_the_scan_closed_only_waits() {
        let table = Table::default();
        let leader = lead(&table, 1);
        let value = 42;
        std::thread::scope(|scope| {
            let joiner = scope.spawn(|| joined(table.claim(7, 1)));
            table.await_joiners(7, 1);
            leader.publish(value);
            assert_eq!(joiner.join().unwrap(), value);
        });
        assert!(lock_unpoisoned(&table.slots).is_empty());
    }

    #[test]
    fn a_panicking_leader_releases_its_joiners_and_one_re_leads() {
        let table = Table::default();
        let (led, leading) = mpsc::channel::<()>();
        let (go, start) = mpsc::channel::<()>();
        let mut outcomes: Vec<&'static str> = std::thread::scope(|scope| {
            let table = &table;
            let leader = scope.spawn(move || {
                let _leader = lead(table, 1);
                led.send(()).unwrap();
                start.recv().unwrap();
                panic!("the leader's computation fails");
            });
            leading.recv().unwrap();
            let joiners: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| match table.claim(7, 1) {
                        Claim::Lead(leader) => {
                            // Publish only once the other joiner waits
                            // on this slot, so it cannot lead as well.
                            table.await_joiners(7, 1);
                            leader.publish(42);
                            "led"
                        }
                        Claim::Joined(value) => {
                            assert_eq!(value, 42);
                            "joined"
                        }
                        Claim::Collision => "collided",
                    })
                })
                .collect();
            table.await_joiners(7, 2);
            go.send(()).unwrap();
            assert!(leader.join().is_err(), "the leader panicked");
            joiners.into_iter().map(|j| j.join().unwrap()).collect()
        });
        outcomes.sort_unstable();
        assert_eq!(outcomes, ["joined", "led"]);
        // The next request for the key leads and publishes normally.
        let leader = lead(&table, 1);
        leader.publish(43);
        assert!(lock_unpoisoned(&table.slots).is_empty());
    }

    #[test]
    fn a_fingerprint_collision_never_joins() {
        let table = Table::default();
        let leader = lead(&table, 1);
        // Same key, different facts: not this slot's computation.
        assert!(matches!(table.claim(7, 2), Claim::Collision));
        leader.publish(42);
        assert!(matches!(table.claim(7, 2), Claim::Lead(_)));
    }

    #[test]
    fn an_unpublished_leader_abandons_its_slot() {
        let table = Table::default();
        drop(lead(&table, 1));
        assert!(lock_unpoisoned(&table.slots).is_empty());
        assert!(matches!(table.claim(7, 1), Claim::Lead(_)));
    }
}
