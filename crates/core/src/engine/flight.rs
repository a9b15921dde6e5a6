//! Single-flight slots: concurrent misses on one cache key compute once.
//!
//! A cache miss claims its key's slot before it computes. The first
//! claimant *leads*: it computes, inserts the result into its table, and
//! publishes it through the slot. A claimant that finds the slot taken
//! *joins*: while the leader has shared work open it helps with it once,
//! and otherwise it waits for the published value, which its table
//! answers as a hit. A table's misses therefore equal its distinct keys
//! at any worker count.
//!
//! Three rules keep a slot from answering wrongly or wedging:
//!
//! * A slot remembers the request facts its leader computes for. A
//!   claimant with the same key but different facts (a fingerprint
//!   collision) never joins: it computes fresh and leaves the result
//!   uncached.
//! * A leader that unwinds, or drops its [`Leader`] without publishing,
//!   abandons the slot: its joiners wake, and the first of them to claim
//!   again leads a fresh computation.
//! * A joiner's help runs outside every slot lock, so a helper that
//!   panics unwinds out of its own claim and leaves the slot to the
//!   leader.
//!
//! A cache hit never touches a slot: claims follow a table miss. The
//! leader inserts into its table before it retires the slot, so a
//! claimant that missed the table just before that insert and leads just
//! after it must look in the table again before computing.

use crate::sync::{lock_unpoisoned, wait_unpoisoned};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// What a slot's leader is doing, as its joiners see it.
enum State<S, V> {
    /// Computing, with nothing a joiner can help with.
    Running,
    /// Working through shared work that joiners may help with.
    Open(Arc<S>),
    /// Finished: the value every joiner returns.
    Done(V),
    /// The leader unwound, or gave up, without publishing.
    Abandoned,
}

/// One key's in-flight computation.
struct Slot<F, S, V> {
    facts: F,
    state: Mutex<State<S, V>>,
    changed: Condvar,
}

impl<F, S, V> Slot<F, S, V> {
    fn set(&self, state: State<S, V>) {
        *lock_unpoisoned(&self.state) = state;
        self.changed.notify_all();
    }
}

/// The slots in flight, by key.
type Slots<F, S, V> = HashMap<u64, Arc<Slot<F, S, V>>>;

/// The in-flight computations of one cache table, by key: `F` is the
/// request facts a key stands for, `S` the shared work a leader opens to
/// helpers, and `V` the value it publishes.
pub(crate) struct Flights<F, S, V> {
    slots: Mutex<Slots<F, S, V>>,
}

impl<F, S, V> Default for Flights<F, S, V> {
    // Inlined so that `Engine::new` builds its session in place.
    #[inline(always)]
    fn default() -> Flights<F, S, V> {
        Flights {
            slots: Mutex::new(HashMap::new()),
        }
    }
}

/// The outcome of [`Flights::claim`].
pub(crate) enum Claim<'a, F, S, V> {
    /// Nothing was in flight for the key: the caller computes, then
    /// publishes through the guard.
    Lead(Leader<'a, F, S, V>),
    /// A leader for the same facts published this value.
    Joined(V),
    /// A computation for the same key but different facts is in flight.
    Collision,
}

impl<F: PartialEq, S, V: Clone> Flights<F, S, V> {
    /// Claims `key` for a computation of `facts`. Joining, the caller
    /// runs `help` once on shared work the leader opens, if it arrives
    /// while that work is open, and then waits for the value.
    pub(crate) fn claim(&self, key: u64, facts: F, mut help: impl FnMut(&S)) -> Claim<'_, F, S, V> {
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
            if let Some(value) = join(&slot, &mut help) {
                return Claim::Joined(value);
            }
            // Abandoned: claim again, leading if nobody else has yet.
        }
    }
}

/// Helps with or waits on `slot` until it resolves: `Some` once its
/// value is published, `None` once it is abandoned.
fn join<F, S, V: Clone>(slot: &Slot<F, S, V>, help: &mut impl FnMut(&S)) -> Option<V> {
    let mut helped = false;
    let mut state = lock_unpoisoned(&slot.state);
    loop {
        match &*state {
            State::Done(value) => return Some(value.clone()),
            State::Abandoned => return None,
            State::Open(work) if !helped => {
                let work = Arc::clone(work);
                drop(state);
                helped = true;
                help(&work);
                state = lock_unpoisoned(&slot.state);
            }
            State::Running | State::Open(_) => state = wait_unpoisoned(&slot.changed, state),
        }
    }
}

/// The leading claim on a key. Dropping it retires the slot; dropping it
/// unpublished abandons it, waking every joiner to claim again.
pub(crate) struct Leader<'a, F, S, V> {
    flights: &'a Flights<F, S, V>,
    key: u64,
    slot: Arc<Slot<F, S, V>>,
}

impl<F, S, V> Leader<'_, F, S, V> {
    /// Opens `work` to joiners: each one that arrives before
    /// [`Leader::close`] helps with it once.
    pub(crate) fn open(&self, work: Arc<S>) {
        self.slot.set(State::Open(work));
    }

    /// Closes the shared work: joiners that arrive from now on only wait.
    pub(crate) fn close(&self) {
        self.slot.set(State::Running);
    }

    /// Publishes `value` to every joiner and retires the slot. Insert
    /// the value into the table first (see the module docs).
    pub(crate) fn publish(self, value: V) {
        self.slot.set(State::Done(value));
    }
}

impl<F, S, V> Drop for Leader<'_, F, S, V> {
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
impl<F, S, V> Flights<F, S, V> {
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

    /// A table whose shared work is a channel its helpers report on.
    type Table = Flights<u32, mpsc::SyncSender<&'static str>, u64>;

    fn lead(table: &Table, facts: u32) -> Leader<'_, u32, mpsc::SyncSender<&'static str>, u64> {
        match table.claim(7, facts, |_| panic!("a leader never helps")) {
            Claim::Lead(leader) => leader,
            _ => panic!("the first claim leads"),
        }
    }

    fn joined<F, S, V>(claim: Claim<'_, F, S, V>) -> V {
        match claim {
            Claim::Joined(value) => value,
            Claim::Lead(_) => panic!("expected to join, led"),
            Claim::Collision => panic!("expected to join, collided"),
        }
    }

    #[test]
    fn a_joiner_arriving_mid_scan_helps_and_returns_the_leaders_value() {
        let table = Table::default();
        let leader = lead(&table, 1);
        let (tx, rx) = mpsc::sync_channel(1);
        leader.open(Arc::new(tx));
        std::thread::scope(|scope| {
            let joiner =
                scope.spawn(|| joined(table.claim(7, 1, |work| work.send("helped").unwrap())));
            // The joiner helps while the work is open ...
            assert_eq!(rx.recv().unwrap(), "helped");
            // ... and then waits for the leader's value.
            table.await_joiners(7, 1);
            leader.close();
            leader.publish(42);
            assert_eq!(joiner.join().unwrap(), 42);
        });
        // The slot is retired: the next claim leads.
        assert!(matches!(table.claim(7, 1, |_| {}), Claim::Lead(_)));
    }

    #[test]
    fn a_joiner_arriving_after_the_scan_closed_only_waits() {
        let table = Table::default();
        let leader = lead(&table, 1);
        let (tx, rx) = mpsc::sync_channel(1);
        leader.open(Arc::new(tx));
        leader.close();
        std::thread::scope(|scope| {
            let joiner =
                scope.spawn(|| joined(table.claim(7, 1, |work| work.send("helped").unwrap())));
            table.await_joiners(7, 1);
            leader.publish(42);
            assert_eq!(joiner.join().unwrap(), 42);
        });
        assert!(rx.try_recv().is_err(), "a closed scan takes no help");
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
                    scope.spawn(|| match table.claim(7, 1, |_| {}) {
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
    fn a_panicking_helper_does_not_wedge_the_leader() {
        let table = Table::default();
        let leader = lead(&table, 1);
        let (tx, rx) = mpsc::sync_channel(1);
        leader.open(Arc::new(tx));
        std::thread::scope(|scope| {
            let helper = scope.spawn(|| {
                table.claim(7, 1, |work| {
                    work.send("helping").unwrap();
                    panic!("the helper's scan fails");
                });
            });
            assert_eq!(rx.recv().unwrap(), "helping");
            assert!(helper.join().is_err(), "the helper panicked");
            leader.close();
            let joiner = scope.spawn(|| joined(table.claim(7, 1, |_| {})));
            table.await_joiners(7, 1);
            leader.publish(42);
            assert_eq!(joiner.join().unwrap(), 42);
        });
    }

    #[test]
    fn a_fingerprint_collision_never_joins() {
        let table = Table::default();
        let leader = lead(&table, 1);
        // Same key, different facts: not this slot's computation.
        assert!(matches!(table.claim(7, 2, |_| {}), Claim::Collision));
        leader.publish(42);
        assert!(matches!(table.claim(7, 2, |_| {}), Claim::Lead(_)));
    }

    #[test]
    fn an_unpublished_leader_abandons_its_slot() {
        let table = Table::default();
        drop(lead(&table, 1));
        assert!(lock_unpoisoned(&table.slots).is_empty());
        assert!(matches!(table.claim(7, 1, |_| {}), Claim::Lead(_)));
    }
}
