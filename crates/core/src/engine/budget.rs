//! The session cache budget and the size-accounted LRU table every
//! engine memo table builds on.
//!
//! A long-running session must not retain everything forever. A
//! [`CacheBudget`] splits one byte allowance across four layers: the
//! report table of the [`SynthCache`](crate::engine::SynthCache), the
//! two tables of the [`StartsCache`](crate::engine::StartsCache), and the
//! [`ScratchPool`](crate::ScratchPool). A [`BudgetedTable`] enforces a
//! table's share with least-recently-used eviction over approximate
//! entry sizes.
//!
//! Eviction never changes synthesis outputs — an evicted entry is simply
//! recomputed on the next request, and every cached artifact replays
//! deterministically (reports are pure values; start pools replay their
//! recorded pass-call counts) — so a session under budget 0 answers
//! byte-identically to one with an unlimited cache. What *is*
//! load-order-dependent is which keys are resident at any instant, which
//! is why deterministic documents (see
//! [`BatchReport`](crate::engine::BatchReport)) report cumulative
//! distinct keys ever interned (the `seen` set here), never resident
//! counts.

use std::collections::{HashMap, HashSet};
use std::fmt;

/// A session's total cache memory allowance, split across the engine's
/// four cache layers (synthesis reports, start pools, alloc designs,
/// scratch arenas).
///
/// The default is [`CacheBudget::UNLIMITED`] — the pre-budget behavior,
/// where nothing is ever evicted. A limited budget of 0 disables
/// caching entirely (every entry is evicted on insert) without changing
/// any output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheBudget {
    total: Option<u64>,
}

impl CacheBudget {
    /// No budget: caches grow without bound (the historical behavior).
    pub const UNLIMITED: CacheBudget = CacheBudget { total: None };

    /// A budget of `total_bytes` across all cache layers.
    #[must_use]
    pub fn limited(total_bytes: u64) -> CacheBudget {
        CacheBudget {
            total: Some(total_bytes),
        }
    }

    /// The total allowance in bytes (`None` = unlimited).
    #[must_use]
    pub fn total_bytes(self) -> Option<u64> {
        self.total
    }

    /// Parses a budget spec: `unlimited` (or `none`), or a byte count
    /// with an optional `B`/`KiB`/`MiB`/`GiB` suffix (case-insensitive;
    /// `KB`/`MB`/`GB` are accepted as the same binary units).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unparsable specs or values
    /// that overflow a `u64`.
    pub fn parse(spec: &str) -> Result<CacheBudget, String> {
        let spec = spec.trim();
        if spec.eq_ignore_ascii_case("unlimited") || spec.eq_ignore_ascii_case("none") {
            return Ok(CacheBudget::UNLIMITED);
        }
        let lower = spec.to_ascii_lowercase();
        let (digits, multiplier) = if let Some(n) = lower
            .strip_suffix("gib")
            .or_else(|| lower.strip_suffix("gb"))
        {
            (n, 1u64 << 30)
        } else if let Some(n) = lower
            .strip_suffix("mib")
            .or_else(|| lower.strip_suffix("mb"))
        {
            (n, 1u64 << 20)
        } else if let Some(n) = lower
            .strip_suffix("kib")
            .or_else(|| lower.strip_suffix("kb"))
        {
            (n, 1u64 << 10)
        } else if let Some(n) = lower.strip_suffix('b') {
            (n, 1)
        } else {
            (lower.as_str(), 1)
        };
        let value: u64 = digits.trim().parse().map_err(|_| {
            format!("invalid cache budget {spec:?} (expected e.g. 64KiB, 512MiB, unlimited)")
        })?;
        value
            .checked_mul(multiplier)
            .map(CacheBudget::limited)
            .ok_or_else(|| format!("cache budget {spec:?} overflows"))
    }

    /// The synthesis-report layer's share (8/16 of the total).
    #[must_use]
    pub(crate) fn synth_share(self) -> Option<usize> {
        self.share(8)
    }

    /// The start-pool layer's share (4/16 of the total).
    #[must_use]
    pub(crate) fn starts_share(self) -> Option<usize> {
        self.share(4)
    }

    /// The alloc-design layer's share (2/16 of the total).
    #[must_use]
    pub(crate) fn alloc_share(self) -> Option<usize> {
        self.share(2)
    }

    /// The scratch-arena pool's share (2/16 of the total).
    #[must_use]
    pub(crate) fn scratch_share(self) -> Option<usize> {
        self.share(2)
    }

    fn share(self, sixteenths: u64) -> Option<usize> {
        self.total.map(|t| (t / 16 * sixteenths) as usize)
    }
}

impl fmt::Display for CacheBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.total {
            None => write!(f, "unlimited"),
            Some(b) => write!(f, "{b} B"),
        }
    }
}

/// One resident entry: the value, the byte size it was booked at, and
/// the recency tick LRU eviction orders by.
#[derive(Debug)]
struct Slot<V> {
    value: V,
    bytes: usize,
    last_used: u64,
}

/// A size-accounted LRU map from 64-bit fingerprints to cache entries.
///
/// Not thread-safe by itself — each memo table (`engine::memo`) wraps
/// one in its `Mutex`, so recency updates piggyback on the lock the
/// lookup already holds. Eviction scans for the minimum recency tick
/// (`O(resident)` per evicted entry); resident counts under any sane
/// budget are small enough that this beats maintaining an intrusive
/// list, and the scan only runs on inserts that exceed the budget.
///
/// The table also remembers every key ever inserted (`seen`, 8 bytes
/// per key) so deterministic session facts can count distinct work
/// independent of what eviction left resident.
#[derive(Debug)]
pub(crate) struct BudgetedTable<V> {
    entries: HashMap<u64, Slot<V>>,
    seen: HashSet<u64>,
    resident_bytes: usize,
    budget: Option<usize>,
    tick: u64,
    evictions: u64,
}

impl<V> Default for BudgetedTable<V> {
    // Inlined so that `Engine::new` builds its session in place.
    #[inline(always)]
    fn default() -> BudgetedTable<V> {
        BudgetedTable {
            entries: HashMap::new(),
            seen: HashSet::new(),
            resident_bytes: 0,
            budget: None,
            tick: 0,
            evictions: 0,
        }
    }
}

impl<V> BudgetedTable<V> {
    /// Replaces the byte budget (`None` = unlimited), evicting
    /// immediately if the resident set now exceeds it. Returns the
    /// number of entries evicted.
    pub fn set_budget(&mut self, budget: Option<usize>) -> u64 {
        self.budget = budget;
        self.evict_to_budget()
    }

    /// Looks up `key`, marking it most-recently-used on a hit.
    pub fn get(&mut self, key: u64) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&key).map(|slot| {
            slot.last_used = tick;
            &slot.value
        })
    }

    /// Inserts `key` booked at `bytes`, then evicts least-recently-used
    /// entries (possibly including the one just inserted, under a tiny
    /// budget) until the resident bytes fit the budget. Returns the
    /// number of entries evicted.
    pub fn insert(&mut self, key: u64, value: V, bytes: usize) -> u64 {
        self.tick += 1;
        self.seen.insert(key);
        let slot = Slot {
            value,
            bytes,
            last_used: self.tick,
        };
        if let Some(old) = self.entries.insert(key, slot) {
            self.resident_bytes -= old.bytes;
        }
        self.resident_bytes += bytes;
        self.evict_to_budget()
    }

    fn evict_to_budget(&mut self) -> u64 {
        let Some(budget) = self.budget else { return 0 };
        let mut evicted = 0;
        while self.resident_bytes > budget && !self.entries.is_empty() {
            // Ticks are unique, so `last_used` alone already picks one
            // entry; the key tie-break keeps the choice independent of
            // hash iteration order even if that ever changes.
            let key = *self
                .entries
                // rchls-lint: allow(unordered-iter, reason = "min over (last_used, key) is iteration-order independent")
                .iter()
                .min_by_key(|(key, slot)| (slot.last_used, **key))
                .expect("non-empty table has a minimum")
                .0;
            let slot = self.entries.remove(&key).expect("key just found");
            self.resident_bytes -= slot.bytes;
            evicted += 1;
        }
        self.evictions += evicted;
        evicted
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Number of distinct keys ever inserted — the eviction-independent
    /// (and therefore deterministic) session fact.
    pub fn seen_len(&self) -> usize {
        self.seen.len()
    }

    /// Approximate resident payload bytes.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// Entries evicted since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_budget_specs() {
        assert_eq!(CacheBudget::parse("unlimited"), Ok(CacheBudget::UNLIMITED));
        assert_eq!(CacheBudget::parse("none"), Ok(CacheBudget::UNLIMITED));
        assert_eq!(CacheBudget::parse("0"), Ok(CacheBudget::limited(0)));
        assert_eq!(CacheBudget::parse("4096"), Ok(CacheBudget::limited(4096)));
        assert_eq!(
            CacheBudget::parse("64KiB"),
            Ok(CacheBudget::limited(64 << 10))
        );
        assert_eq!(
            CacheBudget::parse("64kb"),
            Ok(CacheBudget::limited(64 << 10))
        );
        assert_eq!(
            CacheBudget::parse("2MiB"),
            Ok(CacheBudget::limited(2 << 20))
        );
        assert_eq!(
            CacheBudget::parse("1GiB"),
            Ok(CacheBudget::limited(1 << 30))
        );
        assert_eq!(CacheBudget::parse("512B"), Ok(CacheBudget::limited(512)));
        assert!(CacheBudget::parse("lots").is_err());
        assert!(CacheBudget::parse("12TiB").is_err());
        assert!(CacheBudget::parse("99999999999999999999GiB").is_err());
        assert_eq!(CacheBudget::limited(64).to_string(), "64 B");
        assert_eq!(CacheBudget::UNLIMITED.to_string(), "unlimited");
    }

    #[test]
    fn shares_split_the_total() {
        let b = CacheBudget::limited(16 << 10);
        assert_eq!(b.synth_share(), Some(8 << 10));
        assert_eq!(b.starts_share(), Some(4 << 10));
        assert_eq!(b.alloc_share(), Some(2 << 10));
        assert_eq!(b.scratch_share(), Some(2 << 10));
        assert_eq!(CacheBudget::UNLIMITED.synth_share(), None);
        assert_eq!(CacheBudget::limited(0).synth_share(), Some(0));
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut t = BudgetedTable::default();
        t.set_budget(Some(100));
        assert_eq!(t.insert(1, "a", 40), 0);
        assert_eq!(t.insert(2, "b", 40), 0);
        // Touch key 1 so key 2 is now the LRU entry.
        assert_eq!(t.get(1), Some(&"a"));
        assert_eq!(t.insert(3, "c", 40), 1);
        assert!(t.get(2).is_none(), "LRU entry was evicted");
        assert_eq!(t.get(1), Some(&"a"));
        assert_eq!(t.get(3), Some(&"c"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.seen_len(), 3);
        assert_eq!(t.resident_bytes(), 80);
        assert_eq!(t.evictions(), 1);
    }

    #[test]
    fn budget_zero_caches_nothing_but_remembers_seen_keys() {
        let mut t = BudgetedTable::default();
        t.set_budget(Some(0));
        assert_eq!(t.insert(7, "x", 16), 1);
        assert_eq!(t.len(), 0);
        assert_eq!(t.resident_bytes(), 0);
        assert_eq!(t.seen_len(), 1);
        // Re-inserting the same key keeps the seen count stable.
        assert_eq!(t.insert(7, "x", 16), 1);
        assert_eq!(t.seen_len(), 1);
    }

    #[test]
    fn reinserting_a_key_replaces_its_bytes() {
        let mut t = BudgetedTable::default();
        assert_eq!(t.insert(1, "a", 30), 0);
        assert_eq!(t.insert(1, "b", 50), 0);
        assert_eq!(t.resident_bytes(), 50);
        assert_eq!(t.len(), 1);
        assert_eq!(t.seen_len(), 1);
        // Shrinking the budget evicts immediately.
        assert_eq!(t.set_budget(Some(10)), 1);
        assert_eq!(t.len(), 0);
        assert_eq!(t.evictions(), 1);
    }
}
