//! The bound-sorted order a search scans, built class by class.
//!
//! An allocation holds one count vector per class, and with the two
//! classes of [`OpClass::ALL`] it is a pair. The enumeration of the module
//! docs walks the first class's vectors (the *outer* class) in
//! lexicographic order and, under each, the second class's vectors (the
//! *inner* class) that still fit the area bound, also in lexicographic
//! order. So the inner class's vectors are listed once, and the outer
//! class is walked vector by vector only until the cap is reached. A class
//! the graph does not use has one vector, of width zero.
//!
//! The inner list is kept as *runs*: the vectors that share every count
//! but the last version's. Under an outer vector of area `a`, a run whose
//! fixed counts take `p` area units admits its first
//! `⌊(A − a − p) / unit⌋ + 1` vectors, so each outer vector costs one
//! step per run rather than one per inner vector.
//!
//! The cap counts raw leaves, as the enumeration does: every pair the
//! walk meets, covering or not, the zero vectors included. The order
//! admits the first [`MAX_ALLOCATIONS`] of them and is capped exactly when
//! a further leaf exists. An allocation's enumeration index is the
//! running count of covering pairs.
//!
//! Under a class-min row the slack bound is a product of per-class
//! factors (see `bound.rs`), and a vector's fastest delay fixes its
//! class's entry of the row. So each vector's factor is computed once per
//! delay the other class can contribute to the row, the first time an
//! admitted allocation needs it, and an allocation's bound is
//! `outer factor × inner factor`: bit for bit the `1.0 × f₀ × f₁` the
//! per-allocation form computes, since multiplying by one is exact.
//!
//! Bounds take few distinct values: 5–222 across 11 409–97 438 feasible
//! allocations at L=8/A=64 on `random:{32x5,64x6,64x8,96x8}@0`. A stable
//! counting sort over them, highest first, fed in enumeration order,
//! yields the scan's order — bound descending, ties by enumeration index —
//! in linear time.

use super::bound::SlackBound;
use super::{class_slot, MAX_ALLOCATIONS, SLOTS};
use crate::bounds::Bounds;
use rchls_dfg::{Dfg, NodeId, OpClass};
use rchls_reslib::{Library, VersionId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

const _: () = assert!(
    SLOTS == 2,
    "an allocation is a pair of count vectors: one outer, one inner"
);

/// A factor not computed yet.
const UNSET: f64 = f64::NAN;

/// A factor whose relaxation has no solution.
const INFEASIBLE: f64 = f64::NEG_INFINITY;

/// A class vector being walked in lexicographic order, with its area.
#[derive(Debug)]
struct Walker {
    counts: Vec<u32>,
    area: u32,
}

impl Walker {
    /// The zero vector of `class`.
    fn new(class: &ClassVectors) -> Walker {
        Walker {
            counts: vec![0; class.units.len()],
            area: 0,
        }
    }

    /// Steps to the next vector of `class` within `area_bound`; `false`
    /// after the last. The last version's count rises fastest, each up to
    /// the class's operation count.
    fn advance(&mut self, class: &ClassVectors, area_bound: u32) -> bool {
        for (count, &unit) in self.counts.iter_mut().zip(&class.units).rev() {
            if *count < class.ops && area_bound - self.area >= unit {
                *count += 1;
                self.area += unit;
                return true;
            }
            self.area -= *count * unit;
            *count = 0;
        }
        false
    }
}

/// One class's count vectors: per version in library order, at most the
/// graph's operation count of the class, in lexicographic order.
#[derive(Debug)]
struct ClassVectors {
    /// The class's slot in [`OpClass::ALL`].
    class: usize,
    /// The class's versions, and the position of the first in the
    /// search's version list.
    ids: Vec<VersionId>,
    first: usize,
    /// Whether the graph uses the class, so an allocation needs a unit
    /// of it.
    used: bool,
    /// Per version, its unit area and its position in `delays`.
    units: Vec<u32>,
    delay_slots: Vec<u32>,
    /// The most units of any one version: the class's operation count.
    ops: u32,
    /// The distinct delays the class's versions contribute to a
    /// class-min row; a class without versions contributes `u32::MAX`.
    delays: Vec<u32>,
    /// The number of the other class's `delays`: the stride of
    /// `factors`.
    other_delays: usize,
    /// `units.len()` counts per vector, vector `v` at `v * width`.
    counts: Vec<u32>,
    /// Per vector, its area.
    areas: Vec<u32>,
    /// Per vector, the position in `delays` of its fastest version's
    /// delay (0 for the zero vector, which no covering pair holds).
    delay_of: Vec<u32>,
    /// Per vector and delay of the other class, the vector's factor of
    /// the bound, or [`UNSET`] or [`INFEASIBLE`].
    factors: Vec<f64>,
}

impl ClassVectors {
    /// An empty list for `class`, whose versions sit at positions `first..`
    /// of the search's version list.
    fn new(dfg: &Dfg, library: &Library, class: OpClass, first: usize) -> ClassVectors {
        let ops = dfg.count_class(class);
        let used = ops > 0;
        let (mut ids, mut units) = (Vec::new(), Vec::new());
        let (mut delays, mut delay_slots) = (Vec::new(), Vec::new());
        for (id, version) in library.versions_of(class).filter(|_| used) {
            ids.push(id);
            units.push(version.area());
            let slot = delays.iter().position(|&d| d == version.delay());
            delay_slots.push(slot.unwrap_or(delays.len()) as u32);
            if slot.is_none() {
                delays.push(version.delay());
            }
        }
        if delays.is_empty() {
            delays.push(u32::MAX);
        }
        ClassVectors {
            class: class_slot(class),
            ids,
            first,
            used,
            units,
            delay_slots,
            ops: u32::try_from(ops).unwrap_or(u32::MAX),
            delays,
            other_delays: 0,
            counts: Vec::new(),
            areas: Vec::new(),
            delay_of: Vec::new(),
            factors: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.areas.len()
    }

    /// The unit counts of vector `v`.
    fn counts(&self, v: usize) -> &[u32] {
        let width = self.units.len();
        &self.counts[v * width..(v + 1) * width]
    }

    /// Whether vector `v` satisfies the class: it holds a unit, or the
    /// graph does not use the class. Every unit takes area, so only the
    /// zero vector holds none.
    fn covers(&self, v: usize) -> bool {
        !self.used || self.areas[v] > 0
    }

    /// How many of `vectors` satisfy the class: all but the zero vector,
    /// which comes first.
    fn covered(&self, vectors: &Range<usize>) -> usize {
        vectors.len() - usize::from(vectors.start == 0 && !vectors.is_empty() && !self.covers(0))
    }

    /// Appends the walker's current vector.
    fn push(&mut self, walker: &Walker) {
        let fastest = walker
            .counts
            .iter()
            .zip(&self.delay_slots)
            .filter(|&(&count, _)| count > 0)
            .map(|(_, &slot)| slot)
            .min_by_key(|&slot| self.delays[slot as usize]);
        self.counts.extend_from_slice(&walker.counts);
        self.areas.push(walker.area);
        self.delay_of.push(fastest.unwrap_or(0));
        self.factors
            .extend(std::iter::repeat_n(UNSET, self.other_delays));
    }

    /// Lists every vector within `area_bound`, stopping after `limit`,
    /// and returns the list's runs.
    fn list(&mut self, area_bound: u32, limit: usize) -> Vec<Run> {
        let mut walker = Walker::new(self);
        let mut runs: Vec<Run> = Vec::new();
        loop {
            if walker.counts.last().is_none_or(|&count| count == 0) {
                runs.push(Run {
                    first: self.len(),
                    area: walker.area,
                    last_area: walker.area,
                    rest_area: walker.area,
                    len: 0,
                });
            }
            if let Some(run) = runs.last_mut() {
                run.len += 1;
                run.last_area = walker.area;
            }
            self.push(&walker);
            if self.len() == limit || !walker.advance(self, area_bound) {
                break;
            }
        }
        let mut least = u32::MAX;
        for run in runs.iter_mut().rev() {
            least = least.min(run.area);
            run.rest_area = least;
        }
        runs
    }

    /// Vector `v`'s factor on the row `key`, in which the other class's
    /// delay is its entry `other`.
    fn factor(
        &mut self,
        v: usize,
        other: usize,
        key: [u32; SLOTS],
        bound: &mut SlackBound<'_>,
    ) -> f64 {
        let at = v * self.other_delays + other;
        if self.factors[at].is_nan() {
            self.factors[at] = self.compute_factor(v, key, bound);
        }
        self.factors[at]
    }

    #[cold]
    fn compute_factor(&self, v: usize, key: [u32; SLOTS], bound: &mut SlackBound<'_>) -> f64 {
        let row = bound.row(key);
        let counts = self.counts(v);
        bound
            .factor(row, self.class, |j| counts[j - self.first])
            .unwrap_or(INFEASIBLE)
    }
}

/// Inner vectors that share every count but the last version's, which
/// rises from zero along the run.
#[derive(Debug, Clone, Copy)]
struct Run {
    first: usize,
    /// The areas of the run's first and last vectors; the first's is
    /// its fixed counts' area.
    area: u32,
    last_area: u32,
    /// The least first-vector area of this run and every later one.
    rest_area: u32,
    len: usize,
}

/// One allocation of the order: its bound level, its outer and inner
/// vectors, and its enumeration index.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Entry {
    level: u32,
    outer: u32,
    inner: u32,
    index: u32,
}

impl Entry {
    /// The allocation's position in the enumeration's covering
    /// allocations.
    pub(super) fn index(&self) -> usize {
        self.index as usize
    }
}

/// Hashes a bound's bits with one wide multiply. The keys are the few
/// hundred bounds one search computes, never outside input, so the
/// default hasher's protection against crafted collisions buys nothing.
#[derive(Debug, Default)]
struct BitsHasher(u64);

impl Hasher for BitsHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, bits: u64) {
        let product = u128::from(bits ^ self.0) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product >> 64) as u64 ^ product as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The distinct bounds a walk meets, numbered as first met, each with
/// the number of allocations that reach it.
#[derive(Debug, Default)]
struct Levels {
    numbers: HashMap<u64, u32, BuildHasherDefault<BitsHasher>>,
    values: Vec<f64>,
    counts: Vec<usize>,
    /// The last bound added, as bits, and its number: neighbouring
    /// allocations often share a bound.
    last: Option<(u64, u32)>,
}

impl Levels {
    /// The number of `bound`, counting one more allocation at it.
    fn add(&mut self, bound: f64) -> u32 {
        let bits = bound.to_bits();
        let level = match self.last {
            Some((last, level)) if last == bits => level,
            _ => {
                let fresh = self.values.len() as u32;
                let level = *self.numbers.entry(bits).or_insert(fresh);
                if level == fresh {
                    self.values.push(bound);
                    self.counts.push(0);
                }
                self.last = Some((bits, level));
                level
            }
        };
        self.counts[level as usize] += 1;
        level
    }

    /// Sorts `walked`, which is in enumeration order, by level value,
    /// highest first, keeping enumeration order within a level. Returns
    /// the entries renumbered to their level's rank, and the values by
    /// rank.
    fn sort(self, walked: &[Entry]) -> (Vec<Entry>, Vec<f64>) {
        let mut by_value: Vec<u32> = (0..self.values.len() as u32).collect();
        by_value
            .sort_unstable_by(|&a, &b| self.values[b as usize].total_cmp(&self.values[a as usize]));
        let mut rank = vec![0u32; by_value.len()];
        let mut next = vec![0usize; by_value.len()];
        let mut at = 0;
        for (r, &level) in by_value.iter().enumerate() {
            rank[level as usize] = r as u32;
            next[r] = at;
            at += self.counts[level as usize];
        }
        let mut entries = vec![Entry::default(); walked.len()];
        for &entry in walked {
            let level = rank[entry.level as usize];
            let slot = &mut next[level as usize];
            entries[*slot] = Entry { level, ..entry };
            *slot += 1;
        }
        let values = by_value
            .iter()
            .map(|&level| self.values[level as usize])
            .collect();
        (entries, values)
    }
}

/// The allocations a search scans, highest bound first, ties by
/// enumeration index, with what the scan needs to rebuild each one.
#[derive(Debug)]
pub(super) struct Order {
    /// The versions of every class the graph uses, class by class in
    /// library order: the positions of an allocation's counts.
    versions: Vec<VersionId>,
    outer: ClassVectors,
    inner: ClassVectors,
    entries: Vec<Entry>,
    /// The distinct bounds, highest first; an entry's `level` indexes
    /// them.
    levels: Vec<f64>,
    /// The covering allocations among the admitted leaves.
    pub(super) rows: usize,
    /// Whether the cap dropped a leaf.
    pub(super) capped: bool,
}

impl Order {
    /// Walks the allocations of `dfg` under `bounds.area` and sorts those
    /// the slack bound at `bounds.latency` leaves feasible. `topo` is a
    /// topological order of `dfg` and `node_class` each node's class
    /// slot.
    pub(super) fn build(
        dfg: &Dfg,
        library: &Library,
        bounds: Bounds,
        topo: &[NodeId],
        node_class: &[usize],
    ) -> Order {
        let [first, second] = OpClass::ALL;
        let mut outer = ClassVectors::new(dfg, library, first, 0);
        let mut inner = ClassVectors::new(dfg, library, second, outer.ids.len());
        outer.other_delays = inner.delays.len();
        inner.other_delays = outer.delays.len();
        let versions: Vec<VersionId> = outer.ids.iter().chain(&inner.ids).copied().collect();
        let mut bound = SlackBound::new(dfg, topo, node_class, library, &versions, bounds.latency);
        let area = bounds.area;
        // The zero outer vector comes first and admits every inner vector,
        // so the walk never needs more than the cap's worth of them; one
        // more shows that the cap drops a leaf.
        let runs = inner.list(area, MAX_ALLOCATIONS + 1);
        // A class without versions has one vector, which its run's length
        // admits on its own.
        let last_unit = inner.units.last().copied().unwrap_or(1);
        let mut walked: Vec<Entry> = Vec::new();
        let mut levels = Levels::default();
        let (mut raw, mut rows, mut capped) = (0, 0, false);
        let mut walker = Walker::new(&outer);
        'walk: loop {
            let u = outer.len();
            outer.push(&walker);
            let room = area - walker.area;
            let covers = outer.covers(u);
            let outer_delay = outer.delay_of[u] as usize;
            for run in &runs {
                if run.rest_area > room {
                    break;
                }
                if run.area > room {
                    continue;
                }
                if raw == MAX_ALLOCATIONS {
                    // The run's first vector is a leaf past the cap.
                    capped = true;
                    break 'walk;
                }
                let fits = if room >= run.last_area {
                    run.len
                } else {
                    ((room - run.area) / last_unit) as usize + 1
                };
                let take = fits.min(MAX_ALLOCATIONS - raw);
                raw += take;
                // A run's fastest delay changes at most once, after its
                // first vector: the last version joins from then on.
                let (head, tail) = (
                    run.first..run.first + take.min(1),
                    run.first + 1..run.first + take,
                );
                for segment in [head, tail].into_iter().filter(|_| covers) {
                    let covered = inner.covered(&segment);
                    if covered == 0 {
                        continue;
                    }
                    let inner_delay = inner.delay_of[segment.start] as usize;
                    let key = [outer.delays[outer_delay], inner.delays[inner_delay]];
                    let outer_factor = outer.factor(u, inner_delay, key, &mut bound);
                    if outer_factor == INFEASIBLE {
                        rows += covered;
                        continue;
                    }
                    for v in segment {
                        if !inner.covers(v) {
                            continue;
                        }
                        let index = rows as u32;
                        rows += 1;
                        let inner_factor = inner.factor(v, outer_delay, key, &mut bound);
                        if inner_factor == INFEASIBLE {
                            continue;
                        }
                        walked.push(Entry {
                            level: levels.add(outer_factor * inner_factor),
                            outer: u as u32,
                            inner: v as u32,
                            index,
                        });
                    }
                }
                if take < fits {
                    capped = true;
                    break 'walk;
                }
            }
            if !walker.advance(&outer, area) {
                break;
            }
            if raw == MAX_ALLOCATIONS {
                // Every outer vector has a leaf: the zero inner vector.
                capped = true;
                break;
            }
        }
        let (entries, levels) = levels.sort(&walked);
        Order {
            versions,
            outer,
            inner,
            entries,
            levels,
            rows,
            capped,
        }
    }

    /// How many allocations the scan may visit.
    pub(super) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The entries at `positions` of the order.
    pub(super) fn entries(&self, positions: Range<usize>) -> &[Entry] {
        &self.entries[positions]
    }

    /// The bound of `entry`.
    pub(super) fn bound(&self, entry: &Entry) -> f64 {
        self.levels[entry.level as usize]
    }

    /// Writes `entry`'s unit counts, in version-list order, into `row`.
    pub(super) fn counts(&self, entry: &Entry, row: &mut Vec<u32>) {
        row.clear();
        row.extend_from_slice(self.outer.counts(entry.outer as usize));
        row.extend_from_slice(self.inner.counts(entry.inner as usize));
    }

    /// The allocation with unit counts `row`, as `(version, count)`
    /// pairs.
    pub(super) fn allocation<'r>(
        &'r self,
        row: &'r [u32],
    ) -> impl Iterator<Item = (VersionId, u32)> + 'r {
        self.versions.iter().copied().zip(row.iter().copied())
    }

    /// How many outer vectors the walk visited.
    #[cfg(test)]
    pub(super) fn outer_vectors(&self) -> usize {
        self.outer.len()
    }
}
