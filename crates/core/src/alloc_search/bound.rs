//! The slack-aware capacity bound on the reliability an allocation can
//! reach.
//!
//! Fix an allocation and let `m[c]` be the fastest delay it offers class
//! `c` (its *class-min row*). Every design scheduled on it gives each
//! operation a delay of at least `m[class]`, so with `head[n]` / `tail[n]`
//! the longest `m`-weighted paths into and out of node `n`, any node
//! running a version of delay `d` needs `head[n] + d + tail[n] ≤ Ld`: its
//! *slack* `Ld − head[n] − tail[n]` must be at least `d`. And a unit of
//! delay `d` runs at most `⌊Ld/d⌋` operations inside the budget, so the
//! `count` units of a version serve at most `count·⌊Ld/d⌋` nodes.
//!
//! The bound is the optimum of that relaxation: give every node a version
//! whose delay fits its slack, within each version's capacity, maximizing
//! the product of reliabilities. Per class, [`nested_slack_greedy`] solves
//! it exactly. The slack profile depends only on the row, so it is
//! memoized per distinct row (at most four with the paper's Table 1).
//! A row whose critical path already exceeds `Ld` leaves some node with
//! slack below its fastest delay, so the relaxation — and with it every
//! allocation sharing the row — is infeasible.
//!
//! Once the row is fixed, the classes no longer interact: the bound is
//! the product, in class order, of one [`SlackBound::factor`] per class,
//! each a function of that class's unit counts alone. The search's order
//! (`order.rs`) computes each count vector's factor once per row.

use super::{class_slot, SLOTS};
use rchls_dfg::{Dfg, NodeId};
use rchls_reslib::{Library, VersionId};

/// One lattice version, as the bound reads it.
#[derive(Debug, Clone, Copy)]
struct BoundVersion {
    class: usize,
    delay: u32,
    reliability: f64,
    /// Operations one unit can run inside the latency budget, `⌊Ld/d⌋`.
    per_unit: u64,
}

/// Per class, the node count at each slack value (ascending, zero counts
/// dropped); `None` when the row's critical path exceeds the bound.
type SlackProfile = Option<[Vec<(u32, u64)>; SLOTS]>;

/// One class-min row and its slack profile.
#[derive(Debug)]
struct SlackRow {
    key: [u32; SLOTS],
    profile: SlackProfile,
    /// Per class, the unit counts [`SlackBound::upper_bound`] last ran the
    /// class's greedy on, with its result. Allocations arrive in
    /// enumeration order, so consecutive ones mostly share the counts of
    /// every class but the last.
    #[cfg(test)]
    last: [(Vec<u32>, Option<f64>); SLOTS],
}

/// The slack-aware bound for one graph, library version list and latency
/// bound, with its slack profiles memoized per class-min row.
#[derive(Debug)]
pub(super) struct SlackBound<'a> {
    dfg: &'a Dfg,
    topo: &'a [NodeId],
    node_class: &'a [usize],
    latency: u32,
    versions: Vec<BoundVersion>,
    /// Per class: indices into `versions`, most reliable first.
    by_reliability: [Vec<usize>; SLOTS],
    rows: Vec<SlackRow>,
    head: Vec<u32>,
    tail: Vec<u32>,
    left: Vec<u64>,
}

impl<'a> SlackBound<'a> {
    /// A bound over allocations of `versions` (the search's version list)
    /// for `dfg` at latency bound `latency`. `topo` is a topological
    /// order of `dfg` and `node_class` each node's class slot.
    pub(super) fn new(
        dfg: &'a Dfg,
        topo: &'a [NodeId],
        node_class: &'a [usize],
        library: &Library,
        versions: &[VersionId],
        latency: u32,
    ) -> SlackBound<'a> {
        let versions: Vec<BoundVersion> = versions
            .iter()
            .map(|&v| {
                let ver = library.version(v);
                BoundVersion {
                    class: class_slot(ver.class()),
                    delay: ver.delay(),
                    reliability: ver.reliability().value(),
                    per_unit: u64::from(latency / ver.delay()),
                }
            })
            .collect();
        let by_reliability = std::array::from_fn(|class| {
            let mut order: Vec<usize> = (0..versions.len())
                .filter(|&j| versions[j].class == class)
                .collect();
            order.sort_by(|&a, &b| {
                versions[b]
                    .reliability
                    .total_cmp(&versions[a].reliability)
                    .then(a.cmp(&b))
            });
            order
        });
        SlackBound {
            dfg,
            topo,
            node_class,
            latency,
            versions,
            by_reliability,
            rows: Vec::new(),
            head: Vec::new(),
            tail: Vec::new(),
            left: Vec::new(),
        }
    }

    /// The memo slot of class-min row `key`, whose slack profile is
    /// computed the first time the row is asked for.
    pub(super) fn row(&mut self, key: [u32; SLOTS]) -> usize {
        if let Some(row) = self.rows.iter().position(|row| row.key == key) {
            return row;
        }
        let profile = self.slack_profile(&key);
        self.rows.push(SlackRow {
            key,
            profile,
            #[cfg(test)]
            last: Default::default(),
        });
        self.rows.len() - 1
    }

    /// Class `class`'s factor of the bound on row `row` (a slot from
    /// [`SlackBound::row`]) when the allocation runs `count(j)` units of
    /// each version `j` of the class: the relaxation's optimum for the
    /// class's nodes, or `None` when the row's critical path exceeds the
    /// bound or the class's nodes cannot all be placed. A class the graph
    /// does not use has no nodes and no versions, so its factor is 1.
    pub(super) fn factor(
        &mut self,
        row: usize,
        class: usize,
        count: impl Fn(usize) -> u32,
    ) -> Option<f64> {
        let SlackBound {
            versions,
            by_reliability,
            rows,
            left,
            ..
        } = self;
        let buckets = &rows[row].profile.as_ref()?[class];
        let offered = by_reliability[class].iter().filter_map(|&j| {
            let count = u64::from(count(j));
            let v = &versions[j];
            (count > 0).then_some((v.reliability, v.delay, count * v.per_unit))
        });
        nested_slack_greedy(buckets, offered, left)
    }

    /// The bound for the allocation with per-version unit `counts` (in
    /// version-list order, every class the graph uses present): `None`
    /// when no schedule on it can meet the latency bound, else a value no
    /// design scheduled on it exceeds (up to the floating-point rounding
    /// of the product, which the search's margin absorbs). The search
    /// takes the same product from per-class factors; this per-allocation
    /// form is the oracle its order is tested against.
    #[cfg(test)]
    pub(super) fn upper_bound(&mut self, counts: &[u32]) -> Option<f64> {
        let mut key = [u32::MAX; SLOTS];
        for (version, &count) in self.versions.iter().zip(counts) {
            if count > 0 {
                key[version.class] = key[version.class].min(version.delay);
            }
        }
        let row = self.row(key);
        let mut bound = 1.0;
        for class in 0..SLOTS {
            if self.rows[row].profile.as_ref()?[class].is_empty() {
                continue;
            }
            let order = &self.by_reliability[class];
            let (seen, _) = &self.rows[row].last[class];
            let unchanged = seen.len() == order.len()
                && order.iter().zip(seen.iter()).all(|(&j, &c)| counts[j] == c);
            if !unchanged {
                let seen = order.iter().map(|&j| counts[j]).collect();
                let factor = self.factor(row, class, |j| counts[j]);
                self.rows[row].last[class] = (seen, factor);
            }
            bound *= self.rows[row].last[class].1?;
        }
        Some(bound)
    }

    /// The slack profile of class-min row `key`.
    fn slack_profile(&mut self, key: &[u32; SLOTS]) -> SlackProfile {
        let dfg = self.dfg;
        let delay = |n: NodeId| key[self.node_class[n.index()]];
        self.head.clear();
        self.head.resize(dfg.node_count(), 0);
        self.tail.clear();
        self.tail.resize(dfg.node_count(), 0);
        for &n in self.topo {
            self.head[n.index()] = dfg
                .preds(n)
                .iter()
                .map(|&p| self.head[p.index()] + delay(p))
                .max()
                .unwrap_or(0);
        }
        for &n in self.topo.iter().rev() {
            self.tail[n.index()] = dfg
                .succs(n)
                .iter()
                .map(|&s| self.tail[s.index()] + delay(s))
                .max()
                .unwrap_or(0);
        }
        let mut dense: [Vec<u64>; SLOTS] =
            std::array::from_fn(|_| vec![0; self.latency as usize + 1]);
        for n in dfg.node_ids() {
            let d = delay(n);
            debug_assert!(d != u32::MAX, "the row covers every used class");
            let (head, tail) = (self.head[n.index()], self.tail[n.index()]);
            if head + d + tail > self.latency {
                return None;
            }
            dense[self.node_class[n.index()]][(self.latency - head - tail) as usize] += 1;
        }
        Some(dense.map(|counts| {
            counts
                .into_iter()
                .enumerate()
                .filter(|&(_, nodes)| nodes > 0)
                .map(|(slack, nodes)| (slack as u32, nodes))
                .collect()
        }))
    }
}

/// The relaxation's exact optimum for one class: `buckets` holds
/// `(slack, nodes)` pairs by ascending slack, `offered` the allocated
/// versions as `(reliability, delay, capacity)`, most reliable first.
/// Each version in turn takes up to its capacity of the smallest-slack
/// nodes still unplaced whose slack is at least its delay. Returns the
/// product of the placed reliabilities, or `None` when some node cannot
/// be placed at all.
///
/// The greedy is optimal because the eligible sets `{n : slack ≥ d}` are
/// nested: a node with more slack can take every version a node with
/// less slack can. Any feasible placement can be exchanged, one node at a
/// time, into the greedy's without lowering the product — first fill the
/// most reliable version to the greedy's count (moving a node onto it
/// never lowers the product and only frees capacity elsewhere), then swap
/// its nodes for the smallest-slack eligible ones (the displaced node has
/// at least the slack of the one it replaces, so it can take that node's
/// version) — and the argument repeats on the remaining versions and
/// nodes. The same exchange shows the greedy fails only when no feasible
/// placement exists. `left` is a reusable buffer.
pub(super) fn nested_slack_greedy(
    buckets: &[(u32, u64)],
    offered: impl Iterator<Item = (f64, u32, u64)>,
    left: &mut Vec<u64>,
) -> Option<f64> {
    left.clear();
    left.extend(buckets.iter().map(|&(_, nodes)| nodes));
    let mut unplaced: u64 = left.iter().sum();
    let mut product = 1.0f64;
    for (reliability, delay, capacity) in offered {
        if unplaced == 0 {
            break;
        }
        let first = buckets.partition_point(|&(slack, _)| slack < delay);
        let mut spare = capacity;
        let mut placed = 0u64;
        for nodes in &mut left[first..] {
            if spare == 0 {
                break;
            }
            let take = (*nodes).min(spare);
            *nodes -= take;
            spare -= take;
            placed += take;
        }
        product *= reliability.powi(i32::try_from(placed).unwrap_or(i32::MAX));
        unplaced -= placed;
    }
    (unplaced == 0).then_some(product)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny deterministic generator (xorshift64*), so the brute-force
    /// comparison needs no RNG dependency.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
        }
    }

    /// Every placement of `slacks` onto `offered` versions, by brute
    /// force: the best product, or `None` when none fits.
    fn brute_force(slacks: &[u32], offered: &[(f64, u32, u64)]) -> Option<f64> {
        let mut best: Option<f64> = None;
        let mut choice = vec![0usize; slacks.len()];
        loop {
            let mut used = vec![0u64; offered.len()];
            let mut fits = true;
            for (&slack, &v) in slacks.iter().zip(&choice) {
                used[v] += 1;
                fits &= offered[v].1 <= slack && used[v] <= offered[v].2;
            }
            if fits {
                let product = choice.iter().fold(1.0, |p, &v| p * offered[v].0);
                best = Some(best.map_or(product, |b: f64| b.max(product)));
            }
            // Next choice vector, odometer style.
            let mut i = 0;
            loop {
                if i == choice.len() {
                    return best;
                }
                choice[i] += 1;
                if choice[i] < offered.len() {
                    break;
                }
                choice[i] = 0;
                i += 1;
            }
        }
    }

    #[test]
    fn nested_slack_greedy_equals_brute_force_on_tiny_instances() {
        let mut mix = Mix(0x9E37_79B9_7F4A_7C15);
        let reliabilities = [0.999, 0.987, 0.969, 0.95];
        let mut feasible = 0;
        for _ in 0..400 {
            let nodes = 1 + mix.below(6) as usize;
            let slacks: Vec<u32> = (0..nodes).map(|_| 1 + mix.below(4) as u32).collect();
            let versions = 1 + mix.below(3) as usize;
            let mut offered: Vec<(f64, u32, u64)> = (0..versions)
                .map(|_| {
                    (
                        reliabilities[mix.below(4) as usize],
                        1 + mix.below(3) as u32,
                        mix.below(4),
                    )
                })
                .collect();
            offered.sort_by(|a, b| b.0.total_cmp(&a.0));
            let mut buckets: Vec<(u32, u64)> = Vec::new();
            let mut sorted = slacks.clone();
            sorted.sort_unstable();
            for slack in sorted {
                match buckets.last_mut() {
                    Some((s, n)) if *s == slack => *n += 1,
                    _ => buckets.push((slack, 1)),
                }
            }
            let greedy = nested_slack_greedy(&buckets, offered.iter().copied(), &mut Vec::new());
            let exact = brute_force(&slacks, &offered);
            match (greedy, exact) {
                (Some(g), Some(e)) => {
                    feasible += 1;
                    assert!(
                        (g - e).abs() <= 1e-12 * e,
                        "greedy {g} vs optimum {e} on {slacks:?} / {offered:?}"
                    );
                }
                (None, None) => {}
                (g, e) => panic!("feasibility differs: {g:?} vs {e:?} on {slacks:?} / {offered:?}"),
            }
        }
        assert!(feasible > 50, "only {feasible} feasible instances drawn");
    }
}
