//! The reusable scheduling arena: preallocated buffers plus a cached
//! topological order, so the hot synthesis loop schedules the same graph
//! thousands of times without touching the allocator.
//!
//! A [`SchedScratch`] is plain state — it carries no correctness of its
//! own except the cached topological order, which is keyed to one graph
//! at a time. The contract:
//!
//! * [`SchedScratch::invalidate`] (or a node/edge-count change) forces
//!   the next scheduling call to recompute the order;
//! * callers that reuse one scratch across *different* graphs must call
//!   `invalidate` when switching (the synthesizer session layer does
//!   this automatically; the size check alone cannot distinguish two
//!   different graphs with identical node and edge counts).
//!
//! Every `schedule_*_with` entry point in this crate accepts a scratch;
//! the scratch-less wrappers allocate a fresh one per call and remain
//! the simple API for one-off use.

use crate::delays::Delays;
use crate::error::ScheduleError;
use rchls_dfg::{Dfg, NodeId};

/// Reusable buffers for the scheduling algorithms in this crate.
///
/// See the module docs above for the reuse contract. A default scratch
/// is empty and binds to the first graph it schedules.
///
/// # Examples
///
/// ```
/// use rchls_dfg::{DfgBuilder, OpKind};
/// use rchls_sched::{schedule_density_with, Delays, SchedScratch};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = DfgBuilder::new("pair").ops(&["a", "b"], OpKind::Add).dep("a", "b").build()?;
/// let d = Delays::uniform(&g, 1);
/// let mut scratch = SchedScratch::new();
/// for latency in 2..6 {
///     let s = schedule_density_with(&g, &d, latency, &mut scratch)?;
///     assert!(s.latency() <= latency);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct SchedScratch {
    // -- cached topology -------------------------------------------------
    pub(crate) topo: Vec<NodeId>,
    topo_valid: bool,
    topo_nodes: usize,
    topo_edges: usize,
    // Kahn's-algorithm work buffers.
    indegree: Vec<u32>,
    queue: Vec<NodeId>,
    // -- window buffers --------------------------------------------------
    pub(crate) es: Vec<u32>,
    pub(crate) ls: Vec<u32>,
    // Previous-iteration windows (the force kernel's change detector).
    pub(crate) prev_es: Vec<u32>,
    pub(crate) prev_ls: Vec<u32>,
    // -- distribution-graph and force buffers ----------------------------
    pub(crate) density: Vec<f64>,
    pub(crate) cand_force: Vec<f64>,
    pub(crate) cand_step: Vec<u32>,
    // -- placement state -------------------------------------------------
    pub(crate) fixed: Vec<Option<u32>>,
    pub(crate) order: Vec<NodeId>,
}

impl SchedScratch {
    /// An empty scratch (binds to the first graph it schedules).
    #[must_use]
    pub fn new() -> SchedScratch {
        SchedScratch::default()
    }

    /// Drops the cached topological order; the next scheduling call
    /// recomputes it. Call this when reusing one scratch across
    /// different graphs.
    pub fn invalidate(&mut self) {
        self.topo_valid = false;
    }

    /// Approximate heap footprint of the retained buffers in bytes
    /// (capacity-based, excluding `size_of::<SchedScratch>()`) — the
    /// size-accounting input for budgeted arena pools.
    #[must_use]
    pub fn approx_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let ids = size_of::<NodeId>();
        self.topo.capacity() * ids
            + self.indegree.capacity() * size_of::<u32>()
            + self.queue.capacity() * ids
            + self.es.capacity() * size_of::<u32>()
            + self.ls.capacity() * size_of::<u32>()
            + self.prev_es.capacity() * size_of::<u32>()
            + self.prev_ls.capacity() * size_of::<u32>()
            + self.density.capacity() * size_of::<f64>()
            + self.cand_force.capacity() * size_of::<f64>()
            + self.cand_step.capacity() * size_of::<u32>()
            + self.fixed.capacity() * size_of::<Option<u32>>()
            + self.order.capacity() * ids
    }

    /// Makes sure the cached topological order matches `dfg`, recomputing
    /// it (allocation-free after warm-up) when invalidated or when the
    /// graph's node/edge counts changed.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Graph`] if the graph is cyclic.
    pub(crate) fn ensure_topo(&mut self, dfg: &Dfg) -> Result<(), ScheduleError> {
        if self.topo_valid
            && self.topo_nodes == dfg.node_count()
            && self.topo_edges == dfg.edge_count()
        {
            return Ok(());
        }
        let n = dfg.node_count();
        self.indegree.clear();
        self.indegree
            .extend(dfg.node_ids().map(|v| dfg.preds(v).len() as u32));
        self.queue.clear();
        self.queue
            .extend(dfg.node_ids().filter(|&v| self.indegree[v.index()] == 0));
        self.topo.clear();
        self.topo.reserve(n);
        let mut head = 0;
        while let Some(&v) = self.queue.get(head) {
            head += 1;
            self.topo.push(v);
            for &s in dfg.succs(v) {
                self.indegree[s.index()] -= 1;
                if self.indegree[s.index()] == 0 {
                    self.queue.push(s);
                }
            }
        }
        if self.topo.len() != n {
            let on_cycle = dfg
                .node_ids()
                .find(|&v| self.indegree[v.index()] > 0)
                .expect("some node has positive indegree when a cycle exists");
            self.topo_valid = false;
            return Err(rchls_dfg::DfgError::Cycle(on_cycle).into());
        }
        self.topo_valid = true;
        self.topo_nodes = n;
        self.topo_edges = dfg.edge_count();
        Ok(())
    }

    /// Resizes the per-node buffers for `dfg` (cheap when already sized).
    pub(crate) fn resize_nodes(&mut self, dfg: &Dfg) {
        let n = dfg.node_count();
        self.es.resize(n, 0);
        self.ls.resize(n, 0);
    }

    /// Fills `es`/`ls` with dependence-consistent start-step windows under
    /// the partial assignment in `fixed`, using the cached topological
    /// order. Arithmetic is identical to the original free-standing
    /// `windows` helper, so schedules are byte-for-byte unchanged.
    ///
    /// `ensure_topo` must have succeeded for this graph.
    pub(crate) fn fill_windows(&mut self, dfg: &Dfg, delays: &Delays, latency: u32) {
        self.resize_nodes(dfg);
        for &n in &self.topo {
            let mut e = dfg
                .preds(n)
                .iter()
                .map(|&p| self.es[p.index()] + delays.get(p))
                .max()
                .unwrap_or(1);
            if let Some(s) = self.fixed[n.index()] {
                debug_assert!(s >= e, "fixed start violates a dependence");
                e = s;
            }
            self.es[n.index()] = e;
        }
        for &n in self.topo.iter().rev() {
            let finish = dfg
                .succs(n)
                .iter()
                .map(|&s| self.ls[s.index()] - 1)
                .min()
                .unwrap_or(latency);
            let mut l = finish + 1 - delays.get(n);
            if let Some(s) = self.fixed[n.index()] {
                l = s;
            }
            self.ls[n.index()] = l;
        }
    }

    /// The delay-weighted critical-path latency (the ASAP latency),
    /// computed without allocating a schedule.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Graph`] if the graph is cyclic.
    pub fn asap_latency(&mut self, dfg: &Dfg, delays: &Delays) -> Result<u32, ScheduleError> {
        self.ensure_topo(dfg)?;
        self.resize_nodes(dfg);
        let mut latency = 0u32;
        for &n in &self.topo {
            let start = dfg
                .preds(n)
                .iter()
                .map(|&p| self.es[p.index()] + delays.get(p))
                .max()
                .unwrap_or(1);
            self.es[n.index()] = start;
            latency = latency.max(start + delays.get(n) - 1);
        }
        Ok(latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asap;
    use rchls_dfg::{DfgBuilder, OpKind};

    fn diamond() -> Dfg {
        DfgBuilder::new("d")
            .ops(&["a", "b", "c", "d"], OpKind::Add)
            .dep("a", "b")
            .dep("a", "c")
            .dep("b", "d")
            .dep("c", "d")
            .build()
            .unwrap()
    }

    #[test]
    fn cached_topo_matches_graph_api() {
        let g = diamond();
        let mut s = SchedScratch::new();
        s.ensure_topo(&g).unwrap();
        assert_eq!(s.topo, g.topological_order().unwrap());
        // A second call is a no-op (still valid).
        s.ensure_topo(&g).unwrap();
        assert_eq!(s.topo.len(), 4);
    }

    #[test]
    fn invalidate_forces_recompute_for_a_new_graph() {
        let g1 = diamond();
        // Same node/edge counts, different structure.
        let g2 = DfgBuilder::new("z")
            .ops(&["a", "b", "c", "d"], OpKind::Add)
            .dep("d", "c")
            .dep("c", "b")
            .dep("b", "a")
            .dep("d", "a")
            .build()
            .unwrap();
        let mut s = SchedScratch::new();
        s.ensure_topo(&g1).unwrap();
        let t1 = s.topo.clone();
        s.invalidate();
        s.ensure_topo(&g2).unwrap();
        assert_ne!(s.topo, t1);
        assert_eq!(s.topo, g2.topological_order().unwrap());
    }

    #[test]
    fn cycles_are_reported() {
        let mut g = Dfg::new("c");
        let a = g.add_node(OpKind::Add, "a");
        let b = g.add_node(OpKind::Add, "b");
        g.add_edge(a, b).unwrap();
        g.add_edge(b, a).unwrap();
        let mut s = SchedScratch::new();
        assert!(matches!(
            s.ensure_topo(&g),
            Err(ScheduleError::Graph(rchls_dfg::DfgError::Cycle(_)))
        ));
    }

    #[test]
    fn asap_latency_matches_asap_schedule() {
        let g = diamond();
        let d = Delays::from_fn(&g, |n| if n.index() % 2 == 0 { 2 } else { 1 });
        let mut s = SchedScratch::new();
        assert_eq!(
            s.asap_latency(&g, &d).unwrap(),
            asap(&g, &d).unwrap().latency()
        );
        let empty = Dfg::new("e");
        let de = Delays::uniform(&empty, 1);
        assert_eq!(s.asap_latency(&empty, &de).unwrap_or(99), 0);
    }
}
