//! Synthesis diagnostics: the inspectable trace a [`crate::SynthReport`]
//! carries alongside its design.

use serde::{Deserialize, Serialize};

/// Counters and timings recorded while a strategy runs.
///
/// Every counter is a pure function of the synthesis inputs, so two runs
/// of the same request produce identical diagnostics — except
/// [`wall_time_micros`](Diagnostics::wall_time_micros), which measures
/// real elapsed time. Aggregated artifacts (sweep rows, cached frontier
/// exports) therefore store [`scrubbed`](Diagnostics::scrubbed)
/// diagnostics so parallel and repeated runs stay byte-identical.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostics {
    /// Version moves committed by the Figure-6 loops: latency-loop
    /// downgrades plus accepted area-loop group moves.
    pub victim_moves: u32,
    /// Moves evaluated but not committed: area-loop candidates that broke
    /// the latency bound or failed to shrink the area, and refinement
    /// upgrades that violated a bound or gained nothing.
    pub rejected_moves: u32,
    /// Total iterations across the latency, area, and refinement loops.
    pub loop_iterations: u32,
    /// Candidate-pool sizes observed along the run, in order: the victim
    /// candidates of each latency-loop iteration, then (for refining
    /// strategies) the size of the starting-design portfolio.
    pub candidate_pool_sizes: Vec<u32>,
    /// Version upgrades committed by the refinement pass.
    pub refine_upgrades: u32,
    /// Replication moves committed by redundancy insertion.
    pub redundancy_moves: u32,
    /// Whether the allocation-first search hit its enumeration cap and
    /// therefore searched a *truncated* candidate set: the lexicographic
    /// enumeration has more than 200 000 raw allocations (counted before
    /// those missing a used class are dropped), and only that prefix,
    /// which [`crate::alloc_search::enumerate_allocations_with_cap`]
    /// lists, was searched. A pure function of the inputs — it survives
    /// scrubbing — so downstream consumers can tell a complete search from
    /// a capped one.
    pub alloc_cap_hit: bool,
    /// Scheduler-pass invocations across the run (deterministic).
    pub sched_calls: u32,
    /// Binder-pass invocations across the run (deterministic).
    pub bind_calls: u32,
    /// Wall-clock time spent inside the scheduler pass, microseconds.
    /// Non-deterministic; scrubbed in aggregated artifacts.
    pub sched_micros: u64,
    /// Wall-clock time spent inside the binder pass, microseconds.
    /// Non-deterministic; scrubbed in aggregated artifacts.
    pub bind_micros: u64,
    /// Wall-clock time of the refinement pass, microseconds (this brackets
    /// the scheduler/binder calls the pass makes, so the three phase
    /// timings overlap rather than partition the total).
    /// Non-deterministic; scrubbed in aggregated artifacts.
    pub refine_micros: u64,
    /// Wall-clock time of the whole strategy run in microseconds.
    /// Non-deterministic; scrubbed in aggregated artifacts.
    pub wall_time_micros: u64,
}

impl Diagnostics {
    /// Approximate heap footprint in bytes (capacity-based, excluding
    /// `size_of::<Diagnostics>()`) — the size-accounting input for
    /// budgeted caches.
    #[must_use]
    pub fn approx_heap_bytes(&self) -> usize {
        self.candidate_pool_sizes.capacity() * size_of::<u32>()
    }

    /// A copy with every wall-clock timing zeroed — the deterministic form
    /// stored in sweep rows and exports. The phase *call counters* are
    /// pure functions of the inputs and survive scrubbing.
    ///
    /// The exhaustive destructuring (no `..` rest pattern) is deliberate:
    /// adding a field to [`Diagnostics`] refuses to compile until this
    /// method decides whether the field is deterministic (kept) or a wall
    /// time (zeroed) — it can't be forgotten silently.
    #[must_use]
    pub fn scrubbed(&self) -> Diagnostics {
        let Diagnostics {
            victim_moves,
            rejected_moves,
            loop_iterations,
            candidate_pool_sizes,
            refine_upgrades,
            redundancy_moves,
            alloc_cap_hit,
            sched_calls,
            bind_calls,
            sched_micros: _,
            bind_micros: _,
            refine_micros: _,
            wall_time_micros: _,
        } = self;
        Diagnostics {
            victim_moves: *victim_moves,
            rejected_moves: *rejected_moves,
            loop_iterations: *loop_iterations,
            candidate_pool_sizes: candidate_pool_sizes.clone(),
            refine_upgrades: *refine_upgrades,
            redundancy_moves: *redundancy_moves,
            alloc_cap_hit: *alloc_cap_hit,
            sched_calls: *sched_calls,
            bind_calls: *bind_calls,
            sched_micros: 0,
            bind_micros: 0,
            refine_micros: 0,
            wall_time_micros: 0,
        }
    }

    /// Folds another run's counters into this one (used by portfolio
    /// strategies that execute several sub-flows). Timings are summed;
    /// pool sizes are concatenated in execution order.
    ///
    /// Exhaustively destructures `other` for the same reason as
    /// [`scrubbed`](Diagnostics::scrubbed): a new field must be given a
    /// fold rule here before the crate compiles again.
    pub fn absorb(&mut self, other: &Diagnostics) {
        let Diagnostics {
            victim_moves,
            rejected_moves,
            loop_iterations,
            candidate_pool_sizes,
            refine_upgrades,
            redundancy_moves,
            alloc_cap_hit,
            sched_calls,
            bind_calls,
            sched_micros,
            bind_micros,
            refine_micros,
            wall_time_micros,
        } = other;
        self.victim_moves += victim_moves;
        self.rejected_moves += rejected_moves;
        self.loop_iterations += loop_iterations;
        self.candidate_pool_sizes
            .extend(candidate_pool_sizes.iter().copied());
        self.refine_upgrades += refine_upgrades;
        self.redundancy_moves += redundancy_moves;
        self.alloc_cap_hit |= alloc_cap_hit;
        self.sched_calls += sched_calls;
        self.bind_calls += bind_calls;
        self.sched_micros += sched_micros;
        self.bind_micros += bind_micros;
        self.refine_micros += refine_micros;
        self.wall_time_micros += wall_time_micros;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrubbed_zeroes_only_wall_times() {
        let d = Diagnostics {
            victim_moves: 3,
            rejected_moves: 1,
            loop_iterations: 7,
            candidate_pool_sizes: vec![4, 2],
            refine_upgrades: 2,
            redundancy_moves: 1,
            alloc_cap_hit: true,
            sched_calls: 9,
            bind_calls: 9,
            sched_micros: 55,
            bind_micros: 44,
            refine_micros: 33,
            wall_time_micros: 1234,
        };
        let s = d.scrubbed();
        assert_eq!(s.wall_time_micros, 0);
        assert_eq!(s.sched_micros, 0);
        assert_eq!(s.bind_micros, 0);
        assert_eq!(s.refine_micros, 0);
        assert_eq!(s.victim_moves, 3);
        assert!(s.alloc_cap_hit);
        assert_eq!(s.sched_calls, 9);
        assert_eq!(s.bind_calls, 9);
        assert_eq!(s.candidate_pool_sizes, vec![4, 2]);
    }

    #[test]
    fn absorb_sums_counters_and_concatenates_pools() {
        let mut a = Diagnostics {
            victim_moves: 1,
            candidate_pool_sizes: vec![5],
            wall_time_micros: 10,
            ..Diagnostics::default()
        };
        let b = Diagnostics {
            victim_moves: 2,
            redundancy_moves: 4,
            alloc_cap_hit: true,
            candidate_pool_sizes: vec![3],
            wall_time_micros: 7,
            ..Diagnostics::default()
        };
        a.absorb(&b);
        assert_eq!(a.victim_moves, 3);
        assert_eq!(a.redundancy_moves, 4);
        assert!(a.alloc_cap_hit);
        assert_eq!(a.candidate_pool_sizes, vec![5, 3]);
        assert_eq!(a.wall_time_micros, 17);
    }

    /// Compile-time exhaustiveness guard: this destructuring has no `..`
    /// rest pattern, so adding a field to [`Diagnostics`] breaks this test
    /// (and `scrubbed`/`absorb`) until the new field is classified as
    /// deterministic or wall-clock.
    #[test]
    fn every_field_is_classified() {
        let d = Diagnostics::default();
        let Diagnostics {
            victim_moves,
            rejected_moves,
            loop_iterations,
            candidate_pool_sizes,
            refine_upgrades,
            redundancy_moves,
            alloc_cap_hit,
            sched_calls,
            bind_calls,
            sched_micros,
            bind_micros,
            refine_micros,
            wall_time_micros,
        } = d;
        // Deterministic fields survive scrubbing…
        let deterministic: [u32; 7] = [
            victim_moves,
            rejected_moves,
            loop_iterations,
            refine_upgrades,
            redundancy_moves,
            sched_calls,
            bind_calls,
        ];
        assert!(deterministic.iter().all(|&v| v == 0));
        assert!(candidate_pool_sizes.is_empty());
        assert!(!alloc_cap_hit);
        // …and wall-clock fields are zeroed by it.
        let wall: [u64; 4] = [sched_micros, bind_micros, refine_micros, wall_time_micros];
        assert!(wall.iter().all(|&v| v == 0));
    }

    #[test]
    fn serde_round_trip() {
        let d = Diagnostics {
            loop_iterations: 9,
            candidate_pool_sizes: vec![1, 2, 3],
            ..Diagnostics::default()
        };
        let back: Diagnostics = Deserialize::from_value(&Serialize::to_value(&d)).unwrap();
        assert_eq!(back, d);
    }
}
