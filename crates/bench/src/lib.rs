//! Shared helpers for the table/figure regeneration binaries and the
//! Criterion benches.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation (where one departs from the paper's printed numbers,
//! "Departures from the paper" in README.md says why):
//!
//! * `table1` — the characterized component library;
//! * `figure5` — the two schedules of the Figure 4(a) example;
//! * `figure7` — FIR single-version vs reliability-centric schedules;
//! * `figure8` — reliability-vs-latency and reliability-vs-area curves;
//! * `table2` — the FIR/EWF/DiffEq strategy comparison grids;
//! * `figure9` — per-benchmark average reliabilities.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod perf;

use rchls_explorer::ExploreTask;
use rchls_reslib::Library;

/// The `(Ld, Ad)` grid used for one benchmark's Table-2 block.
///
/// The DiffEq grid is the paper's own. The FIR and EWF grids keep the
/// paper's 3×3 tight-to-loose progression but are shifted to bound pairs
/// that are feasible under a *consistent* Table-1 area accounting — the
/// paper's FIR/EWF cells are infeasible under its own Table 1 (its
/// Figure 7a calls a 2×Add2 + 2×Mul2 design "8 units" when Table 1 sums
/// it to 12; see "Departures from the paper" in README.md).
#[must_use]
pub fn table2_grid(benchmark: &str) -> Vec<(u32, u32)> {
    match benchmark {
        // Table 2(a) analogue: FIR filter (paper grid: {10,11,12}×{9,11,13}).
        "fir16" => cross(&[12, 13, 14], &[8, 12, 16]),
        // Table 2(b) analogue: elliptic wave filter (paper grid:
        // {13,14,15}×{5..11}).
        "ewf" => cross(&[14, 15, 16], &[8, 10, 11]),
        // Table 2(c): differential equation solver — the paper's exact grid.
        "diffeq" => vec![
            (5, 11),
            (5, 13),
            (5, 15),
            (6, 11),
            (6, 13),
            (6, 15),
            (7, 7),
            (7, 9),
            (7, 11),
        ],
        _ => panic!("unknown benchmark {benchmark}"),
    }
}

/// The latency sweep of Figure 8(a): FIR at fixed area.
///
/// Returns `(fixed_area, latencies)`. The paper sweeps Ld ∈ {10..18} at
/// Ad = 8; consistent accounting shifts the feasible knee to Ld = 12.
#[must_use]
pub fn figure8a_sweep() -> (u32, Vec<u32>) {
    (8, vec![12, 13, 14, 15, 16, 18, 20])
}

/// The area sweep of Figure 8(b): FIR at fixed latency.
///
/// Returns `(fixed_latency, areas)`. The paper sweeps Ad ∈ {8..16} at
/// Ld = 10; Ad = 10 is the feasible knee under consistent accounting.
#[must_use]
pub fn figure8b_sweep() -> (u32, Vec<u32>) {
    (10, vec![10, 11, 12, 13, 14, 15, 16])
}

fn cross(ls: &[u32], ads: &[u32]) -> Vec<(u32, u32)> {
    ls.iter()
        .flat_map(|&l| ads.iter().map(move |&a| (l, a)))
        .collect()
}

/// The three paper benchmarks as exploration tasks over their Table-2
/// grids.
#[must_use]
pub fn paper_benchmarks() -> Vec<ExploreTask> {
    ["fir16", "ewf", "diffeq"]
        .into_iter()
        .map(|name| ExploreTask::new(format!("builtin:{name}"), table2_grid(name)))
        .collect()
}

/// The paper's Table-1 library (re-exported for the binaries).
#[must_use]
pub fn library() -> Library {
    Library::table1()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_have_nine_cells_like_the_paper() {
        for name in ["fir16", "ewf", "diffeq"] {
            assert_eq!(table2_grid(name).len(), 9, "{name}");
        }
    }

    #[test]
    fn paper_benchmarks_build() {
        let engine = rchls_core::Engine::new(library());
        let b = paper_benchmarks();
        assert_eq!(b.len(), 3);
        for task in b {
            let workload = engine.workload(&task.workload).unwrap();
            assert!(!workload.dfg.is_empty(), "{}", task.workload);
            assert!(!task.grid.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_grid_panics() {
        let _ = table2_grid("nope");
    }
}
