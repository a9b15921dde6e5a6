//! Design-space sweep drivers behind the paper's tables and figures.
//!
//! All sweep functions apply *feasibility inheritance*: a design feasible
//! under bounds `(Ld, Ad)` is feasible under any looser bounds, so each
//! sweep point reports the best reliability over all dominated bound
//! pairs in the sweep. This turns the greedy engine's occasional
//! non-monotonicity (a tighter bound steering the heuristic to a better
//! local optimum) into the monotone curves a designer actually has
//! available — at no additional synthesis cost.
//!
//! Every strategy here is named by its registry id ([`TABLE2`]) and
//! dispatched through the [`Strategy`](crate::Strategy) trait.

use crate::bounds::Bounds;
use crate::flow::{self, Diagnostics, FlowSpec, SynthReport, SynthRequest};
use crate::redundancy::RedundancyModel;
use rchls_dfg::Dfg;
use rchls_reslib::Library;
use serde::{Deserialize, Serialize};

/// The paper's three Table-2 strategies, by registry id, in the paper's
/// column order (`Ref [3]`, `Ours`, `Ours+Ref [3]`).
pub const TABLE2: [&str; 3] = ["baseline", "ours", "combined"];

/// One strategy's diagnostics at one sweep point (wall time scrubbed for
/// determinism — see [`Diagnostics::scrubbed`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StrategyDiagnostics {
    /// The strategy's registry id.
    pub strategy: String,
    /// The scrubbed diagnostics of the run.
    pub diagnostics: Diagnostics,
}

/// One row of a Table-2-style comparison: the three strategies at one
/// `(Ld, Ad)` point. `None` means the strategy found no feasible design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRow {
    /// Latency bound `Ld`.
    pub latency_bound: u32,
    /// Area bound `Ad`.
    pub area_bound: u32,
    /// Reliability of the redundancy baseline (\[3\]).
    pub baseline: Option<f64>,
    /// Reliability of the reliability-centric approach.
    pub ours: Option<f64>,
    /// Reliability of the combined approach.
    pub combined: Option<f64>,
    /// Per-strategy diagnostics of this point's own (raw) runs, in
    /// [`TABLE2`] order, feasible runs only. Feasibility
    /// inheritance copies a row's reliabilities from dominated rows but
    /// keeps the row's own diagnostics.
    pub diagnostics: Vec<StrategyDiagnostics>,
}

impl SweepRow {
    /// An empty row at the given bounds.
    #[must_use]
    pub fn empty(latency_bound: u32, area_bound: u32) -> SweepRow {
        SweepRow {
            latency_bound,
            area_bound,
            baseline: None,
            ours: None,
            combined: None,
            diagnostics: Vec::new(),
        }
    }

    /// Records one Table-2 strategy's own run at this row's point: its
    /// reliability (`None` when infeasible) goes in the strategy's
    /// column, and a feasible run's scrubbed diagnostics are appended.
    ///
    /// # Panics
    ///
    /// Panics if `strategy` is not one of the [`TABLE2`] ids.
    pub fn record(&mut self, strategy: &str, report: Option<&SynthReport>) {
        let reliability = report.map(|r| r.design.reliability.value());
        match strategy {
            "baseline" => self.baseline = reliability,
            "ours" => self.ours = reliability,
            "combined" => self.combined = reliability,
            other => panic!("{other:?} is not a Table-2 strategy"),
        }
        if let Some(report) = report {
            self.diagnostics.push(StrategyDiagnostics {
                strategy: strategy.to_owned(),
                diagnostics: report.diagnostics.scrubbed(),
            });
        }
    }

    /// Percentage improvement of ours over the baseline (the paper's
    /// "% Imprv" column); `None` if either side is infeasible.
    #[must_use]
    pub fn improvement_pct(&self) -> Option<f64> {
        match (self.baseline, self.ours) {
            (Some(b), Some(o)) if b > 0.0 => Some((o - b) / b * 100.0),
            _ => None,
        }
    }

    /// Percentage improvement of the combined approach over the baseline.
    #[must_use]
    pub fn combined_improvement_pct(&self) -> Option<f64> {
        match (self.baseline, self.combined) {
            (Some(b), Some(c)) if b > 0.0 => Some((c - b) / b * 100.0),
            _ => None,
        }
    }
}

/// Runs the three Table-2 strategies at one `(Ld, Ad)` point, serially
/// and uncached, and reports their raw (pre-inheritance) reliabilities
/// and diagnostics. [`sweep`] is this per grid point plus [`inherit`].
///
/// # Panics
///
/// Panics if `flow` names a pass id the registry doesn't know — a
/// mistyped id would otherwise be indistinguishable from an infeasible
/// point.
#[must_use]
pub fn sweep_point(
    dfg: &Dfg,
    library: &Library,
    bounds: Bounds,
    flow: &FlowSpec,
    model: RedundancyModel,
) -> SweepRow {
    if let Err(e) = flow.resolve() {
        panic!("sweep_point: {e}");
    }
    let request = SynthRequest::new(dfg, library, bounds)
        .with_flow(flow.clone())
        .with_redundancy(model);
    let mut row = SweepRow::empty(bounds.latency, bounds.area);
    for id in TABLE2 {
        let strategy = flow::strategy(id).expect("built-in strategies are always registered");
        row.record(id, strategy.run(&request).ok().as_ref());
    }
    row
}

/// Applies feasibility inheritance over a sweep's own dominance order:
/// each row reports, per strategy, the best reliability among all rows
/// whose bounds are no looser (see the module docs). Diagnostics stay
/// with their own row.
#[must_use]
pub fn inherit(raw: &[SweepRow]) -> Vec<SweepRow> {
    raw.iter()
        .map(|row| {
            let dominated = |other: &SweepRow| {
                other.latency_bound <= row.latency_bound && other.area_bound <= row.area_bound
            };
            let best = |f: fn(&SweepRow) -> Option<f64>| {
                raw.iter()
                    .filter(|o| dominated(o))
                    .filter_map(f)
                    .fold(None, |acc: Option<f64>, v| {
                        Some(acc.map_or(v, |a| a.max(v)))
                    })
            };
            SweepRow {
                latency_bound: row.latency_bound,
                area_bound: row.area_bound,
                baseline: best(|r| r.baseline),
                ours: best(|r| r.ours),
                combined: best(|r| r.combined),
                diagnostics: row.diagnostics.clone(),
            }
        })
        .collect()
}

/// Runs the three Table-2 strategies over a grid of `(Ld, Ad)` bounds —
/// the driver behind Tables 2(a)–2(c) — with feasibility inheritance
/// across dominated grid cells (see the module docs).
#[must_use]
pub fn sweep(dfg: &Dfg, library: &Library, grid: &[(u32, u32)]) -> Vec<SweepRow> {
    let flow = FlowSpec::default();
    let model = RedundancyModel::default();
    let raw: Vec<SweepRow> = grid
        .iter()
        .map(|&(latency, area)| sweep_point(dfg, library, Bounds::new(latency, area), &flow, model))
        .collect();
    inherit(&raw)
}

/// Per-strategy average reliabilities over the feasible cells of a sweep
/// (the Figure 9 bars). Returns `(baseline, ours, combined)`.
#[must_use]
pub fn averages(rows: &[SweepRow]) -> (f64, f64, f64) {
    let avg = |f: fn(&SweepRow) -> Option<f64>| {
        let vals: Vec<f64> = rows.iter().filter_map(f).collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    };
    (avg(|r| r.baseline), avg(|r| r.ours), avg(|r| r.combined))
}

/// Formats sweep rows as an aligned text table matching the paper's
/// Table 2 layout.
#[must_use]
pub fn format_table(rows: &[SweepRow]) -> String {
    let mut out = String::from("  Ld   Ad    Ref[3]      Ours    %Imprv  Ours+Ref[3]  %Imprv\n");
    for r in rows {
        let cell = |v: Option<f64>| match v {
            Some(x) => format!("{x:.5}"),
            None => "   -   ".into(),
        };
        let pct = |v: Option<f64>| match v {
            Some(x) => format!("{x:+.2}"),
            None => "  -  ".into(),
        };
        out.push_str(&format!(
            "{:>4} {:>4}  {:>8}  {:>8}  {:>8}  {:>10}  {:>7}\n",
            r.latency_bound,
            r.area_bound,
            cell(r.baseline),
            cell(r.ours),
            pct(r.improvement_pct()),
            cell(r.combined),
            pct(r.combined_improvement_pct()),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rchls_dfg::{DfgBuilder, OpKind};

    fn figure4a() -> Dfg {
        DfgBuilder::new("figure4a")
            .ops(&["A", "B", "C", "D", "E", "F"], OpKind::Add)
            .dep("A", "C")
            .dep("B", "C")
            .dep("C", "D")
            .dep("C", "E")
            .dep("D", "F")
            .dep("E", "F")
            .build()
            .unwrap()
    }

    #[test]
    fn table2_ids_resolve_and_fill_their_own_columns() {
        let g = figure4a();
        let lib = Library::table1();
        let request = SynthRequest::new(&g, &lib, Bounds::new(6, 6));
        for id in TABLE2 {
            let strategy = flow::strategy(id).expect("Table-2 ids are registered");
            assert_eq!(strategy.id(), id);
            let report = strategy.run(&request).expect("feasible at (6, 6)");
            let mut row = SweepRow::empty(6, 6);
            row.record(id, Some(&report));
            let r = Some(report.design.reliability.value());
            let expected = match id {
                "baseline" => (r, None, None),
                "ours" => (None, r, None),
                _ => (None, None, r),
            };
            assert_eq!((row.baseline, row.ours, row.combined), expected, "{id}");
            assert_eq!(row.diagnostics.len(), 1);
            assert_eq!(row.diagnostics[0].strategy, id);
        }
    }

    #[test]
    fn sweep_produces_row_per_grid_point() {
        let g = figure4a();
        let lib = Library::table1();
        let grid = [(5u32, 4u32), (6, 4), (6, 6), (3, 1)];
        let rows = sweep(&g, &lib, &grid);
        assert_eq!(rows.len(), 4);
        // The infeasible point yields all-None and no diagnostics.
        let last = &rows[3];
        assert!(last.baseline.is_none() && last.ours.is_none() && last.combined.is_none());
        assert!(last.improvement_pct().is_none());
        assert!(last.diagnostics.is_empty());
        // Feasible points carry scrubbed per-strategy diagnostics.
        let first = &rows[0];
        assert_eq!(first.diagnostics.len(), 3);
        assert_eq!(first.diagnostics[0].strategy, "baseline");
        assert!(first
            .diagnostics
            .iter()
            .all(|d| d.diagnostics.wall_time_micros == 0));
    }

    #[test]
    fn combined_column_dominates_ours_column() {
        let g = figure4a();
        let lib = Library::table1();
        let grid: Vec<(u32, u32)> = (5..8).flat_map(|l| (3..7).map(move |a| (l, a))).collect();
        for row in sweep(&g, &lib, &grid) {
            if let (Some(o), Some(c)) = (row.ours, row.combined) {
                assert!(
                    c + 1e-12 >= o,
                    "combined below ours at Ld={} Ad={}",
                    row.latency_bound,
                    row.area_bound
                );
            }
        }
    }

    #[test]
    fn improvement_percentages_match_formula() {
        let row = SweepRow {
            baseline: Some(0.48467),
            ours: Some(0.59998),
            combined: Some(0.59998),
            ..SweepRow::empty(10, 9)
        };
        // The paper's Table 2a first row reports 23.79%.
        assert!((row.improvement_pct().unwrap() - 23.79).abs() < 0.01);
        assert!((row.combined_improvement_pct().unwrap() - 23.79).abs() < 0.01);
    }

    #[test]
    fn averages_and_formatting() {
        let g = figure4a();
        let lib = Library::table1();
        let rows = sweep(&g, &lib, &[(5, 4), (6, 5)]);
        let (b, o, c) = averages(&rows);
        assert!(b > 0.0 && o > 0.0 && c > 0.0);
        assert!(c + 1e-12 >= o);
        let table = format_table(&rows);
        assert!(table.contains("Ref[3]"));
        assert!(table.lines().count() == rows.len() + 1);
    }

    #[test]
    #[should_panic(expected = "unknown scheduler")]
    fn sweep_point_rejects_mistyped_pass_ids() {
        let g = figure4a();
        let lib = Library::table1();
        let _ = sweep_point(
            &g,
            &lib,
            Bounds::new(5, 4),
            &FlowSpec::default().with_scheduler("densty"),
            RedundancyModel::default(),
        );
    }

    #[test]
    fn all_five_builtins_run_through_the_trait() {
        let g = figure4a();
        let lib = Library::table1();
        let bounds = Bounds::new(8, 8);
        for id in ["baseline", "ours", "combined", "pipelined", "redundancy"] {
            let report = flow::strategy(id)
                .unwrap_or_else(|| panic!("{id} is registered"))
                .run(&SynthRequest::new(&g, &lib, bounds))
                .unwrap_or_else(|e| panic!("{id}: {e}"));
            assert!(report.design.latency <= bounds.latency, "{id}");
            assert!(report.design.area <= bounds.area, "{id}");
        }
    }
}
