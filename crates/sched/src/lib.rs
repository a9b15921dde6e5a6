//! Scheduling algorithms for reliability-centric high-level synthesis.
//!
//! Scheduling assigns every data-flow-graph operation a start step (clock
//! cycle) such that data dependences and multi-cycle delays are respected.
//! The paper's synthesizer is *time-constrained*: given a latency, it
//! spreads operations across the steps so the number of functional units is
//! minimized. This crate provides:
//!
//! * [`asap`](fn@asap) / [`alap`](fn@alap) — the classic mobility-window bounds;
//! * [`schedule_density`] — the paper's partition-density scheduler
//!   (schedule each op into its least-dense feasible partition, Sec. 6);
//! * [`schedule_force_directed`] — Paulin–Knight force-directed scheduling,
//!   used as an ablation alternative;
//! * [`Schedule`] — validated start times, latency, and per-step usage.
//!
//! Steps are 1-based to match the paper's figures: an operation starting at
//! step `s` with delay `d` occupies steps `s ..= s + d - 1`.
//!
//! # Examples
//!
//! ```
//! use rchls_dfg::{Dfg, OpKind};
//! use rchls_sched::{asap, Delays};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = Dfg::new("pair");
//! let a = g.add_node(OpKind::Add, "a");
//! let b = g.add_node(OpKind::Add, "b");
//! g.add_edge(a, b)?;
//! let delays = Delays::uniform(&g, 1);
//! let s = asap(&g, &delays)?;
//! assert_eq!(s.start(a), 1);
//! assert_eq!(s.start(b), 2);
//! assert_eq!(s.latency(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alap;
mod asap;
mod delays;
mod density;
mod error;
mod force;
mod pipeline;
pub mod reference;
mod schedule;
mod scratch;

pub use alap::alap;
pub use asap::asap;
pub use delays::Delays;
pub use density::{schedule_density, schedule_density_with};
pub use error::ScheduleError;
pub use force::{schedule_force_directed, schedule_force_directed_with};
pub use pipeline::schedule_modulo;
pub use schedule::{Mobility, Schedule};
pub use scratch::SchedScratch;
