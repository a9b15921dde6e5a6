//! Reliability-centric high-level synthesis (Tosun et al., DATE 2005).
//!
//! This crate is the paper's primary contribution: given a data-flow graph,
//! a reliability-characterized resource library, and latency/area bounds,
//! find the *most reliable* design that meets both bounds by choosing, per
//! operation, among several library versions of its functional unit.
//!
//! Synthesis is organized as an **open flow** (the [`flow`] module):
//! scheduler, binder, victim-policy, and refine passes are trait objects
//! named by stable string ids in a [`FlowSpec`], and whole algorithms
//! implement the [`Strategy`] trait, turning a [`SynthRequest`] into a
//! diagnostics-carrying [`SynthReport`]. Five strategies ship built in:
//!
//! * `"ours"` ([`flow::Ours`], running a [`Synthesizer`]) — the paper's
//!   Figure-6 algorithm: start from the most reliable version
//!   everywhere, then degrade carefully chosen victims until the latency
//!   bound and then the area bound are met;
//! * `"baseline"` ([`flow::Baseline`]) — the redundancy-based prior art
//!   (Orailoglu–Karri): one fixed version per class, reliability grown
//!   by N-modular redundancy within the leftover area;
//! * `"combined"` ([`flow::Combined`]) — the paper's unified scheme: run
//!   the reliability-centric algorithm, then spend any remaining area on
//!   redundancy;
//! * `"pipelined"` ([`flow::Pipelined`]) — the same reliability-centric
//!   selection under modulo scheduling at a fixed initiation interval
//!   (`pipelined@ii=N` names an explicit one);
//! * `"redundancy"` ([`flow::Redundancy`]) — replication over the best
//!   single-version design.
//!
//! [`flow::strategy`] resolves an id to its strategy.
//!
//! Out-of-tree crates extend any slot by registering a trait impl (see
//! [`flow::register_scheduler`]). [`explore`] drives the (latency, area)
//! sweeps behind every table and figure of the paper's evaluation, and
//! [`modes`] implements the paper's future-work objectives (minimize area
//! / minimize latency under a reliability bound).
//!
//! For serving many requests, [`engine`] wraps the per-call API in a
//! session: an [`Engine`] interns the library and every workload behind
//! `Arc`, memoizes synthesis points in a fingerprint cache, and runs
//! [`SynthJob`] batches in parallel with deterministic, job-ordered
//! output. Every synthesizing `rchls` command, the daemon, and every
//! sweep run through one. Workloads are addressed by spec strings
//! (`builtin:fir16`, `random:64x8@7`, `file:path.dfg`) resolved through
//! the open [`rchls_workloads`] source registry.
//!
//! # Examples
//!
//! ```
//! use rchls_core::{Bounds, Synthesizer};
//! use rchls_dfg::{DfgBuilder, OpKind};
//! use rchls_reslib::Library;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dfg = DfgBuilder::new("tiny")
//!     .ops(&["a", "b"], OpKind::Add)
//!     .dep("a", "b")
//!     .build()?;
//! let library = Library::table1();
//! let design = Synthesizer::new(&dfg, &library).synthesize(Bounds::new(4, 4))?;
//! assert!(design.latency <= 4);
//! assert!(design.area <= 4);
//! // Plenty of slack: both adds run on the most reliable adder.
//! assert!((design.reliability.value() - 0.999f64.powi(2)).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc_search;
mod baseline;
mod bounds;
mod combined;
mod design;
pub mod engine;
mod error;
pub mod explore;
pub mod flow;
pub mod modes;
mod obs;
mod pipelined;
mod redundancy;
mod scratch;
mod sync;
mod synth;
mod validate;

pub use baseline::baseline_versions;
pub use bounds::{Bounds, MAX_LATENCY};
pub use design::Design;
pub use engine::{BatchReport, CacheBudget, Engine, EngineError, JobOutcome, SynthJob};
pub use error::SynthesisError;
pub use explore::StrategyDiagnostics;
pub use flow::{Diagnostics, FlowSpec, Strategy, SynthReport, SynthRequest};
pub use redundancy::{add_redundancy, add_redundancy_with_model, RedundancyModel};
pub use scratch::{ScratchPool, SynthScratch};
pub use synth::Synthesizer;
pub use validate::monte_carlo_reliability;
