//! # rc-hls — Reliability-Centric High-Level Synthesis
//!
//! An open-source reproduction of *"Reliability-Centric High-Level
//! Synthesis"* (Tosun, Mansouri, Arvas, Kandemir, Xie — DATE 2005): a
//! high-level synthesis flow that maximizes a data path's soft-error
//! reliability under latency and area bounds by selecting among several
//! reliability-characterized versions of each functional unit.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`dfg`] — data-flow graphs and graph algorithms;
//! * [`relmath`] — reliability mathematics (serial/parallel models, NMR);
//! * [`netlist`] — gate-level netlists and soft-error fault injection;
//! * [`reslib`] — the characterized resource library (Table 1) and the
//!   Q_critical → SER → failure rate → reliability chain (Figure 2);
//! * [`sched`] — ASAP/ALAP, partition-density, force-directed and
//!   modulo (pipelined) scheduling;
//! * [`bind`] — version assignments, left-edge and coloring binders;
//! * [`core`] — the Figure-6 synthesis algorithm, the NMR baseline, the
//!   combined approach, sweep drivers, the dual-objective extensions,
//!   the trait-based flow/strategy API (`core::flow`): pluggable
//!   scheduler/binder/victim/refine passes and whole strategies, named by
//!   registry id, returning diagnostics-carrying synthesis reports — and
//!   the session-oriented batch engine (`core::engine`): interned
//!   workloads and libraries, a fingerprint synthesis cache, and
//!   deterministic parallel `synth_batch`;
//! * [`explorer`] — parallel design-space exploration: sweeps over
//!   workload specs and the Pareto archive;
//! * [`workloads`] — the FIR16 / EWF / DiffEq benchmark graphs plus the
//!   open `WorkloadSource` spec registry (`builtin:` / `random:` /
//!   `file:`).
//!
//! # Quickstart
//!
//! ```
//! use rc_hls::core::{Bounds, Synthesizer};
//! use rc_hls::reslib::Library;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dfg = rc_hls::workloads::fir16();
//! let library = Library::table1();
//! let design = Synthesizer::new(&dfg, &library).synthesize(Bounds::new(12, 8))?;
//! println!("{}", design.render(&dfg, &library));
//! assert!(design.latency <= 12 && design.area <= 8);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rchls_bind as bind;
pub use rchls_core as core;
pub use rchls_dfg as dfg;
pub use rchls_explorer as explorer;
pub use rchls_netlist as netlist;
pub use rchls_relmath as relmath;
pub use rchls_reslib as reslib;
pub use rchls_sched as sched;
pub use rchls_workloads as workloads;
