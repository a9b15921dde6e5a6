//! Cached handles to the fault plane's own telemetry (same pattern as
//! `rchls-serve`'s obs module: one registry lookup per metric per
//! process, atomics on the hot path).

use rchls_telemetry::counter_handle;

counter_handle!(
    /// `chaos.evaluations` — armed-plan evaluations of any point.
    evaluations, "chaos.evaluations");
counter_handle!(
    /// `chaos.injected` — rule firings (faults actually performed).
    injected, "chaos.injected");
