//! Cached handles to the daemon's telemetry metrics (the same pattern
//! as `rchls-core`'s instrumentation: one registry lookup per metric
//! per process, atomics on the hot path).

use rchls_telemetry::metrics::{COUNT_BUCKETS, TIME_BUCKETS_MICROS};
use rchls_telemetry::{counter_handle, histogram_handle};

counter_handle!(
    /// `serve.connections` — client connections accepted.
    connections, "serve.connections");
counter_handle!(
    /// `serve.requests` — request lines parsed (any method).
    requests, "serve.requests");
counter_handle!(
    /// `serve.rejected_overloaded` — requests refused because the
    /// admission queue was full.
    rejected_overloaded, "serve.rejected_overloaded");
counter_handle!(
    /// `serve.rejected_deadline` — requests whose `deadline_ms` expired
    /// at admission, dequeue, or between phases.
    rejected_deadline, "serve.rejected_deadline");
counter_handle!(
    /// `serve.lock_poisoned` — poisoned shared locks recovered instead
    /// of aborting (a worker panicked while holding one; the daemon
    /// keeps serving).
    lock_poisoned, "serve.lock_poisoned");
counter_handle!(
    /// `serve.rejected_conns` — connections refused at accept because
    /// `--max-conns` were already active.
    rejected_conns, "serve.rejected_conns");
counter_handle!(
    /// `serve.timeouts` — connections closed for stalling: a request
    /// line left incomplete past `--read-timeout-ms`, or a response
    /// write blocked past `--write-timeout-ms`.
    timeouts, "serve.timeouts");
counter_handle!(
    /// `serve.drained` — in-flight requests that finished during
    /// graceful shutdown (inside the drain window).
    drained, "serve.drained");
counter_handle!(
    /// `serve.abandoned_requests` — queued requests cancelled because
    /// their client disconnected before the answer was computed.
    abandoned_requests, "serve.abandoned_requests");

histogram_handle!(
    /// `serve.request_micros` — wall latency per request, parse to
    /// response line.
    request_micros, "serve.request_micros", TIME_BUCKETS_MICROS);
histogram_handle!(
    /// `serve.queue_depth` — queued heavy requests at each admission.
    queue_depth, "serve.queue_depth", COUNT_BUCKETS);
histogram_handle!(
    /// `serve.retry_after_ms` — the load-aware `retry_after_ms` hints
    /// sent with `overloaded` and `shutdown` rejections.
    retry_after_ms, "serve.retry_after_ms", COUNT_BUCKETS);
