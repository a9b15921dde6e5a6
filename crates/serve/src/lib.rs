//! `rchls-serve` — a long-running synthesis daemon over the session
//! [`Engine`](rchls_core::Engine).
//!
//! The offline CLI sets a session up, runs one command, and exits; a
//! service wants the opposite: one process, one warmed engine, many
//! clients. This crate serves the engine surface over TCP with a
//! versioned line-delimited JSON protocol (`{"v": 1, "id": ...,
//! "method": ..., "params": ...}` per line — see [`protocol`] and
//! `docs/protocol.md`), built on `std::net` alone: an accept loop, a
//! reader thread per connection, and synthesis on the engine's worker
//! pool, where each admitted request is one task
//! ([`Engine::post`](rchls_core::Engine::post)) and `--jobs` bounds the
//! synthesis threads of every request together.
//!
//! Three service properties the offline CLI never needed:
//!
//! * **Admission control** — heavy methods (`synth`, `batch`, `sweep`,
//!   `pareto`) pass through a bounded queue; when it is full the server
//!   answers a structured `overloaded` error with `retry_after_ms`
//!   immediately instead of queueing unboundedly or hanging.
//! * **Deadlines** — a request may carry `deadline_ms`; it is checked
//!   at admission, at dequeue, and between phases, answering
//!   `deadline_exceeded` the moment the budget is gone.
//! * **Bounded caches** — the shared engine runs under a
//!   [`CacheBudget`](rchls_core::CacheBudget), so all four cache layers
//!   evict (LRU, size-accounted) instead of growing without bound;
//!   eviction never changes any response byte.
//!
//! Plus resilience under misbehaving clients and faults: `--max-conns`
//! caps simultaneous connections (one structured turn-away beyond it),
//! the admission queue is round-robin fair across connections so a
//! flooder cannot starve a polite client, read/write timeouts drop
//! stalled peers, a disconnect cancels that client's queued work, and
//! `shutdown` drains in-flight requests within `--drain-timeout-ms`
//! before answering the rest with `shutdown` + `retry_after_ms`.
//! [`Client::call_with_retries`] layers deterministic capped backoff
//! over those structured rejections. The `serve.conn.*` and
//! `serve.worker.exec` fault-injection points (`rchls-chaos`) make all
//! of it testable on demand.
//!
//! Admin methods (`ping`, `workloads`, `flows`, `metrics`, `shutdown`)
//! are answered inline and never queue behind synthesis. Synthesis
//! results are byte-identical to the offline CLI: `synth`/`batch`
//! return the same scrubbed outcome objects `rchls batch` emits, and
//! `sweep`/`pareto` the same exploration document as `--format json`.
//!
//! # Examples
//!
//! ```
//! use rchls_serve::{Client, Server, ServeConfig};
//! use rchls_reslib::Library;
//!
//! let config = ServeConfig {
//!     addr: "127.0.0.1:0".to_owned(), // ephemeral port
//!     jobs: 2,
//!     ..ServeConfig::default()
//! };
//! let handle = Server::start(config, Library::table1()).unwrap();
//! let mut client = Client::connect(&handle.addr().to_string()).unwrap();
//! let pong = client.call("ping", None, None).unwrap();
//! assert!(rchls_serve::response_result(&pong).is_some());
//! client.call("shutdown", None, None).unwrap();
//! handle.join();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod config;
mod obs;
pub mod protocol;
mod server;

pub use client::{response_error_kind, response_result, response_retry_after_ms, Client};
pub use config::ServeConfig;
pub use server::{Server, ServerHandle};
