//! The daemon: accept loop, per-connection readers, and synthesis on
//! the engine's worker pool, with admission control, deadlines,
//! fairness, and graceful drain.
//!
//! Concurrency shape (plain `std` threads, no async runtime):
//!
//! * one **accept thread** takes connections up to `--max-conns`
//!   (`serve.connections` counts accepts, `serve.rejected_conns` the
//!   one-line `overloaded` turn-aways beyond the cap) and spawns a
//!   reader per connection;
//! * each **reader** frames request lines. Admin methods (`ping`,
//!   `workloads`, `flows`, `metrics`, `shutdown`) are answered inline —
//!   they never queue behind synthesis. Heavy methods (`synth`,
//!   `batch`, `sweep`, `pareto`) go through a bounded [`FairQueue`]; a
//!   full queue yields an immediate structured `overloaded` rejection
//!   with a load-aware `retry_after_ms`, never a hang. While a job is
//!   queued the reader keeps watching its socket: a disconnect cancels
//!   the job (`serve.abandoned_requests`) instead of wedging a worker
//!   on a client that left. A request line stalled mid-frame past
//!   `--read-timeout-ms`, or a response write blocked past
//!   `--write-timeout-ms`, closes the connection (`serve.timeouts`);
//! * each admitted request posts one task to the engine's **worker
//!   pool**, at most `--jobs` threads that also run every batch's
//!   helpers, so `--jobs` bounds the daemon's synthesis threads. A task
//!   answers the queue's fairest job, round-robin across connections, so
//!   one flooding client cannot starve a polite one. Each job runs under
//!   `catch_unwind`, so a panicking job answers `internal` instead of
//!   wedging its client;
//! * per-request `deadline_ms` is checked at admission, at dequeue, and
//!   between phases of multi-phase work;
//! * `shutdown` starts a **graceful drain**: no new connections or
//!   requests (rejections carry `retry_after_ms`), in-flight work gets
//!   `--drain-timeout-ms` to finish (`serve.drained`), and anything
//!   still queued past the window is answered with a `shutdown` error —
//!   readers self-answer as a last resort, so no client ever hangs.
//!
//! Fault injection: the `serve.conn.read`, `serve.conn.write`, and
//! `serve.worker.exec` points (see `rchls-chaos` and docs/chaos.md) sit
//! on the socket reads, response writes, and worker execution paths;
//! with no plan armed each is one relaxed atomic load.
//!
//! All requests share one [`Engine`] session, so its caches (bounded by
//! the configured [`CacheBudget`](rchls_core::CacheBudget)) and interned
//! workloads serve every client.

use crate::config::ServeConfig;
use crate::obs;
use crate::protocol::{self, ErrorKind, Request, PROTOCOL_VERSION};
use rchls_core::{flow, Engine, RedundancyModel, SynthJob};
use rchls_explorer::{explore, ExploreTask};
use rchls_reslib::Library;
use rchls_telemetry::span;
use serde::{map_get, Value};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked readers poll the shutdown flag.
const POLL: Duration = Duration::from_millis(50);

/// The load-aware `retry_after_ms` hint sent with `overloaded` and
/// `shutdown` rejections: 25 ms on an idle daemon, climbing linearly to
/// 225 ms at a full queue. A pure function of load — no clock, no
/// randomness — so chaos runs replay identically. Every hint issued is
/// recorded in the `serve.retry_after_ms` histogram.
fn rejection_hint(queue_len: usize, queue_depth: usize) -> u64 {
    let hint = 25 + 200 * (queue_len.min(queue_depth) as u64) / (queue_depth.max(1) as u64);
    obs::retry_after_ms().record(hint);
    hint
}

/// One queued heavy request: what to run, where to send the line, and
/// the cancel flag the reader flips when its client disconnects.
struct QueuedJob {
    request: Request,
    deadline: Option<Instant>,
    conn_id: u64,
    cancelled: Arc<AtomicBool>,
    reply: mpsc::Sender<String>,
}

/// The admission queue, round-robin fair across connections: one lane
/// per connection with queued work, served front-lane-first with the
/// lane rotated to the back after each dequeue. A connection
/// pipelining many requests fills its own lane; it cannot push another
/// connection's single request behind all of them.
struct FairQueue {
    lanes: VecDeque<(u64, VecDeque<QueuedJob>)>,
    len: usize,
}

impl FairQueue {
    fn new() -> FairQueue {
        FairQueue {
            lanes: VecDeque::new(),
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, job: QueuedJob) {
        self.len += 1;
        if let Some((_, lane)) = self.lanes.iter_mut().find(|(id, _)| *id == job.conn_id) {
            lane.push_back(job);
            return;
        }
        let mut lane = VecDeque::new();
        let conn_id = job.conn_id;
        lane.push_back(job);
        self.lanes.push_back((conn_id, lane));
    }

    fn pop(&mut self) -> Option<QueuedJob> {
        while let Some((conn_id, mut lane)) = self.lanes.pop_front() {
            if let Some(job) = lane.pop_front() {
                self.len -= 1;
                if !lane.is_empty() {
                    self.lanes.push_back((conn_id, lane));
                }
                return Some(job);
            }
        }
        None
    }
}

/// State shared by the accept thread, readers, and pool tasks.
struct Shared {
    engine: Engine,
    queue: Mutex<FairQueue>,
    /// Admitted jobs not yet answered, queued or running.
    unanswered: Mutex<usize>,
    /// Signalled when `unanswered` falls to zero.
    answered: Condvar,
    queue_depth: usize,
    max_conns: usize,
    read_timeout: Duration,
    write_timeout: Duration,
    drain_timeout: Duration,
    /// When the graceful-drain window closes; set once by the first
    /// `begin_shutdown`.
    drain_deadline: Mutex<Option<Instant>>,
    shutdown: AtomicBool,
    active_conns: AtomicUsize,
    next_conn_id: AtomicU64,
    addr: SocketAddr,
}

/// Locks `m`, recovering the guard when a previous holder panicked
/// instead of cascading the poison into every thread that shares the
/// queue.
///
/// The queued state is a list of independent jobs plus their reply
/// senders; `VecDeque` operations don't tear, so a panic mid-critical-
/// section cannot leave it structurally broken. Abandoning the daemon
/// over a poisoned lock would turn one bad request into a full outage —
/// the exact failure mode the per-worker `catch_unwind` exists to
/// prevent. Recoveries are counted as `serve.lock_poisoned`.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| {
        obs::lock_poisoned().incr();
        poisoned.into_inner()
    })
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Starts the graceful drain: arms the drain deadline, flips the
    /// shutdown flag, and unblocks the accept call with one throwaway
    /// connection.
    fn begin_shutdown(&self) {
        {
            let mut deadline = lock_unpoisoned(&self.drain_deadline);
            if deadline.is_none() {
                // rchls-lint: allow(wall-clock, reason = "drain-window anchor; never reaches a deterministic document")
                *deadline = Some(Instant::now() + self.drain_timeout);
            }
        }
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }

    /// Whether the drain window has closed: queued work is now answered
    /// with `shutdown` errors instead of being computed.
    fn drain_expired(&self) -> bool {
        let deadline = *lock_unpoisoned(&self.drain_deadline);
        // rchls-lint: allow(wall-clock, reason = "drain-window enforcement is inherently wall-time; results never encode it")
        deadline.is_some_and(|at| Instant::now() >= at)
    }

    /// Whether the drain window closed long enough ago (two poll
    /// periods) that a queued job's answer is overdue: the pool is stuck
    /// on work that outlived the window, and the reader answers for it
    /// rather than wait on it.
    fn drain_long_expired(&self) -> bool {
        let deadline = *lock_unpoisoned(&self.drain_deadline);
        // rchls-lint: allow(wall-clock, reason = "drain-window enforcement is inherently wall-time; results never encode it")
        deadline.is_some_and(|at| Instant::now() >= at + 2 * POLL)
    }

    /// The load-aware `retry_after_ms` hint, for rejections issued
    /// outside the queue lock.
    fn retry_hint(&self) -> u64 {
        let len = lock_unpoisoned(&self.queue).len();
        rejection_hint(len, self.queue_depth)
    }
}

/// The running daemon.
pub struct Server;

/// A started server: its bound address plus what a clean exit waits
/// on.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
}

impl Server {
    /// Validates `config`, binds `config.addr` and starts the accept
    /// loop. Synthesis runs on the engine's worker pool, which starts its
    /// threads on demand.
    ///
    /// # Errors
    ///
    /// Returns an [`std::io::ErrorKind::InvalidInput`] error carrying the
    /// [`ServeConfig::validate`] message before binding anything when the
    /// configuration is invalid, and the bind error when the address is
    /// unusable.
    pub fn start(config: ServeConfig, library: Library) -> std::io::Result<ServerHandle> {
        config
            .validate()
            .map_err(|reason| std::io::Error::new(std::io::ErrorKind::InvalidInput, reason))?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let mut engine = Engine::new(library)
            .with_jobs(config.jobs)
            .with_cache_budget(config.cache_budget);
        if let Some(dir) = &config.store {
            let store = rchls_store::ResultStore::open(dir)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            engine = engine.with_store(Arc::new(store));
        }
        let shared = Arc::new(Shared {
            engine,
            queue: Mutex::new(FairQueue::new()),
            unanswered: Mutex::new(0),
            answered: Condvar::new(),
            queue_depth: config.queue_depth,
            max_conns: config.max_conns,
            read_timeout: Duration::from_millis(config.read_timeout_ms),
            write_timeout: Duration::from_millis(config.write_timeout_ms),
            drain_timeout: Duration::from_millis(config.drain_timeout_ms),
            drain_deadline: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            next_conn_id: AtomicU64::new(0),
            addr,
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(ServerHandle {
            addr,
            shared,
            accept,
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves `127.0.0.1:0` to the actual port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown without a client (equivalent to the `shutdown`
    /// method on the wire).
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Waits for the accept loop to exit and for every admitted job to
    /// be answered. Call after [`ServerHandle::shutdown`] or once a
    /// client has sent `shutdown`.
    pub fn join(self) {
        let _ = self.accept.join();
        let mut unanswered = lock_unpoisoned(&self.shared.unanswered);
        while *unanswered > 0 {
            unanswered = self
                .shared
                .answered
                .wait(unanswered)
                .unwrap_or_else(|poisoned| {
                    obs::lock_poisoned().incr();
                    poisoned.into_inner()
                });
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutting_down() {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        if shared.active_conns.load(Ordering::SeqCst) >= shared.max_conns {
            // One structured turn-away, then close: the client learns
            // why and when to retry instead of hanging in a backlog.
            obs::rejected_conns().incr();
            let line = protocol::error_line(
                &Value::Null,
                ErrorKind::Overloaded,
                &format!("connection limit ({}) reached", shared.max_conns),
                Some(shared.retry_hint()),
            );
            stream.set_write_timeout(Some(POLL)).ok();
            let _ = stream.write_all(line.as_bytes());
            let _ = stream.write_all(b"\n");
            continue;
        }
        obs::connections().incr();
        shared.active_conns.fetch_add(1, Ordering::SeqCst);
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(shared);
        std::thread::spawn(move || {
            let _ = serve_connection(stream, conn_id, &shared);
            shared.active_conns.fetch_sub(1, Ordering::SeqCst);
        });
    }
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Writes one response line and its newline in one call (under
/// `TCP_NODELAY` each call is a segment of its own), with the
/// `serve.conn.write` injection point applied first (a `disconnect`
/// fault tears the line mid-write). A write blocked past
/// `--write-timeout-ms` counts as `serve.timeouts` and closes the
/// connection.
fn write_response(stream: &mut TcpStream, mut line: String) -> std::io::Result<()> {
    match rchls_chaos::faultpoint!("serve.conn.write") {
        Some(rchls_chaos::Fault::Disconnect) => {
            let _ = stream.write_all(&line.as_bytes()[..line.len() / 2]);
            return Err(rchls_chaos::injected_io_error("serve.conn.write"));
        }
        Some(_) => return Err(rchls_chaos::injected_io_error("serve.conn.write")),
        None => {}
    }
    line.push('\n');
    let write = stream.write_all(line.as_bytes());
    if let Err(e) = &write {
        if would_block(e) {
            obs::timeouts().incr();
        }
    }
    write
}

/// Frames request lines off one connection until the peer hangs up,
/// stalls past a timeout, the server shuts down, or a `shutdown`
/// request closes it.
fn serve_connection(
    mut stream: TcpStream,
    conn_id: u64,
    shared: &Arc<Shared>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(POLL))?;
    stream.set_write_timeout(Some(shared.write_timeout))?;
    stream.set_nodelay(true).ok();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    // When the buffer last held an incomplete frame with no progress —
    // the anchor for the read-stall timeout. Idle connections (empty
    // buffer) never time out.
    let mut stalled_since: Option<Instant> = None;
    loop {
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line[..pos]).into_owned();
            if line.trim().is_empty() {
                continue;
            }
            match handle_line(shared, conn_id, line.trim()) {
                Handled::Line { line, keep_going } => {
                    write_response(&mut stream, line)?;
                    if !keep_going {
                        return Ok(());
                    }
                }
                Handled::Pending(pending) => {
                    let line = await_pending(&mut stream, &mut buf, shared, pending)?;
                    write_response(&mut stream, line)?;
                }
                Handled::Shutdown(line) => {
                    // Answer first: once the drain begins, the daemon may
                    // exit as soon as its admitted jobs are answered.
                    let written = write_response(&mut stream, line);
                    shared.begin_shutdown();
                    return written;
                }
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()),
            Ok(n) => match rchls_chaos::faultpoint!("serve.conn.read") {
                Some(rchls_chaos::Fault::Disconnect) => return Ok(()),
                Some(_) => return Err(rchls_chaos::injected_io_error("serve.conn.read")),
                None => {
                    stalled_since = None;
                    buf.extend_from_slice(&chunk[..n]);
                }
            },
            Err(e) if would_block(&e) => {
                if shared.shutting_down() {
                    return Ok(());
                }
                if buf.is_empty() {
                    stalled_since = None;
                } else {
                    // rchls-lint: allow(wall-clock, reason = "read-stall timeout anchor; never reaches a deterministic document")
                    let since = *stalled_since.get_or_insert_with(Instant::now);
                    if since.elapsed() >= shared.read_timeout {
                        obs::timeouts().incr();
                        let line = protocol::error_line(
                            &Value::Null,
                            ErrorKind::BadRequest,
                            "request line stalled mid-frame (read timeout)",
                            None,
                        );
                        let _ = write_response(&mut stream, line);
                        return Ok(());
                    }
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// What handling one request line produced: a finished response line,
/// a queued heavy job the reader must await while watching its socket,
/// or the `shutdown` answer, to write before the drain begins.
enum Handled {
    Line { line: String, keep_going: bool },
    Pending(Pending),
    Shutdown(String),
}

/// A queued heavy request as the reader sees it: the reply channel plus
/// the cancel flag shared with the worker.
struct Pending {
    id: Value,
    received: Instant,
    response: mpsc::Receiver<String>,
    cancelled: Arc<AtomicBool>,
}

/// Waits for a queued job's response line while watching the socket:
/// pipelined bytes are buffered for the next frame, a disconnect
/// cancels the job (`serve.abandoned_requests`) so no pool task answers
/// nobody, and a drain window long past due is self-answered with a
/// `shutdown` error so the reader cannot hang on work that outlived the
/// window.
fn await_pending(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    shared: &Arc<Shared>,
    pending: Pending,
) -> std::io::Result<String> {
    // The recv timeout is the pacing; the 1 ms read just samples the
    // socket for EOF and pipelined bytes between waits.
    stream.set_read_timeout(Some(Duration::from_millis(1)))?;
    let abandon = |pending: &Pending| {
        pending.cancelled.store(true, Ordering::SeqCst);
        obs::abandoned_requests().incr();
    };
    let mut chunk = [0u8; 4096];
    let line = loop {
        match pending.response.recv_timeout(POLL) {
            Ok(line) => break line,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                break protocol::error_line(
                    &pending.id,
                    ErrorKind::Internal,
                    "the pool dropped the request",
                    None,
                );
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
        }
        if shared.drain_long_expired() {
            pending.cancelled.store(true, Ordering::SeqCst);
            break protocol::error_line(
                &pending.id,
                ErrorKind::Shutdown,
                "server shut down before the request completed",
                Some(shared.retry_hint()),
            );
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                abandon(&pending);
                return Err(std::io::Error::other("client disconnected mid-request"));
            }
            Ok(n) => match rchls_chaos::faultpoint!("serve.conn.read") {
                Some(rchls_chaos::Fault::Disconnect) => {
                    abandon(&pending);
                    return Err(std::io::Error::other("client disconnected mid-request"));
                }
                Some(_) => {
                    abandon(&pending);
                    return Err(rchls_chaos::injected_io_error("serve.conn.read"));
                }
                None => buf.extend_from_slice(&chunk[..n]),
            },
            Err(e) if would_block(&e) => {}
            Err(e) => {
                abandon(&pending);
                return Err(e);
            }
        }
    };
    stream.set_read_timeout(Some(POLL))?;
    obs::request_micros().record(pending.received.elapsed().as_micros() as u64);
    Ok(line)
}

/// Dispatches one request line; admin methods answer inline, heavy
/// methods come back as [`Handled::Pending`] for the reader to await.
fn handle_line(shared: &Arc<Shared>, conn_id: u64, line: &str) -> Handled {
    // rchls-lint: allow(wall-clock, reason = "request latency metric and deadline anchor; never reaches a deterministic document")
    let received = Instant::now();
    let request = match protocol::parse_request(line) {
        Ok(request) => request,
        Err(message) => {
            return Handled::Line {
                line: protocol::error_line(&Value::Null, ErrorKind::BadRequest, &message, None),
                keep_going: true,
            }
        }
    };
    obs::requests().incr();
    // Span names must be `&'static`: map the method onto the fixed
    // vocabulary so server-side `--trace` brackets every request.
    let _span = span!(match request.method.as_str() {
        "synth" => "serve.synth",
        "batch" => "serve.batch",
        "sweep" => "serve.sweep",
        "pareto" => "serve.pareto",
        "ping" => "serve.ping",
        "workloads" => "serve.workloads",
        "flows" => "serve.flows",
        "metrics" => "serve.metrics",
        "shutdown" => "serve.shutdown",
        _ => "serve.request",
    });
    let deadline = request
        .deadline_ms
        .map(|ms| received + Duration::from_millis(ms));
    let id = request.id.clone();
    if shared.shutting_down() && request.method != "shutdown" {
        return Handled::Line {
            line: protocol::error_line(
                &id,
                ErrorKind::Shutdown,
                "server is shutting down",
                Some(shared.retry_hint()),
            ),
            keep_going: false,
        };
    }
    let (response, keep_going) = match request.method.as_str() {
        "ping" => (Ok(ping_result(shared)), true),
        "workloads" => (Ok(workloads_result()), true),
        "flows" => (Ok(flows_result()), true),
        "metrics" => (Ok(metrics_result(shared)), true),
        "shutdown" => {
            let stopping = Value::Map(vec![(key("stopping"), Value::Bool(true))]);
            obs::request_micros().record(received.elapsed().as_micros() as u64);
            return Handled::Shutdown(protocol::ok_line(&id, stopping));
        }
        "synth" | "batch" | "sweep" | "pareto" => {
            return match admit(shared, conn_id, request, deadline, received) {
                Ok(pending) => Handled::Pending(pending),
                Err(line) => {
                    obs::request_micros().record(received.elapsed().as_micros() as u64);
                    Handled::Line {
                        line,
                        keep_going: true,
                    }
                }
            };
        }
        other => (
            Err(protocol::error_line(
                &id,
                ErrorKind::BadRequest,
                &format!(
                    "unknown method {other:?} (methods: ping, synth, batch, sweep, pareto, \
                     workloads, flows, metrics, shutdown)"
                ),
                None,
            )),
            true,
        ),
    };
    let line = match response {
        Ok(result) => protocol::ok_line(&id, result),
        Err(error_line) => error_line,
    };
    obs::request_micros().record(received.elapsed().as_micros() as u64);
    Handled::Line { line, keep_going }
}

/// Admission control for heavy methods: reject on an already-expired
/// deadline or a full queue, otherwise queue the job, post one pool task
/// to answer it, and hand back the [`Pending`] the reader awaits.
fn admit(
    shared: &Arc<Shared>,
    conn_id: u64,
    request: Request,
    deadline: Option<Instant>,
    received: Instant,
) -> Result<Pending, String> {
    let id = request.id.clone();
    if expired(deadline) {
        obs::rejected_deadline().incr();
        return Err(protocol::error_line(
            &id,
            ErrorKind::DeadlineExceeded,
            "deadline expired before admission",
            None,
        ));
    }
    let (reply, response) = mpsc::channel();
    let cancelled = Arc::new(AtomicBool::new(false));
    {
        let mut queue = lock_unpoisoned(&shared.queue);
        obs::queue_depth().record(queue.len() as u64);
        if queue.len() >= shared.queue_depth {
            obs::rejected_overloaded().incr();
            let hint = rejection_hint(queue.len(), shared.queue_depth);
            return Err(protocol::error_line(
                &id,
                ErrorKind::Overloaded,
                &format!("admission queue is full ({} requests queued)", queue.len()),
                Some(hint),
            ));
        }
        queue.push(QueuedJob {
            request,
            deadline,
            conn_id,
            cancelled: Arc::clone(&cancelled),
            reply,
        });
    }
    *lock_unpoisoned(&shared.unanswered) += 1;
    let task = Arc::clone(shared);
    shared.engine.post(move || answer_next(&task));
    Ok(Pending {
        id,
        received,
        response,
        cancelled,
    })
}

/// One pool task per admitted request: answers the queue's fairest job,
/// which need not be the one the task was posted for.
fn answer_next(shared: &Arc<Shared>) {
    let Some(job) = lock_unpoisoned(&shared.queue).pop() else {
        return;
    };
    // A cancelled job's client left, and its reader already counted the
    // abandonment: no answer is computed for nobody.
    if !job.cancelled.load(Ordering::SeqCst) {
        let _ = job.reply.send(answer(shared, &job));
    }
    let mut unanswered = lock_unpoisoned(&shared.unanswered);
    *unanswered -= 1;
    if *unanswered == 0 {
        shared.answered.notify_all();
    }
}

/// One dequeued job's response line.
fn answer(shared: &Arc<Shared>, job: &QueuedJob) -> String {
    let id = &job.request.id;
    // Deadline check at dequeue: don't start work that can no longer
    // answer in time.
    if shared.shutting_down() && shared.drain_expired() {
        return protocol::error_line(
            id,
            ErrorKind::Shutdown,
            "drain window expired before the request ran",
            Some(shared.retry_hint()),
        );
    }
    if expired(job.deadline) {
        obs::rejected_deadline().incr();
        return protocol::error_line(
            id,
            ErrorKind::DeadlineExceeded,
            "deadline expired while queued",
            None,
        );
    }
    let line = catch_unwind(AssertUnwindSafe(|| {
        // Only `panic` and `delay` are cataloged for this point; an
        // injected panic unwinds to this boundary like any synthesis bug
        // would, including one re-raised from a batch's helper thread.
        let _ = rchls_chaos::faultpoint!("serve.worker.exec");
        execute(shared, job)
    }))
    .unwrap_or_else(|_| {
        protocol::error_line(id, ErrorKind::Internal, "synthesis worker panicked", None)
    });
    if shared.shutting_down() {
        obs::drained().incr();
    }
    line
}

/// Runs one heavy method to a complete response line.
fn execute(shared: &Arc<Shared>, job: &QueuedJob) -> String {
    let _span = span!(match job.request.method.as_str() {
        "synth" => "serve.exec.synth",
        "batch" => "serve.exec.batch",
        "sweep" => "serve.exec.sweep",
        "pareto" => "serve.exec.pareto",
        _ => "serve.exec",
    });
    let id = &job.request.id;
    let params = &job.request.params;
    let bad = |message: &str| protocol::error_line(id, ErrorKind::BadRequest, message, None);
    let result = match job.request.method.as_str() {
        "synth" => synth_result(shared, params, job.deadline),
        "batch" => batch_result(shared, params, job.deadline),
        "sweep" => explore_result(shared, params, job.deadline, true),
        "pareto" => explore_result(shared, params, job.deadline, false),
        // rchls-lint: allow(panic-in-serve, reason = "admit only queues the four heavy methods, and the pool task's catch_unwind still answers `internal` if that ever breaks")
        other => unreachable!("only heavy methods are queued, got {other:?}"),
    };
    match result {
        Ok(value) => protocol::ok_line(id, value),
        Err(Fail::BadRequest(message)) => bad(&message),
        Err(Fail::Deadline(at)) => {
            obs::rejected_deadline().incr();
            protocol::error_line(id, ErrorKind::DeadlineExceeded, at, None)
        }
    }
}

/// Why a heavy method produced no result.
enum Fail {
    BadRequest(String),
    Deadline(&'static str),
}

fn check_deadline(deadline: Option<Instant>, at: &'static str) -> Result<(), Fail> {
    if expired(deadline) {
        return Err(Fail::Deadline(at));
    }
    Ok(())
}

fn expired(deadline: Option<Instant>) -> bool {
    // rchls-lint: allow(wall-clock, reason = "deadline enforcement is inherently wall-time; results never encode it")
    deadline.is_some_and(|at| Instant::now() >= at)
}

/// `synth`: params are one [`SynthJob`] map; the result is the same
/// scrubbed outcome object an offline `rchls batch` emits for that job.
fn synth_result(
    shared: &Arc<Shared>,
    params: &Value,
    deadline: Option<Instant>,
) -> Result<Value, Fail> {
    let job: SynthJob = serde_json::from_value(params)
        .map_err(|e| Fail::BadRequest(format!("invalid synth params: {e}")))?;
    check_deadline(deadline, "deadline expired before synthesis")?;
    let batch = shared.engine.run_batch(std::slice::from_ref(&job));
    Ok(serde_json::to_value(&batch.outcomes[0]))
}

/// `batch`: params are `{"jobs": [<job>, ...]}`; the result is
/// `{"jobs": N, "outcomes": [...]}` — exactly the outcomes an offline
/// `rchls batch` emits, without the session-cumulative counters (those
/// depend on server history; `metrics` reports them).
fn batch_result(
    shared: &Arc<Shared>,
    params: &Value,
    deadline: Option<Instant>,
) -> Result<Value, Fail> {
    let entries = params
        .as_map()
        .ok_or_else(|| Fail::BadRequest("batch params must be {\"jobs\": [...]}".to_owned()))?;
    let jobs_value = map_get(entries, "jobs")
        .ok_or_else(|| Fail::BadRequest("batch params are missing \"jobs\"".to_owned()))?;
    if matches!(jobs_value, Value::UInt(_) | Value::Int(_)) {
        return Err(Fail::BadRequest(
            "\"jobs\" must be an array of synthesis jobs, not a worker count — \
             the server's worker pool is fixed at startup (rchls serve --jobs N)"
                .to_owned(),
        ));
    }
    let jobs: Vec<SynthJob> = serde_json::from_value(jobs_value)
        .map_err(|e| Fail::BadRequest(format!("invalid batch jobs: {e}")))?;
    if jobs.is_empty() {
        return Err(Fail::BadRequest(
            "\"jobs\" must name at least one synthesis job".to_owned(),
        ));
    }
    check_deadline(deadline, "deadline expired before synthesis")?;
    let batch = shared.engine.run_batch(&jobs);
    check_deadline(deadline, "deadline expired during synthesis")?;
    Ok(Value::Map(vec![
        (key("jobs"), Value::UInt(batch.jobs as u64)),
        (key("outcomes"), serde_json::to_value(&batch.outcomes)),
    ]))
}

/// `sweep` / `pareto`: params are `{"workload": SPEC, "latencies":
/// [...], "areas": [...], "flow": {...}}` (`sweep` requires both bound
/// lists; `pareto` defaults to the workload's default grid). The result
/// is the same exploration document `rchls sweep --format json` emits.
fn explore_result(
    shared: &Arc<Shared>,
    params: &Value,
    deadline: Option<Instant>,
    require_grid: bool,
) -> Result<Value, Fail> {
    let entries = params
        .as_map()
        .ok_or_else(|| Fail::BadRequest("params must be a JSON object".to_owned()))?;
    let spec = match map_get(entries, "workload") {
        Some(Value::Str(spec)) => spec.clone(),
        Some(_) => return Err(Fail::BadRequest("\"workload\" must be a string".to_owned())),
        None => {
            return Err(Fail::BadRequest(
                "params are missing \"workload\"".to_owned(),
            ))
        }
    };
    let workload = shared
        .engine
        .workload(&spec)
        .map_err(|e| Fail::BadRequest(e.to_string()))?;
    let bounds_list = |name: &str| -> Result<Option<Vec<u32>>, Fail> {
        match map_get(entries, name) {
            None => Ok(None),
            Some(v) => {
                let list: Vec<u32> = serde_json::from_value(v)
                    .map_err(|e| Fail::BadRequest(format!("invalid {name:?}: {e}")))?;
                if list.is_empty() || list.contains(&0) {
                    return Err(Fail::BadRequest(format!(
                        "{name:?} must be a non-empty list of positive bounds"
                    )));
                }
                Ok(Some(list))
            }
        }
    };
    let grid: Vec<(u32, u32)> = match (bounds_list("latencies")?, bounds_list("areas")?) {
        (Some(latencies), Some(areas)) => latencies
            .iter()
            .flat_map(|&l| areas.iter().map(move |&a| (l, a)))
            .collect(),
        (None, None) if !require_grid => {
            rchls_explorer::default_grid(&workload.dfg, shared.engine.library()).ok_or_else(
                || {
                    Fail::BadRequest(format!(
                        "the library has no version for one of {}'s operation classes",
                        workload.dfg.name()
                    ))
                },
            )?
        }
        _ => {
            return Err(Fail::BadRequest(if require_grid {
                "sweep params need both \"latencies\" and \"areas\"".to_owned()
            } else {
                "pareto params need both \"latencies\" and \"areas\", or neither".to_owned()
            }))
        }
    };
    let flow = match map_get(entries, "flow") {
        Some(v) => {
            serde_json::from_value(v).map_err(|e| Fail::BadRequest(format!("invalid flow: {e}")))?
        }
        None => flow::FlowSpec::default(),
    };
    flow.resolve()
        .map_err(|e| Fail::BadRequest(e.to_string()))?;
    check_deadline(deadline, "deadline expired before exploration")?;
    let task = ExploreTask::new(workload.spec, grid);
    let exploration = explore(
        &shared.engine,
        std::slice::from_ref(&task),
        &flow,
        RedundancyModel::default(),
    )
    .map_err(|e| Fail::BadRequest(e.to_string()))?;
    check_deadline(deadline, "deadline expired during exploration")?;
    Ok(serde_json::to_value(&exploration))
}

fn ping_result(shared: &Arc<Shared>) -> Value {
    Value::Map(vec![
        (key("protocol"), Value::UInt(PROTOCOL_VERSION)),
        (key("jobs"), Value::UInt(shared.engine.jobs() as u64)),
        (key("queue_depth"), Value::UInt(shared.queue_depth as u64)),
        (
            key("cache_budget"),
            Value::Str(shared.engine.cache_budget().to_string()),
        ),
    ])
}

/// The registered workload sources and their known specs, structured.
fn workloads_result() -> Value {
    let schemes = rchls_workloads::workload_source_schemes()
        .into_iter()
        .filter_map(|scheme| {
            let source = rchls_workloads::workload_source(&scheme)?;
            Some(Value::Map(vec![
                (key("scheme"), Value::Str(scheme)),
                (
                    key("description"),
                    Value::Str(source.description().to_owned()),
                ),
                (
                    key("known_specs"),
                    Value::Seq(source.known_specs().into_iter().map(Value::Str).collect()),
                ),
            ]))
        })
        .collect();
    Value::Map(vec![(key("sources"), Value::Seq(schemes))])
}

/// The registered strategies and passes, structured.
fn flows_result() -> Value {
    let ids = |ids: Vec<String>| Value::Seq(ids.into_iter().map(Value::Str).collect());
    Value::Map(vec![
        (key("strategies"), ids(flow::strategy_ids())),
        (key("schedulers"), ids(flow::scheduler_ids())),
        (key("binders"), ids(flow::binder_ids())),
        (key("victim_policies"), ids(flow::victim_policy_ids())),
        (key("refine_passes"), ids(flow::refine_pass_ids())),
    ])
}

/// The session cache facts plus the full process metrics snapshot.
fn metrics_result(shared: &Arc<Shared>) -> Value {
    let engine = &shared.engine;
    Value::Map(vec![
        (
            key("session"),
            Value::Map(vec![
                (
                    key("cache_budget"),
                    Value::Str(engine.cache_budget().to_string()),
                ),
                (
                    key("resident_cache_bytes"),
                    Value::UInt(engine.resident_cache_bytes() as u64),
                ),
                (
                    key("cache_evictions"),
                    Value::UInt(engine.cache_evictions()),
                ),
                (
                    key("memoized_points"),
                    Value::UInt(engine.memoized_points() as u64),
                ),
                (
                    key("starts_pools"),
                    Value::UInt(engine.starts_pools() as u64),
                ),
                (
                    key("alloc_designs"),
                    Value::UInt(engine.alloc_designs() as u64),
                ),
                (
                    key("interned_workloads"),
                    Value::UInt(engine.interned_workloads() as u64),
                ),
                (key("store"), store_value(engine)),
            ]),
        ),
        (key("metrics"), rchls_telemetry::metrics::snapshot()),
    ])
}

/// The persistent store's facts for the metrics document: `null` when
/// the daemon runs memory-only, otherwise its path and on-disk counts.
fn store_value(engine: &Engine) -> Value {
    match engine.store() {
        None => Value::Null,
        Some(store) => {
            let stats = store.stats();
            Value::Map(vec![
                (key("path"), Value::Str(store.root().display().to_string())),
                (key("objects"), Value::UInt(stats.objects)),
                (key("object_bytes"), Value::UInt(stats.object_bytes)),
                (key("quarantined"), Value::UInt(stats.quarantined)),
            ])
        }
    }
}

fn key(k: &str) -> Value {
    Value::Str(k.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(conn_id: u64, tag: &str) -> QueuedJob {
        let (reply, _keep) = mpsc::channel();
        std::mem::forget(_keep);
        QueuedJob {
            request: Request {
                id: Value::UInt(1),
                method: tag.to_owned(),
                params: Value::Null,
                deadline_ms: None,
            },
            deadline: None,
            conn_id,
            cancelled: Arc::new(AtomicBool::new(false)),
            reply,
        }
    }

    #[test]
    fn fair_queue_round_robins_across_connections() {
        // Connection 1 pipelines three requests before connection 2's
        // single request arrives; round-robin still alternates lanes,
        // so conn 2 waits behind one conn-1 job, not all three.
        let mut queue = FairQueue::new();
        for tag in ["a1", "a2", "a3"] {
            queue.push(job(1, tag));
        }
        queue.push(job(2, "b1"));
        queue.push(job(3, "c1"));
        let order: Vec<String> = std::iter::from_fn(|| queue.pop())
            .map(|j| j.request.method)
            .collect();
        assert_eq!(order, ["a1", "b1", "c1", "a2", "a3"]);
        assert_eq!(queue.len(), 0);
        assert!(queue.pop().is_none());
    }

    #[test]
    fn fair_queue_keeps_arrival_order_within_a_connection() {
        let mut queue = FairQueue::new();
        queue.push(job(7, "first"));
        queue.push(job(7, "second"));
        queue.push(job(7, "third"));
        assert_eq!(queue.len(), 3);
        let order: Vec<String> = std::iter::from_fn(|| queue.pop())
            .map(|j| j.request.method)
            .collect();
        assert_eq!(order, ["first", "second", "third"]);
    }

    #[test]
    fn rejection_hints_scale_with_load() {
        // Idle floor, linear climb, full-queue ceiling — and a depth of
        // zero must not divide by zero.
        assert_eq!(rejection_hint(0, 8), 25);
        assert_eq!(rejection_hint(4, 8), 125);
        assert_eq!(rejection_hint(8, 8), 225);
        assert_eq!(
            rejection_hint(99, 8),
            225,
            "hints are capped at a full queue"
        );
        assert_eq!(rejection_hint(0, 0), 25);
        assert_eq!(rejection_hint(5, 0), 25);
    }
}
