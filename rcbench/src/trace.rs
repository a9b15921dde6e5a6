//! The traced run's span buffer and its analysis.
//!
//! The benchmark opens its own spans (`request`, `resolve`, `key`, `mem`,
//! `serve.rtt`) around the public calls it makes, and installs an
//! in-memory sink that also receives the spans the program already
//! emits (`synth`, `figure6`, `refine`, `starts.compute`, `alloc`,
//! `sched`, `bind`, `store.load`, `serve.*`, ...). Every record is kept
//! with its name, start, end, thread, and the request id of the caller
//! thread; parents are rebuilt from per-thread nesting depth, and spans
//! opened on other threads (daemon readers and workers, executor
//! workers) are attached to the benchmark span whose interval contains
//! them. Self time — a span's duration minus the part its children
//! cover — is summed per layer.

use rchls_telemetry::{SpanGuard, SpanRecord, SpanSink};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

const SINK_ID: &str = "rcbench";

thread_local! {
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

/// One finished span as recorded.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub thread: u64,
    pub depth: u32,
    /// The request id of the recording thread (0 = none); spans of other
    /// threads inherit their request from the parent they are attached to.
    pub request: u64,
    pub parent: Option<usize>,
    pub self_us: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

#[derive(Default)]
struct Collector {
    spans: Mutex<Vec<Span>>,
}

impl SpanSink for Collector {
    fn id(&self) -> &str {
        SINK_ID
    }

    fn record(&self, s: &SpanRecord) {
        let span = Span {
            name: s.name,
            start: s.ts_micros,
            end: s.ts_micros + s.dur_micros,
            thread: s.thread,
            depth: s.depth,
            request: REQUEST.with(Cell::get),
            parent: None,
            self_us: 0,
        };
        self.spans.lock().expect("span buffer").push(span);
    }
}

/// An installed span buffer; [`Recording::finish`] uninstalls it.
pub struct Recording {
    collector: Arc<Collector>,
}

impl Recording {
    pub fn start() -> Recording {
        let collector = Arc::new(Collector::default());
        rchls_telemetry::register_sink(collector.clone()).expect("the benchmark sink id is free");
        Recording { collector }
    }

    pub fn finish(self) -> Trace {
        rchls_telemetry::unregister_sink(SINK_ID);
        let spans = std::mem::take(&mut *self.collector.spans.lock().expect("span buffer"));
        Trace::build(spans)
    }
}

/// Opens a benchmark span around one public call.
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard::timed(name)
}

/// The root span of one request: tags every span closed on this thread
/// until it ends with `id`.
pub struct RequestSpan {
    span: Option<SpanGuard>,
}

pub fn request(id: u64) -> RequestSpan {
    REQUEST.with(|r| r.set(id));
    RequestSpan {
        span: Some(span("request")),
    }
}

impl Drop for RequestSpan {
    fn drop(&mut self) {
        // Close the span while the id is still set, then clear it.
        drop(self.span.take());
        REQUEST.with(|r| r.set(0));
    }
}

/// The layer a span's self time is booked to.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "request" => "unaccounted",
        "resolve" => "resolve",
        "key" => "key",
        "mem" => "mem",
        "store.load" => "store",
        "starts.compute" => "starts",
        "alloc" => "alloc",
        "figure6" => "figure6",
        "refine" => "upgrades",
        "synth" => "strategy",
        n if n.starts_with("strategy.") => "strategy",
        n if n == "sched" || n.starts_with("sched.") => "sched",
        n if n == "bind" || n.starts_with("bind.") => "bind",
        n if n.starts_with("executor.") => "executor",
        n if n.starts_with("serve") => "serve",
        _ => "other",
    }
}

/// An analysed trace.
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    fn build(mut spans: Vec<Span>) -> Trace {
        spans.sort_by_key(|s| (s.start, s.depth, std::cmp::Reverse(s.end)));
        // Same-thread parents: the innermost open span one level up.
        let mut stacks: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, span) in spans.iter_mut().enumerate() {
            let depth = span.depth as usize;
            let stack = stacks.entry(span.thread).or_default();
            stack.truncate(depth);
            if depth > 0 && stack.len() == depth {
                span.parent = stack.last().copied();
            }
            stack.push(i);
        }
        // Top-level spans of threads the benchmark did not open (daemon
        // and executor threads) attach to the innermost span of another
        // thread that contains them. Parents are strictly longer (or a
        // benchmark span of equal length), so the links form no cycle.
        let orphans: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].parent.is_none() && spans[i].request == 0)
            .collect();
        for i in orphans {
            let s = &spans[i];
            let parent = (0..spans.len())
                .filter(|&p| {
                    let c = &spans[p];
                    c.thread != s.thread
                        && c.start <= s.start
                        && c.end >= s.end
                        && (c.dur() > s.dur() || c.request != 0)
                })
                .min_by_key(|&p| {
                    let c = &spans[p];
                    (c.dur(), std::cmp::Reverse((c.start, c.depth)))
                });
            spans[i].parent = parent;
        }
        // Requests flow down from the roots.
        let requests: Vec<u64> = (0..spans.len())
            .map(|mut root| {
                while let Some(p) = spans[root].parent {
                    root = p;
                }
                spans[root].request
            })
            .collect();
        for (s, request) in spans.iter_mut().zip(requests) {
            s.request = request;
        }
        // Self time: duration minus the union of the children.
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        for (i, kids) in children.iter_mut().enumerate() {
            kids.sort_unstable();
            let (lo, hi) = (spans[i].start, spans[i].end);
            let mut covered = 0;
            let mut reach = lo;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(hi));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            spans[i].self_us = spans[i].dur().saturating_sub(covered);
        }
        Trace { spans }
    }

    /// Spans that belong to a request.
    fn in_requests(&self) -> impl Iterator<Item = &Span> + '_ {
        self.spans.iter().filter(|s| s.request != 0)
    }

    /// Durations (µs) of every request-bound span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.in_requests()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64)
            .collect()
    }

    /// Request ids that contain at least one span named `name`.
    pub fn requests_with(&self, name: &str) -> std::collections::BTreeSet<u64> {
        self.in_requests()
            .filter(|s| s.name == name)
            .map(|s| s.request)
            .collect()
    }

    /// Durations (µs) of request-bound spans named `name` that have no
    /// children.
    pub fn leaves(&self, name: &str) -> Vec<f64> {
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_child[p] = true;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.request != 0 && s.name == name && !has_child[*i])
            .map(|(_, s)| s.dur() as f64)
            .collect()
    }

    /// Self time per layer (µs) over all request-bound spans, plus the
    /// summed duration of the request roots.
    pub fn layer_self_times(&self) -> (BTreeMap<&'static str, u64>, u64) {
        let mut layers = BTreeMap::new();
        let mut total = 0;
        for s in self.in_requests() {
            *layers.entry(layer_of(s.name)).or_insert(0) += s.self_us;
            if s.name == "request" {
                total += s.dur();
            }
        }
        (layers, total)
    }

    /// The Chrome trace-event document (loadable in Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"request\":{},\"self_us\":{}}}}}",
                s.name,
                layer_of(s.name),
                s.start,
                s.dur(),
                s.thread,
                s.request,
                s.self_us
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
