//! Counters and fixed-bucket histograms, snapshotable as a
//! deterministic-ordered JSON document.
//!
//! Metrics are always on (unlike spans they don't wait for a sink):
//! recording is a handful of relaxed atomic operations, cheap enough
//! for the synthesis hot loop. Instrumentation sites look a metric up
//! once and cache the `Arc` handle in a `OnceLock`, so steady-state
//! recording never touches the registry lock.
//!
//! [`MetricsRegistry::snapshot`] renders every metric sorted by name
//! into a schema-versioned JSON document ([`METRICS_SCHEMA_VERSION`]);
//! [`validate_snapshot`] is the matching structural check used by the
//! CI bench step. [`MetricsRegistry::reset`] zeroes values in place —
//! existing handles stay valid — so benches and determinism tests can
//! measure from a clean slate.

use serde::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Version stamped into (and required from) metrics snapshots.
pub const METRICS_SCHEMA_VERSION: u64 = 1;

/// Default histogram bounds for microsecond latencies: powers of two
/// from 1µs to ~67s. Values above the last bound land in an overflow
/// bucket.
pub const TIME_BUCKETS_MICROS: &[u64] = &[
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072,
    262144, 524288, 1048576, 2097152, 4194304, 8388608, 16777216, 33554432, 67108864,
];

/// Default histogram bounds for small cardinalities (queue depths,
/// batch sizes, pool sizes): powers of two from 1 to 65536.
pub const COUNT_BUCKETS: &[u64] = &[
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
];

/// Default histogram bounds for byte sizes (cache residency, payload
/// lengths): powers of four from 64 B to 4 GiB.
pub const BYTE_BUCKETS: &[u64] = &[
    64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216, 67108864, 268435456,
    1073741824, 4294967296,
];

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A fixed-bucket histogram over `u64` samples (by convention,
/// microseconds).
///
/// Buckets are cumulative-upper-bound style: a sample lands in the
/// first bucket whose bound is `>=` the sample, or in the overflow
/// bucket past the last bound. Percentiles are therefore quantized to
/// bucket bounds — coarse, but stable, which is exactly what a
/// regression gate wants.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    overflow: AtomicU64,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: bounds.iter().map(|_| AtomicU64::new(0)).collect(),
            overflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        match self.bounds.iter().position(|&b| value <= b) {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample seen.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The bucket bound at or below which a `q` fraction of samples
    /// fall (`0.0 < q <= 1.0`). Samples in the overflow bucket resolve
    /// to [`max`](Histogram::max). Returns 0 for an empty histogram.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return self.bounds[i];
            }
        }
        self.max()
    }

    fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.overflow.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    fn to_value(&self) -> Value {
        let key = |s: &str| Value::Str(s.to_owned());
        // `count` is derived from the same bucket loads the snapshot
        // reports: a `record` or `reset` running on another thread updates
        // a bucket and `count` separately, so reading `count` on its own
        // could disagree with the buckets.
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|n| n.load(Ordering::Relaxed))
            .collect();
        let overflow = self.overflow.load(Ordering::Relaxed);
        let count = counts.iter().sum::<u64>() + overflow;
        let buckets: Vec<Value> = self
            .bounds
            .iter()
            .zip(counts)
            .map(|(le, n)| Value::Seq(vec![Value::UInt(*le), Value::UInt(n)]))
            .collect();
        Value::Map(vec![
            (key("count"), Value::UInt(count)),
            (key("sum"), Value::UInt(self.sum())),
            (key("max"), Value::UInt(self.max())),
            (key("p50"), Value::UInt(self.percentile(0.50))),
            (key("p95"), Value::UInt(self.percentile(0.95))),
            (key("p99"), Value::UInt(self.percentile(0.99))),
            (key("buckets"), Value::Seq(buckets)),
            (key("overflow"), Value::UInt(overflow)),
        ])
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
}

/// A name-keyed set of counters and histograms.
///
/// The process-global registry ([`global`]) backs the `rchls metrics`
/// snapshot; tests can build private registries to avoid cross-talk.
#[derive(Default)]
pub struct MetricsRegistry {
    entries: RwLock<Vec<(String, Metric)>>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Gets or creates the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a histogram.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut entries = self.entries.write().expect("metrics registry lock");
        if let Some((_, metric)) = entries.iter().find(|(k, _)| k == name) {
            match metric {
                Metric::Counter(c) => return Arc::clone(c),
                Metric::Histogram(_) => panic!("metric {name:?} is a histogram, not a counter"),
            }
        }
        let counter = Arc::new(Counter::default());
        entries.push((name.to_owned(), Metric::Counter(Arc::clone(&counter))));
        counter
    }

    /// Gets or creates the histogram `name` with the given bucket
    /// bounds (ignored if the histogram already exists).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a counter, or if
    /// `bounds` is empty or not strictly ascending.
    #[must_use]
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        let mut entries = self.entries.write().expect("metrics registry lock");
        if let Some((_, metric)) = entries.iter().find(|(k, _)| k == name) {
            match metric {
                Metric::Histogram(h) => return Arc::clone(h),
                Metric::Counter(_) => panic!("metric {name:?} is a counter, not a histogram"),
            }
        }
        let histogram = Arc::new(Histogram::new(bounds));
        entries.push((name.to_owned(), Metric::Histogram(Arc::clone(&histogram))));
        histogram
    }

    /// Zeroes every metric in place. Handles held by instrumentation
    /// sites stay valid.
    pub fn reset(&self) {
        for (_, metric) in self.entries.read().expect("metrics registry lock").iter() {
            match metric {
                Metric::Counter(c) => c.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }

    /// Renders every metric, sorted by name, into a schema-versioned
    /// JSON document.
    #[must_use]
    pub fn snapshot(&self) -> Value {
        let key = |s: &str| Value::Str(s.to_owned());
        let entries = self.entries.read().expect("metrics registry lock");
        let mut counters: Vec<(String, u64)> = Vec::new();
        let mut histograms: Vec<(String, Value)> = Vec::new();
        for (name, metric) in entries.iter() {
            match metric {
                Metric::Counter(c) => counters.push((name.clone(), c.get())),
                Metric::Histogram(h) => histograms.push((name.clone(), h.to_value())),
            }
        }
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Map(vec![
            (key("schema_version"), Value::UInt(METRICS_SCHEMA_VERSION)),
            (
                key("counters"),
                Value::Map(
                    counters
                        .into_iter()
                        .map(|(name, v)| (Value::Str(name), Value::UInt(v)))
                        .collect(),
                ),
            ),
            (
                key("histograms"),
                Value::Map(
                    histograms
                        .into_iter()
                        .map(|(name, v)| (Value::Str(name), v))
                        .collect(),
                ),
            ),
        ])
    }

    /// [`snapshot`](MetricsRegistry::snapshot) rendered as pretty JSON.
    #[must_use]
    pub fn snapshot_json(&self) -> String {
        serde_json::to_string_pretty(&self.snapshot()).expect("metrics snapshot serializes")
    }
}

/// The process-global metrics registry.
#[must_use]
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Gets or creates a counter in the global registry.
#[must_use]
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// Gets or creates a histogram in the global registry.
#[must_use]
pub fn histogram(name: &str, bounds: &[u64]) -> Arc<Histogram> {
    global().histogram(name, bounds)
}

/// Defines a crate-private accessor for the global counter `$name`: the
/// registry is looked up once per process, and instrumented hot paths
/// touch only the counter's atomics.
///
/// ```
/// rchls_telemetry::counter_handle!(
///     /// `example.hits` — lookups answered.
///     hits, "example.hits");
/// hits().incr();
/// assert!(std::ptr::eq(hits(), hits()));
/// ```
#[macro_export]
macro_rules! counter_handle {
    ($(#[$doc:meta])* $fn_name:ident, $name:expr) => {
        $(#[$doc])*
        pub(crate) fn $fn_name() -> &'static $crate::metrics::Counter {
            static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Counter>> =
                ::std::sync::OnceLock::new();
            HANDLE.get_or_init(|| $crate::metrics::counter($name))
        }
    };
}

/// Defines a crate-private accessor for the global histogram `$name`
/// with bucket bounds `$buckets`, looked up once per process like
/// [`counter_handle!`](crate::counter_handle).
#[macro_export]
macro_rules! histogram_handle {
    ($(#[$doc:meta])* $fn_name:ident, $name:expr, $buckets:expr) => {
        $(#[$doc])*
        pub(crate) fn $fn_name() -> &'static $crate::metrics::Histogram {
            static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Histogram>> =
                ::std::sync::OnceLock::new();
            HANDLE.get_or_init(|| $crate::metrics::histogram($name, $buckets))
        }
    };
}

/// Zeroes every metric in the global registry.
pub fn reset() {
    global().reset();
}

/// Snapshots the global registry as a JSON value.
#[must_use]
pub fn snapshot() -> Value {
    global().snapshot()
}

/// Snapshots the global registry as pretty JSON.
#[must_use]
pub fn snapshot_json() -> String {
    global().snapshot_json()
}

fn as_u64(value: &Value) -> Option<u64> {
    match value {
        Value::UInt(u) => Some(*u),
        Value::Int(i) if *i >= 0 => Some(*i as u64),
        _ => None,
    }
}

fn map_field<'a>(entries: &'a [(Value, Value)], key: &str) -> Option<&'a Value> {
    entries
        .iter()
        .find(|(k, _)| matches!(k, Value::Str(s) if s == key))
        .map(|(_, v)| v)
}

/// Structurally validates a metrics snapshot document (as produced by
/// [`MetricsRegistry::snapshot`] and consumed by the CI bench step).
///
/// # Errors
///
/// Returns a description of the first structural problem: wrong schema
/// version, non-numeric counters, histograms with missing fields,
/// non-ascending bucket bounds, or bucket counts that don't add up.
pub fn validate_snapshot(doc: &Value) -> Result<(), String> {
    let Value::Map(entries) = doc else {
        return Err("metrics document is not an object".into());
    };
    let version = map_field(entries, "schema_version")
        .and_then(as_u64)
        .ok_or("missing numeric schema_version")?;
    if version != METRICS_SCHEMA_VERSION {
        return Err(format!(
            "metrics schema_version {version} != supported {METRICS_SCHEMA_VERSION}"
        ));
    }
    let Some(Value::Map(counters)) = map_field(entries, "counters") else {
        return Err("missing counters object".into());
    };
    for (name, value) in counters {
        let Value::Str(name) = name else {
            return Err("counter name is not a string".into());
        };
        if as_u64(value).is_none() {
            return Err(format!("counter {name:?} is not a non-negative integer"));
        }
    }
    let Some(Value::Map(histograms)) = map_field(entries, "histograms") else {
        return Err("missing histograms object".into());
    };
    for (name, value) in histograms {
        let Value::Str(name) = name else {
            return Err("histogram name is not a string".into());
        };
        let Value::Map(fields) = value else {
            return Err(format!("histogram {name:?} is not an object"));
        };
        let numeric = |key: &str| {
            map_field(fields, key)
                .and_then(as_u64)
                .ok_or(format!("histogram {name:?} missing numeric {key:?}"))
        };
        let count = numeric("count")?;
        numeric("sum")?;
        numeric("max")?;
        numeric("p50")?;
        numeric("p95")?;
        numeric("p99")?;
        let overflow = numeric("overflow")?;
        let Some(Value::Seq(buckets)) = map_field(fields, "buckets") else {
            return Err(format!("histogram {name:?} missing buckets array"));
        };
        let mut last_bound: Option<u64> = None;
        let mut total = overflow;
        for bucket in buckets {
            let Value::Seq(pair) = bucket else {
                return Err(format!("histogram {name:?} bucket is not a [le, n] pair"));
            };
            let (Some(le), Some(n)) = (pair.first().and_then(as_u64), pair.get(1).and_then(as_u64))
            else {
                return Err(format!("histogram {name:?} bucket is not a [le, n] pair"));
            };
            if last_bound.is_some_and(|prev| le <= prev) {
                return Err(format!("histogram {name:?} bounds are not ascending"));
            }
            last_bound = Some(le);
            total += n;
        }
        if total != count {
            return Err(format!(
                "histogram {name:?} bucket counts sum to {total}, count says {count}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("cache.hits");
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(reg.counter("cache.hits").get(), 5, "same handle by name");
        reg.reset();
        assert_eq!(c.get(), 0, "reset zeroes in place");
    }

    #[test]
    fn histogram_percentiles_quantize_to_bounds() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[10, 100, 1000]);
        for v in [5, 7, 90, 95, 99, 100, 500, 501, 999, 5000] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.max(), 5000);
        assert_eq!(h.percentile(0.50), 100);
        assert_eq!(h.percentile(0.90), 1000);
        assert_eq!(h.percentile(1.0), 5000, "overflow resolves to max");
        assert_eq!(h.percentile(0.01), 10);
    }

    #[test]
    fn empty_histogram_percentile_is_zero() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", TIME_BUCKETS_MICROS);
        assert_eq!(h.percentile(0.95), 0);
    }

    #[test]
    fn snapshot_is_sorted_and_validates() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last").add(2);
        reg.counter("a.first").add(1);
        reg.histogram("m.lat", &[10, 100]).record(42);
        let doc = reg.snapshot();
        validate_snapshot(&doc).expect("own snapshot validates");
        let json = reg.snapshot_json();
        let a = json.find("a.first").expect("a.first present");
        let z = json.find("z.last").expect("z.last present");
        assert!(a < z, "counters are name-sorted");
        // Round-trip through text keeps it valid.
        let parsed: Value = serde_json::from_str(&json).expect("parses");
        validate_snapshot(&parsed).expect("parsed snapshot validates");
    }

    #[test]
    fn snapshots_add_up_while_samples_land() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("m.lat", &[10, 100]);
        h.record(42);
        // A sample caught between its bucket and its count, as a `record`
        // or `reset` on another thread leaves it for a moment.
        h.count.fetch_add(1, Ordering::Relaxed);
        validate_snapshot(&reg.snapshot()).expect("snapshot adds up");
    }

    #[test]
    fn validation_rejects_broken_documents() {
        assert!(validate_snapshot(&Value::Null).is_err());
        let key = |s: &str| Value::Str(s.to_owned());
        let bad_version = Value::Map(vec![
            (key("schema_version"), Value::UInt(99)),
            (key("counters"), Value::Map(vec![])),
            (key("histograms"), Value::Map(vec![])),
        ]);
        let err = validate_snapshot(&bad_version).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");

        let reg = MetricsRegistry::new();
        reg.histogram("h", &[1, 2]).record(1);
        let Value::Map(mut entries) = reg.snapshot() else {
            panic!("snapshot is a map")
        };
        // Corrupt the count so buckets no longer add up.
        for (k, v) in &mut entries {
            if matches!(k, Value::Str(s) if s == "histograms") {
                let Value::Map(hists) = v else { panic!() };
                let Value::Map(fields) = &mut hists[0].1 else {
                    panic!()
                };
                for (fk, fv) in fields.iter_mut() {
                    if matches!(fk, Value::Str(s) if s == "count") {
                        *fv = Value::UInt(7);
                    }
                }
            }
        }
        let err = validate_snapshot(&Value::Map(entries)).unwrap_err();
        assert!(err.contains("sum to"), "{err}");
    }

    #[test]
    #[should_panic(expected = "is a counter")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("x");
        let _ = reg.histogram("x", &[1]);
    }
}
