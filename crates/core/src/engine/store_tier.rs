//! The on-disk second cache tier: the payload codec between
//! [`SynthCache`](crate::engine::SynthCache) entries and a
//! [`rchls_store::ResultStore`].
//!
//! The store itself moves opaque strings; this module owns their shape.
//! A stored payload is one compact-JSON [`StoredEntry`]: the request
//! facts (`bounds`, strategy token) that double as the fingerprint
//! collision check, the report itself (wall-time-scrubbed so a store
//! hit is byte-identical to a fresh synthesis in every deterministic
//! artifact), and optional re-synthesis [`Provenance`] for
//! `rchls store verify`.
//!
//! Trust boundary: the store validates the *envelope* (magic, schema
//! version, fingerprint, length); this module validates the *payload*.
//! A payload that no longer decodes — engine schema drift since the
//! entry was written — is demoted to the store's quarantine and the
//! lookup treated as a miss, never served.

use crate::engine::cache::CacheKey;
use crate::{Bounds, FlowSpec, RedundancyModel, SynthReport};
use rchls_store::{Lookup, ResultStore};
use serde::{Deserialize, Serialize};

/// One persisted synthesis outcome, as stored under a cache fingerprint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredEntry {
    /// The strategy fingerprint token of the request (see
    /// [`crate::Strategy::fingerprint_token`]).
    pub strategy: String,
    /// The request bounds.
    pub bounds: Bounds,
    /// The synthesis report; `None` records an infeasible point so warm
    /// runs skip re-proving infeasibility. Diagnostics are stored
    /// wall-time-scrubbed (see [`crate::Diagnostics::scrubbed`]).
    pub report: Option<SynthReport>,
    /// Everything needed to re-synthesize this entry from scratch, when
    /// the writer knew it — the hook for `rchls store verify`.
    pub provenance: Option<Provenance>,
}

/// Re-synthesis provenance: the workload spec plus the flow and model
/// of the run that produced an entry. Together with the entry's own
/// `bounds`/`strategy` this reproduces the cache key, so `store verify`
/// can both detect mis-keyed entries and replay the synthesis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// The canonical workload spec (resolvable through
    /// `rchls-workloads`' source registry, e.g. `builtin:fir16`).
    pub workload: String,
    /// The flow the entry was synthesized with.
    pub flow: FlowSpec,
    /// The redundancy model of the run.
    pub model: RedundancyModel,
}

/// What probing the store for one request produced.
// One short-lived value per store probe, consumed immediately by the
// cache; boxing the report would put an allocation on the hit path to
// save stack bytes nothing is fighting for.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum StoreOutcome {
    /// A validated entry for exactly this request (`None` = the point
    /// is recorded infeasible).
    Hit(Option<SynthReport>),
    /// A validated entry exists under this fingerprint but belongs to a
    /// *different* request — a 64-bit collision. Compute fresh; leave
    /// the resident entry alone (first writer wins, matching the
    /// in-memory table's discipline).
    Collision,
    /// Nothing usable: absent, envelope-quarantined by the store, or
    /// payload-quarantined here.
    Miss,
}

/// Renders a stored entry as its on-disk payload (compact JSON).
#[must_use]
pub fn encode_entry(entry: &StoredEntry) -> String {
    serde_json::to_string(entry).expect("stored entries always serialize")
}

/// Parses an on-disk payload back into a [`StoredEntry`].
///
/// # Errors
///
/// Returns the decode error when the payload is not a stored entry —
/// the caller quarantines the underlying object.
pub fn decode_entry(payload: &str) -> Result<StoredEntry, serde::Error> {
    serde_json::from_str(payload)
}

/// Probes `store` for `key`, validating the payload against the request
/// facts. Counts `store.*` metrics and records probe latency.
pub(crate) fn load(
    store: &ResultStore,
    key: CacheKey,
    bounds: Bounds,
    strategy_token: &str,
) -> StoreOutcome {
    let span = rchls_telemetry::span!(timed: "store.load");
    let outcome = match store.load(key.raw()) {
        Lookup::Hit(payload) => match decode_entry(&payload) {
            Ok(entry) if entry.bounds == bounds && entry.strategy == strategy_token => {
                StoreOutcome::Hit(entry.report)
            }
            Ok(_) => StoreOutcome::Collision,
            Err(_) => {
                // Envelope was intact but the report no longer decodes:
                // engine schema drift. Demote it like any corruption.
                store.quarantine_object(key.raw());
                crate::obs::store_quarantined().incr();
                StoreOutcome::Miss
            }
        },
        Lookup::Quarantined => {
            crate::obs::store_quarantined().incr();
            StoreOutcome::Miss
        }
        Lookup::Miss => StoreOutcome::Miss,
    };
    let micros = span.elapsed_micros();
    match outcome {
        StoreOutcome::Hit(_) => {
            crate::obs::store_hits().incr();
            crate::obs::store_hit_micros().record(micros);
        }
        StoreOutcome::Collision | StoreOutcome::Miss => {
            crate::obs::store_misses().incr();
            crate::obs::store_miss_micros().record(micros);
        }
    }
    outcome
}

/// Writes one fresh result back to `store` under `key`, wall-time
/// scrubbed. Write failures are counted, never surfaced — a full disk
/// must not fail the synthesis that just succeeded.
pub(crate) fn save(
    store: &ResultStore,
    key: CacheKey,
    bounds: Bounds,
    strategy_token: &str,
    report: Option<&SynthReport>,
    provenance: Option<Provenance>,
) {
    let entry = StoredEntry {
        strategy: strategy_token.to_owned(),
        bounds,
        report: report.map(|r| SynthReport {
            design: r.design.clone(),
            diagnostics: r.diagnostics.scrubbed(),
        }),
        provenance,
    };
    // The engine-level spill point: drops the write before the store
    // even sees it, exercising the "synthesis must not notice a dead
    // store tier" contract one layer up from store.write.*.
    if rchls_chaos::faultpoint!("engine.spill").is_some() {
        crate::obs::store_write_failures().incr();
        return;
    }
    match store.save(key.raw(), &encode_entry(&entry)) {
        Ok(()) => crate::obs::store_writes().incr(),
        Err(_) => crate::obs::store_write_failures().incr(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BatchReport, Engine, SynthJob};
    use rchls_reslib::Library;
    use serde::json::Reader;
    use serde::Value;
    use std::sync::Arc;

    /// Reads `text` as a `T` straight from the text, with no tree and no
    /// fallback, and through a `Value` tree; both must succeed and agree.
    fn decode_both_routes<T: Deserialize + PartialEq + std::fmt::Debug>(text: &str) -> T {
        let mut r = Reader::new(text);
        let typed = T::from_json(&mut r)
            .and_then(|v| r.end().map(|()| v))
            .unwrap_or_else(|e| panic!("typed read: {e}"));
        let tree = serde_json::from_str::<Value>(text)
            .and_then(T::from_owned_value)
            .unwrap_or_else(|e| panic!("tree route: {e}"));
        assert_eq!(typed, tree);
        typed
    }

    /// The five builtins and the five random graphs the `warm_replay`
    /// benchmark stores, under every strategy it asks for, plus a point
    /// per graph and strategy that no design meets.
    fn stored_points() -> Vec<SynthJob> {
        let strategies = ["ours", "combined", "baseline"];
        let feasible = [
            ("builtin:fir16", 12, 8),
            ("builtin:fir16", 10, 12),
            ("builtin:ewf", 17, 16),
            ("builtin:ewf", 14, 20),
            ("builtin:diffeq", 6, 11),
            ("builtin:diffeq", 8, 8),
            ("builtin:ar-lattice", 16, 16),
            ("builtin:ar-lattice", 12, 24),
            ("builtin:butterfly8", 8, 24),
            ("random:64x6@2001", 16, 16),
            ("random:96x8@2002", 24, 24),
            ("random:128x8@2003", 20, 32),
        ];
        let mut jobs: Vec<SynthJob> = feasible
            .into_iter()
            .flat_map(|(spec, l, a)| strategies.map(|s| SynthJob::new(spec, l, a).with_strategy(s)))
            .collect();
        for spec in ["random:256x16@2004", "random:512x16@2005"] {
            jobs.push(SynthJob::new(spec, 64, 256).with_strategy("baseline"));
        }
        let graphs = [
            "builtin:fir16",
            "builtin:ewf",
            "builtin:diffeq",
            "builtin:ar-lattice",
            "builtin:butterfly8",
            "random:64x6@2001",
            "random:96x8@2002",
            "random:128x8@2003",
            "random:256x16@2004",
            "random:512x16@2005",
        ];
        for spec in graphs {
            jobs.extend(strategies.map(|s| SynthJob::new(spec, 2, 2).with_strategy(s)));
        }
        jobs
    }

    #[test]
    fn stored_entries_decode_typed_to_the_tree_value() {
        let root =
            std::env::temp_dir().join(format!("rchls-core-typed-decode-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = Arc::new(ResultStore::open(&root).expect("temp store opens"));
        let engine = Engine::new(Library::table1()).with_store(Arc::clone(&store));
        let results = engine.synth_batch(&stored_points());
        let keys = store.keys();
        assert!(keys.len() >= results.len(), "{} objects", keys.len());
        let mut infeasible = 0;
        for key in keys {
            let Lookup::Hit(payload) = store.load(key) else {
                panic!("object {key:016x} does not load");
            };
            let entry: StoredEntry = decode_both_routes(&payload);
            let decoded = decode_entry(&payload).expect("payload decodes");
            assert_eq!(decoded, entry);
            // Budgeted caches count capacity: both routes size alike.
            let tree =
                serde_json::from_str::<Value>(&payload).and_then(StoredEntry::from_owned_value);
            let bytes = |e: &StoredEntry| e.report.as_ref().map(SynthReport::approx_bytes);
            assert_eq!(bytes(&decoded), bytes(&tree.expect("tree route")));
            assert_eq!(encode_entry(&entry), payload);
            infeasible += usize::from(entry.report.is_none());
        }
        assert_eq!(infeasible, results.iter().filter(|r| r.is_err()).count());
        assert!(infeasible > 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn the_example_batch_report_decodes_typed_to_the_tree_value() {
        let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
        let text = std::fs::read_to_string(format!("{examples}/batch_jobs.json"))
            .expect("examples/batch_jobs.json reads")
            .replace("file:examples/", &format!("file:{examples}/"));
        let jobs: Vec<SynthJob> = decode_both_routes(&text);
        let report = Engine::new(Library::table1()).run_batch(&jobs);
        assert!(report.outcomes.iter().all(|o| o.error.is_none()));
        for json in [
            serde_json::to_string(&report).expect("renders"),
            serde_json::to_string_pretty(&report).expect("renders"),
        ] {
            assert_eq!(decode_both_routes::<BatchReport>(&json), report);
        }
    }

    /// The malformed documents of `serde_json`'s reference test.
    const MALFORMED: &[&str] = &[
        "",
        "{",
        "[1,]",
        "[1 2]",
        "{\"a\" 1}",
        "{\"a\": 1,}",
        "{1: 2}",
        "12 34",
        "nulle",
        "tru",
        "-",
        "1.2.3",
        "-18446744073709551616",
        "18446744073709551616",
        "\"abc",
        "\"a\\",
        "\"\\x\"",
        "\"\\u12\"",
        "\"\\u12é\"",
        "\"\\uzzzz\"",
        "\"\\u+041\"",
        "\"\\ud83d\"",
        "\"\\ude00\"",
        "\"raw\ncontrol\"",
    ];

    #[test]
    fn malformed_text_fails_with_the_tree_routes_error() {
        fn tree<T: Deserialize>(text: &str) -> Result<T, String> {
            serde_json::from_str::<Value>(text)
                .and_then(T::from_owned_value)
                .map_err(|e| e.to_string())
        }
        for text in MALFORMED {
            let entry = serde_json::from_str::<StoredEntry>(text).map_err(|e| e.to_string());
            assert_eq!(entry, tree::<StoredEntry>(text), "{text:?}");
            assert!(entry.is_err(), "{text:?}");
            let jobs = serde_json::from_str::<Vec<SynthJob>>(text).map_err(|e| e.to_string());
            assert_eq!(jobs, tree::<Vec<SynthJob>>(text), "{text:?}");
            assert!(jobs.is_err(), "{text:?}");
        }
    }
}
