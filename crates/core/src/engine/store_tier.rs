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
