//! `ad-hoc-thread`: concurrency stays in the engine's worker pool.

use crate::report::Finding;
use crate::rules::{finding, Rule};
use crate::source::SourceFile;

/// Flags `thread::spawn` and `thread::Builder` outside the blessed
/// concurrency owners (the engine's worker pool, the serve daemon's
/// accept loop and readers, telemetry — scoped by `lint.toml`).
///
/// Determinism at any `--jobs` holds because all parallel synthesis
/// runs on the engine's worker pool: results in job order, panics
/// re-raised on the batch's caller, at most `jobs` threads. A stray
/// thread is unaccounted concurrency: no result ordering, no
/// `catch_unwind`, no bound.
pub struct AdHocThread;

impl Rule for AdHocThread {
    fn id(&self) -> &'static str {
        "ad-hoc-thread"
    }

    fn teach(&self) -> &'static str {
        "all parallel synthesis runs on the engine's worker pool; ad-hoc threads escape \
         deterministic ordering, panic isolation and the `jobs` bound"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        for i in 0..file.toks.len() {
            if file.in_test(i) {
                continue;
            }
            if file.is_path2(i, "thread", "spawn") || file.is_path2(i, "thread", "Builder") {
                out.push(finding(
                    self.id(),
                    file,
                    i,
                    "a thread started outside the worker pool/serve/telemetry escapes \
                     deterministic result ordering, panic isolation and the `jobs` bound; \
                     run the work on the engine's pool (`Engine::synth_batch`, or \
                     `Engine::post` for a one-shot task) instead"
                        .to_owned(),
                ));
            }
        }
    }
}
