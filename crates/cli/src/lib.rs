//! The `rchls` command-line interface, as a library for testability.
//!
//! Subcommands:
//!
//! * `synth`        — synthesize one design under bounds (`--report json`
//!   dumps the full diagnostics-carrying report with its canonical
//!   workload spec);
//! * `sweep`        — Table-2-style three-strategy grid comparison
//!   (`--format json` includes per-strategy diagnostics);
//! * `pareto`       — explore a design space and print the Pareto
//!   frontier over achieved `(latency, area, reliability)`;
//! * `batch`        — run a JSON array of synthesis jobs through the
//!   session [`rchls_core::Engine`], emitting one deterministic,
//!   diagnostics-carrying JSON document (`--cache-budget` bounds the
//!   session caches without changing a byte of it);
//! * `serve`        — run the session engine as a long-lived TCP daemon
//!   speaking the line-delimited JSON protocol (admission control,
//!   per-request deadlines, bounded caches; `--check` prints the
//!   effective configuration without binding);
//! * `request`      — send one method call to a running daemon and
//!   print the response document;
//! * `metrics`      — run a pinned demo batch twice (cold, then warm) and
//!   print the process metrics snapshot — cache hit rates, phase latency
//!   percentiles — as one deterministic-ordered JSON document;
//!   `--validate FILE` schema-checks an exported snapshot instead;
//! * `store`        — inspect and maintain a persistent result store:
//!   `stats` counts its contents, `gc` evicts by age/size, `verify`
//!   re-synthesizes entries from their provenance and flags drift;
//! * `chaos`        — the resilience harness: `run` boots a daemon under
//!   a deterministic fault plan and drives scripted clients at it,
//!   asserting no hangs, one structured response per request, and
//!   offline-identical synth bytes; `points` lists the injection-point
//!   catalog (see `docs/chaos.md`);
//! * `merge`        — recombine `sweep --shard i/n` shard documents
//!   into the byte-identical unsharded sweep document;
//! * `workloads`    — list the registered workload sources and specs;
//! * `flows`        — list the registered strategies and passes;
//! * `dot`          — emit a DFG in Graphviz DOT;
//! * `list`         — list the built-in benchmark graphs;
//! * `characterize` — run the gate-level SEU characterization;
//! * `validate`     — Monte-Carlo check of a design's analytic reliability;
//! * `help`         — usage.
//!
//! Strategies (`--strategy`) and passes (`--scheduler`, `--binder`,
//! `--victim`, `--refine`) are addressed by registry id, so strategies
//! and passes registered by out-of-tree crates work from every flag that
//! takes an id. Workloads are addressed the same way: `--workload SPEC`
//! resolves `builtin:<name>`, `random:<nodes>x<layers>@<seed>`,
//! `file:<path>`, or any scheme registered via
//! [`rchls_workloads::register_workload_source`]. The legacy
//! `--dfg <name|file>` flag desugars to `builtin:`/`file:` specs, so
//! every entry point resolves through the registry.
//!
//! The sweep, pareto, batch, and serve commands accept a global
//! `--jobs N` flag sizing their worker pool (omitted: one worker per
//! CPU; an explicit `--jobs 0` is rejected); parallel output is
//! byte-identical to serial output. The synth, sweep, pareto, batch,
//! and serve commands accept `--cache-budget`, which bounds the session
//! caches without changing a byte of output, and `--store DIR`, a
//! persistent content-addressed result store backing the in-memory
//! cache — warm runs replay stored reports byte-identically, and a
//! killed sweep rerun with the same store computes only the points it
//! had not finished. `sweep --shard i/n` splits a grid across processes
//! for `merge` (see `docs/store.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod chaos;
mod commands;
mod error;

pub use args::ParsedArgs;
pub use error::CliError;

/// Executes a full CLI invocation and returns its stdout payload.
///
/// # Errors
///
/// Returns a [`CliError`] for unknown commands, malformed flags, missing
/// inputs, or synthesis failures; the binary prints it to stderr.
///
/// # Examples
///
/// ```
/// let out = rchls_cli::run(&["list".to_string()])?;
/// assert!(out.contains("fir16"));
/// # Ok::<(), rchls_cli::CliError>(())
/// ```
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Ok(commands::help());
    };
    // `pareto` takes its workload positionally (`rchls pareto fir16`),
    // `batch` its job file (`rchls batch jobs.json`), `request` its
    // method (`rchls request ping`), and `store`/`chaos` their action
    // (`rchls store stats`, `rchls chaos run`); desugar those into the
    // flags the commands read.
    let positional_flag = match command.as_str() {
        "pareto" => Some("--workload"),
        "batch" => Some("--file"),
        "request" => Some("--method"),
        "store" => Some("--action"),
        "chaos" => Some("--action"),
        _ => None,
    };
    let rest: Vec<String> = match (positional_flag, rest.split_first()) {
        (Some(flag), Some((first, tail))) if !first.starts_with("--") => {
            let mut flags = vec![flag.to_owned(), first.clone()];
            flags.extend(tail.iter().cloned());
            flags
        }
        _ => rest.to_vec(),
    };
    // `merge` takes its shard documents positionally (`rchls merge
    // s0.json s1.json --format json`); collect the leading non-flag
    // arguments before the `--flag value` parser sees them.
    let mut merge_inputs: Vec<String> = Vec::new();
    let rest: Vec<String> = if command == "merge" {
        let split = rest
            .iter()
            .position(|arg| arg.starts_with("--"))
            .unwrap_or(rest.len());
        merge_inputs = rest[..split].to_vec();
        rest[split..].to_vec()
    } else {
        rest
    };
    // `serve --check` is the one valueless flag; lift it out before the
    // `--flag value` parser sees it.
    let serve_check = command == "serve" && rest.iter().any(|arg| arg == "--check");
    let rest: Vec<String> = rest
        .into_iter()
        .filter(|arg| !(serve_check && arg == "--check"))
        .collect();
    let parsed = ParsedArgs::parse(&rest)?;
    match command.as_str() {
        "synth" => commands::synth(&parsed),
        "sweep" => commands::sweep(&parsed),
        "pareto" => commands::pareto(&parsed),
        "batch" => commands::batch(&parsed),
        "merge" => commands::merge(&parsed, &merge_inputs),
        "store" => commands::store(&parsed),
        "chaos" => chaos::chaos(&parsed),
        "serve" => commands::serve(&parsed, serve_check),
        "request" => commands::request(&parsed),
        "metrics" => commands::metrics(&parsed),
        "workloads" => Ok(commands::workloads()),
        "flows" => Ok(commands::flows()),
        "dot" => commands::dot(&parsed),
        "list" => Ok(commands::list()),
        "characterize" => commands::characterize(&parsed),
        "validate" => commands::validate(&parsed),
        "help" | "--help" | "-h" => Ok(commands::help()),
        other => Err(CliError::UnknownCommand(other.to_owned())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| (*x).to_owned()).collect()
    }

    #[test]
    fn no_args_prints_help() {
        let out = run(&[]).unwrap();
        assert!(out.contains("usage"));
    }

    #[test]
    fn unknown_command_errors() {
        let err = run(&s(&["frobnicate"])).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn list_names_all_builtins() {
        let out = run(&s(&["list"])).unwrap();
        for name in [
            "figure4a",
            "fir16",
            "ewf",
            "diffeq",
            "ar-lattice",
            "butterfly8",
            "iir4",
        ] {
            assert!(out.contains(name), "{name} missing");
        }
    }

    #[test]
    fn synth_builtin_works() {
        let out = run(&s(&[
            "synth",
            "--dfg",
            "diffeq",
            "--latency",
            "6",
            "--area",
            "11",
        ]))
        .unwrap();
        assert!(out.contains("reliability"));
        assert!(out.contains("Step"));
    }

    #[test]
    fn synth_baseline_strategy() {
        let out = run(&s(&[
            "synth",
            "--dfg",
            "diffeq",
            "--latency",
            "5",
            "--area",
            "11",
            "--strategy",
            "baseline",
        ]))
        .unwrap();
        assert!(out.contains("0.70723"));
    }

    #[test]
    fn synth_pipelined() {
        let out = run(&s(&[
            "synth",
            "--dfg",
            "diffeq",
            "--latency",
            "8",
            "--area",
            "14",
            "--ii",
            "4",
        ]))
        .unwrap();
        assert!(out.contains("II=4"));
    }

    #[test]
    fn synth_infeasible_is_an_error() {
        let err = run(&s(&[
            "synth",
            "--dfg",
            "figure4a",
            "--latency",
            "3",
            "--area",
            "99",
        ]))
        .unwrap_err();
        assert!(matches!(
            err,
            CliError::Engine(rchls_core::EngineError::Infeasible { .. })
        ));
        assert_eq!(
            err.to_string(),
            "no ours design for builtin:figure4a meets Ld=3, Ad=99"
        );
    }

    #[test]
    fn sweep_prints_table() {
        let out = run(&s(&[
            "sweep",
            "--dfg",
            "figure4a",
            "--latencies",
            "5,6",
            "--areas",
            "3,4",
        ]))
        .unwrap();
        assert!(out.contains("Ref[3]"));
        assert_eq!(out.lines().count(), 5); // header + 4 grid cells
    }

    #[test]
    fn sweep_jobs_flag_is_output_invariant() {
        let base = s(&[
            "sweep",
            "--dfg",
            "figure4a",
            "--latencies",
            "5,6",
            "--areas",
            "3,4",
        ]);
        let serial = run(&[base.clone(), s(&["--jobs", "1"])].concat()).unwrap();
        let parallel = run(&[base, s(&["--jobs", "8"])].concat()).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn pareto_positional_benchmark() {
        let out = run(&s(&["pareto", "figure4a", "--jobs", "2"])).unwrap();
        assert!(out.contains("Pareto frontier of figure4a"));
        assert!(out.contains("best reliability"));
        // The flag spelling works too and agrees.
        let flagged = run(&s(&["pareto", "--dfg", "figure4a", "--jobs", "2"])).unwrap();
        assert_eq!(out, flagged);
    }

    #[test]
    fn pareto_formats() {
        let args = |fmt: &str| {
            s(&[
                "pareto",
                "figure4a",
                "--latencies",
                "5,6",
                "--areas",
                "4",
                "--format",
                fmt,
            ])
        };
        let json = run(&args("json")).unwrap();
        // One JSON document: the frontier plus diagnostics-carrying rows.
        assert!(json.contains("\"frontier\""));
        assert!(json.contains("\"reliability\""));
        assert!(json.contains("\"diagnostics\""));
        assert!(json.contains("\"victim_moves\""));
        let csv = run(&args("csv")).unwrap();
        assert!(csv.starts_with("benchmark,strategy"));
        assert!(run(&args("yaml")).is_err());
    }

    #[test]
    fn sweep_json_carries_diagnostics() {
        let out = run(&s(&[
            "sweep",
            "--dfg",
            "figure4a",
            "--latencies",
            "5,6",
            "--areas",
            "4",
            "--format",
            "json",
        ]))
        .unwrap();
        assert!(out.contains("\"diagnostics\""));
        assert!(out.contains("\"loop_iterations\""));
        // Scrubbed wall times keep sweep JSON deterministic.
        assert!(out.contains("\"wall_time_micros\": 0"));
        let csv = run(&s(&[
            "sweep",
            "--dfg",
            "figure4a",
            "--latencies",
            "5",
            "--areas",
            "4",
            "--format",
            "csv",
        ]))
        .unwrap();
        assert!(csv.starts_with("latency_bound,area_bound"));
    }

    #[test]
    fn flows_lists_registry_ids() {
        let out = run(&s(&["flows"])).unwrap();
        for id in [
            "baseline",
            "ours",
            "combined",
            "pipelined",
            "redundancy",
            "density",
            "force-directed",
            "left-edge",
            "coloring",
            "max-delay",
            "min-reliability-loss",
            "greedy",
        ] {
            assert!(out.contains(id), "{id} missing from `rchls flows`");
        }
    }

    #[test]
    fn synth_accepts_pass_ids_and_rejects_unknown_ones() {
        let base = s(&[
            "synth",
            "--dfg",
            "figure4a",
            "--latency",
            "6",
            "--area",
            "4",
        ]);
        let custom = run(&[
            base.clone(),
            s(&[
                "--scheduler",
                "force-directed",
                "--binder",
                "coloring",
                "--victim",
                "min-reliability-loss",
            ]),
        ]
        .concat())
        .unwrap();
        assert!(custom.contains("reliability"));
        let err = run(&[base.clone(), s(&["--scheduler", "warp"])].concat()).unwrap_err();
        assert!(err.to_string().contains("warp"));
        let err = run(&[base, s(&["--strategy", "nope"])].concat()).unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn synth_report_json_dumps_design_and_diagnostics() {
        let out = run(&s(&[
            "synth",
            "--dfg",
            "figure4a",
            "--latency",
            "5",
            "--area",
            "4",
            "--report",
            "json",
        ]))
        .unwrap();
        assert!(out.contains("\"design\""));
        assert!(out.contains("\"diagnostics\""));
        assert!(out.contains("\"victim_moves\""));
        // The run's session cache facts ride along.
        assert!(out.contains("\"session\""));
        assert!(out.contains("\"starts_cache\""));
        assert!(out.contains("\"alloc_cache\""));
    }

    #[test]
    fn synth_trace_writes_a_chrome_trace() {
        let dir = std::env::temp_dir().join("rchls-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let out = run(&s(&[
            "synth",
            "--workload",
            "builtin:diffeq",
            "--latency",
            "6",
            "--area",
            "11",
            "--trace",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("reliability"));
        let doc = std::fs::read_to_string(&path).unwrap();
        let names = rchls_telemetry::trace_event_names(&doc).unwrap();
        for expected in ["synth", "sched", "bind", "refine"] {
            assert!(
                names.iter().any(|n| n == expected),
                "{expected} span missing from trace"
            );
        }
        // The sink is scoped to the traced run.
        assert!(!rchls_telemetry::sink_ids().contains(&"chrome-trace".to_owned()));
    }

    #[test]
    fn metrics_prints_cache_rates_and_percentiles() {
        let out = run(&s(&["metrics", "--jobs", "1"])).unwrap();
        assert!(out.contains("\"schema_version\""));
        assert!(out.contains("\"hit_rate\""));
        assert!(out.contains("phase.synth_micros"));
        assert!(out.contains("\"p95\""));
        // The embedded snapshot passes the exported schema check.
        let doc: serde::Value = serde_json::from_str(&out).unwrap();
        let snapshot = doc
            .as_map()
            .and_then(|entries| {
                entries.iter().find_map(|(k, v)| match k {
                    serde::Value::Str(s) if s == "metrics" => Some(v),
                    _ => None,
                })
            })
            .expect("metrics section present");
        rchls_telemetry::metrics::validate_snapshot(snapshot).unwrap();
    }

    #[test]
    fn metrics_validate_checks_schema() {
        let dir = std::env::temp_dir().join("rchls-cli-metrics-test");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("snap.json");
        std::fs::write(&good, rchls_telemetry::metrics::snapshot_json()).unwrap();
        let out = run(&s(&["metrics", "--validate", good.to_str().unwrap()])).unwrap();
        assert!(out.contains("valid metrics snapshot"));
        let bad = dir.join("bad.json");
        std::fs::write(&bad, r#"{"schema_version": 99}"#).unwrap();
        let err = run(&s(&["metrics", "--validate", bad.to_str().unwrap()])).unwrap_err();
        assert!(err.to_string().contains("schema"));
    }

    #[test]
    fn synth_runs_every_builtin_strategy_id() {
        for strategy in [
            "ours",
            "paper",
            "baseline",
            "combined",
            "pipelined",
            "redundancy",
        ] {
            let out = run(&s(&[
                "synth",
                "--dfg",
                "figure4a",
                "--latency",
                "8",
                "--area",
                "6",
                "--strategy",
                strategy,
            ]))
            .unwrap_or_else(|e| panic!("{strategy}: {e}"));
            assert!(out.contains("reliability"), "{strategy}");
        }
    }

    #[test]
    fn pareto_custom_grid_errors_without_both_lists() {
        let err = run(&s(&["pareto", "figure4a", "--latencies", "5,6"])).unwrap_err();
        assert!(err.to_string().contains("areas"));
    }

    #[test]
    fn dot_emits_graphviz() {
        let out = run(&s(&["dot", "--dfg", "figure4a"])).unwrap();
        assert!(out.starts_with("digraph"));
    }

    #[test]
    fn dfg_from_file() {
        let dir = std::env::temp_dir().join("rchls-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.dfg");
        std::fs::write(&path, "graph tiny\nop a add\nop b add\na -> b\n").unwrap();
        let out = run(&s(&[
            "synth",
            "--dfg",
            path.to_str().unwrap(),
            "--latency",
            "4",
            "--area",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("reliability"));
    }

    #[test]
    fn custom_library_from_file() {
        let dir = std::env::temp_dir().join("rchls-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lib.txt");
        std::fs::write(
            &path,
            "library demo\nversion only adder 1 1 0.95\nversion m multiplier 2 1 0.9\n",
        )
        .unwrap();
        let out = run(&s(&[
            "synth",
            "--dfg",
            "figure4a",
            "--latency",
            "6",
            "--area",
            "4",
            "--library",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("only"));
        // 6 adds at 0.95 each.
        assert!(out.contains(&format!("{:.5}", 0.95f64.powi(6))));
    }

    #[test]
    fn mission_time_derates_library() {
        let short = run(&s(&[
            "synth",
            "--dfg",
            "figure4a",
            "--latency",
            "6",
            "--area",
            "4",
        ]))
        .unwrap();
        let long = run(&s(&[
            "synth",
            "--dfg",
            "figure4a",
            "--latency",
            "6",
            "--area",
            "4",
            "--mission-time",
            "10",
        ]))
        .unwrap();
        assert_ne!(short, long);
        let bad = run(&s(&[
            "synth",
            "--dfg",
            "figure4a",
            "--latency",
            "6",
            "--area",
            "4",
            "--mission-time",
            "-1",
        ]));
        assert!(bad.is_err());
    }

    #[test]
    fn workloads_lists_sources_and_builtin_specs() {
        let out = run(&s(&["workloads"])).unwrap();
        for scheme in ["builtin", "random", "file"] {
            assert!(out.contains(scheme), "{scheme} missing");
        }
        assert!(out.contains("builtin:fir16"));
        assert!(out.contains("random:<nodes>x<layers>"));
        assert!(out.contains("register_workload_source"));
    }

    #[test]
    fn workload_specs_work_on_every_command() {
        let synth = run(&s(&[
            "synth",
            "--workload",
            "random:20x5@3",
            "--latency",
            "10",
            "--area",
            "10",
        ]))
        .unwrap();
        assert!(synth.contains("reliability"));
        let sweep = run(&s(&[
            "sweep",
            "--workload",
            "builtin:figure4a",
            "--latencies",
            "5,6",
            "--areas",
            "4",
        ]))
        .unwrap();
        assert!(sweep.contains("Ref[3]"));
        let pareto = run(&s(&["pareto", "random:12x3@1", "--jobs", "2"])).unwrap();
        assert!(pareto.contains("Pareto frontier of random-12-1"));
        let dot = run(&s(&["dot", "--workload", "builtin:figure4a"])).unwrap();
        assert!(dot.starts_with("digraph"));
        // Unknown schemes and mixing the flags report clearly.
        let err = run(&s(&[
            "synth",
            "--workload",
            "warp:9",
            "--latency",
            "5",
            "--area",
            "5",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("warp"));
        let err = run(&s(&[
            "synth",
            "--workload",
            "fir16",
            "--dfg",
            "fir16",
            "--latency",
            "12",
            "--area",
            "8",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"));
    }

    #[test]
    fn legacy_dfg_flag_matches_workload_specs_byte_for_byte() {
        // Everything but the measured wall time (the single
        // non-deterministic output field) must agree byte-for-byte.
        let scrub = |out: String| -> String {
            match out.rfind(" (") {
                Some(i) if out.ends_with("us)\n") => out[..i].to_owned(),
                _ => out,
            }
        };
        for (legacy, spec) in [("fir16", "builtin:fir16"), ("diffeq", "builtin:diffeq")] {
            let old = run(&s(&[
                "synth",
                "--dfg",
                legacy,
                "--latency",
                "12",
                "--area",
                "11",
            ]))
            .unwrap();
            let new = run(&s(&[
                "synth",
                "--workload",
                spec,
                "--latency",
                "12",
                "--area",
                "11",
            ]))
            .unwrap();
            assert_eq!(scrub(old), scrub(new), "{legacy}");
        }
        // --dfg also accepts full specs directly.
        let via_dfg = run(&s(&["dot", "--dfg", "random:10x2@4"])).unwrap();
        let via_workload = run(&s(&["dot", "--workload", "random:10x2@4"])).unwrap();
        assert_eq!(via_dfg, via_workload);
        // A file path containing `:` (no registered scheme before it)
        // still loads as a path, as the old loader did.
        let dir = std::env::temp_dir().join("rchls-cli-colon:dir");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.dfg");
        std::fs::write(&path, "graph t\nop a add\nop b add\na -> b\n").unwrap();
        let out = run(&s(&["dot", "--dfg", path.to_str().unwrap()])).unwrap();
        assert!(out.starts_with("digraph"));
    }

    #[test]
    fn synth_report_json_echoes_the_canonical_workload_spec() {
        let out = run(&s(&[
            "synth",
            "--workload",
            "random:14x4", // seed omitted: canonicalized to @0
            "--latency",
            "9",
            "--area",
            "9",
            "--report",
            "json",
        ]))
        .unwrap();
        assert!(out.contains("\"workload\": \"random:14x4@0\""));
        assert!(out.contains("\"design\""));
        assert!(out.contains("\"diagnostics\""));
    }

    #[test]
    fn sweep_json_carries_the_workload_spec() {
        let out = run(&s(&[
            "sweep",
            "--workload",
            "random:14x4@2",
            "--latencies",
            "9,10",
            "--areas",
            "9",
            "--format",
            "json",
        ]))
        .unwrap();
        assert!(out.contains("\"workload\": \"random:14x4@2\""));
    }

    /// Writes the batch fixture under a directory of its own per `test`:
    /// tests run in parallel, and a shared file can be read while another
    /// test rewrites it.
    fn write_batch_fixture(test: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("rchls-cli-batch-test-{test}"));
        std::fs::create_dir_all(&dir).unwrap();
        let dfg_path = dir.join("chain.dfg");
        std::fs::write(
            &dfg_path,
            "graph chain\nop a add\nop b mul\nop c add\na -> b\nb -> c\n",
        )
        .unwrap();
        let jobs_path = dir.join("jobs.json");
        let jobs = format!(
            r#"[
              {{"workload": "builtin:figure4a", "latency": 6, "area": 4}},
              {{"workload": "random:16x4", "latency": 9, "area": 9,
                "strategy": "combined"}},
              {{"workload": "file:{}", "latency": 6, "area": 5,
                "strategy": "baseline"}},
              {{"workload": "builtin:figure4a", "latency": 3, "area": 99}},
              {{"workload": "warp:9", "latency": 5, "area": 5}}
            ]"#,
            dfg_path.display()
        );
        std::fs::write(&jobs_path, jobs).unwrap();
        (jobs_path, dfg_path)
    }

    #[test]
    fn batch_runs_mixed_sources_and_is_jobs_invariant() {
        let (jobs_path, _) = write_batch_fixture("mixed");
        let path = jobs_path.to_str().unwrap();
        let reference = run(&s(&["batch", path, "--jobs", "1"])).unwrap();
        // Feasible jobs carry reports with diagnostics; failures carry
        // deterministic errors; the random seed is echoed.
        assert!(reference.contains("\"workload\": \"builtin:figure4a\""));
        assert!(reference.contains("\"workload\": \"random:16x4@0\""));
        assert!(reference.contains("\"diagnostics\""));
        assert!(reference.contains("\"wall_time_micros\": 0"));
        assert!(reference.contains("no ours design for builtin:figure4a meets Ld=3, Ad=99"));
        assert!(reference.contains("unknown workload scheme \\\"warp\\\""));
        // Session cache sizes surface in the document (deterministic:
        // distinct fingerprints only, never hit/miss tallies).
        assert!(reference.contains("\"starts_pools\""));
        assert!(reference.contains("\"alloc_designs\""));
        for jobs in ["2", "8"] {
            let parallel = run(&s(&["batch", path, "--jobs", jobs])).unwrap();
            assert_eq!(parallel, reference, "--jobs {jobs}");
        }
        // The positional and flag spellings agree.
        let flagged = run(&s(&["batch", "--file", path, "--jobs", "1"])).unwrap();
        assert_eq!(flagged, reference);
    }

    #[test]
    fn explicit_jobs_zero_is_rejected_everywhere() {
        let cases: Vec<Vec<String>> = vec![
            s(&["synth", "--dfg", "figure4a", "--jobs", "0"]),
            s(&[
                "sweep",
                "--dfg",
                "figure4a",
                "--latencies",
                "5",
                "--areas",
                "4",
                "--jobs",
                "0",
            ]),
            s(&["pareto", "figure4a", "--jobs", "0"]),
            s(&["batch", "/nonexistent/jobs.json", "--jobs", "0"]),
            s(&["metrics", "--jobs", "0"]),
            s(&["serve", "--check", "--jobs", "0"]),
        ];
        for args in cases {
            let err = run(&args).unwrap_err();
            assert!(
                err.to_string().contains("worker count must be positive"),
                "{args:?}: {err}"
            );
        }
    }

    #[test]
    fn batch_output_is_cache_budget_and_jobs_invariant() {
        let (jobs_path, _) = write_batch_fixture("budget");
        let path = jobs_path.to_str().unwrap();
        let reference = run(&s(&["batch", path, "--jobs", "1"])).unwrap();
        // Eviction must never change a byte of the report: the full
        // budget × worker-count matrix agrees with the unbudgeted
        // serial run, including the cumulative cache-size facts.
        for budget in ["0", "64KiB", "unlimited"] {
            for jobs in ["1", "8"] {
                let out = run(&s(&[
                    "batch",
                    path,
                    "--jobs",
                    jobs,
                    "--cache-budget",
                    budget,
                ]))
                .unwrap();
                assert_eq!(out, reference, "--cache-budget {budget} --jobs {jobs}");
            }
        }
        // Malformed budgets report clearly.
        let err = run(&s(&["batch", path, "--cache-budget", "lots"])).unwrap_err();
        assert!(err.to_string().contains("cache budget"));
    }

    #[test]
    fn sweep_and_pareto_read_the_cache_budget() {
        let sweep = s(&[
            "sweep",
            "--workload",
            "builtin:diffeq",
            "--latencies",
            "5,6,7",
            "--areas",
            "7,11",
            "--format",
            "json",
        ]);
        let reference = run(&sweep).unwrap();
        let starved = run(&[sweep.clone(), s(&["--cache-budget", "0"])].concat()).unwrap();
        assert_eq!(starved, reference);
        for command in [sweep, s(&["pareto", "figure4a"])] {
            let err = run(&[command, s(&["--cache-budget", "lots"])].concat()).unwrap_err();
            assert!(err.to_string().contains("cache budget"), "{err}");
        }
    }

    #[test]
    fn bad_formats_fail_before_any_synthesis() {
        let dir =
            std::env::temp_dir().join(format!("rchls-cli-format-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = dir.join("store");
        let store = store.to_str().unwrap();
        let grid = ["--latencies", "5,6,7", "--areas", "7,11"];
        for command in [
            &["sweep", "--workload", "builtin:diffeq"][..],
            &["pareto", "builtin:diffeq"][..],
        ] {
            let args = [command, &grid, &["--format", "xml", "--store", store]].concat();
            let err = run(&s(&args)).unwrap_err();
            assert!(err.to_string().contains("table|json|csv"), "{err}");
        }
        let objects = dir.join("store").join("objects");
        let stored = std::fs::read_dir(&objects).map_or(0, Iterator::count);
        assert_eq!(stored, 0, "a rejected format synthesized into the store");
        // `merge` rejects the format before it opens any shard document.
        let err = run(&s(&["merge", "missing-shard.json", "--format", "xml"])).unwrap_err();
        assert!(err.to_string().contains("table|json|csv"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_check_prints_the_effective_config_without_binding() {
        let out = run(&s(&[
            "serve",
            "--check",
            "--addr",
            "127.0.0.1:7411",
            "--jobs",
            "3",
            "--queue-depth",
            "9",
            "--cache-budget",
            "64KiB",
        ]))
        .unwrap();
        assert!(out.contains("dry run"), "{out}");
        assert!(out.contains("127.0.0.1:7411"));
        assert!(out.contains("3 synthesis threads at most"));
        assert!(out.contains("9 queued requests"));
        assert!(out.contains("65536 B"));
        assert!(out.contains("docs/protocol.md"));
        // Validation failures surface before anything binds.
        let err = run(&s(&["serve", "--check", "--addr", "nonsense"])).unwrap_err();
        assert!(err.to_string().contains("nonsense"));
        let err = run(&s(&["serve", "--check", "--cache-budget", "lots"])).unwrap_err();
        assert!(err.to_string().contains("cache budget"));
        // A zero queue depth or connection cap would refuse all work, and
        // the error names the flag that set it.
        for flag in ["--queue-depth", "--max-conns"] {
            let err = run(&s(&["serve", "--check", flag, "0"])).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("bad value for {flag}: {flag} must be at least 1")
            );
        }
    }

    #[test]
    fn request_round_trips_against_a_live_server() {
        let config = rchls_serve::ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            jobs: 1,
            ..rchls_serve::ServeConfig::default()
        };
        let handle = rchls_serve::Server::start(config, rchls_reslib::Library::table1()).unwrap();
        let addr = handle.addr().to_string();

        let pong = run(&s(&["request", "ping", "--addr", &addr])).unwrap();
        assert!(pong.contains("\"ok\": true"), "{pong}");
        assert!(pong.contains("\"protocol\": 1"), "{pong}");

        // Params ride in from a JSON file.
        let dir = std::env::temp_dir().join("rchls-cli-request-test");
        std::fs::create_dir_all(&dir).unwrap();
        let params = dir.join("synth.json");
        std::fs::write(
            &params,
            r#"{"workload": "builtin:figure4a", "latency": 6, "area": 4}"#,
        )
        .unwrap();
        let out = run(&s(&[
            "request",
            "synth",
            "--json",
            params.to_str().unwrap(),
            "--addr",
            &addr,
        ]))
        .unwrap();
        assert!(out.contains("\"ok\": true"), "{out}");
        assert!(out.contains("\"report\""), "{out}");
        assert!(out.contains("\"wall_time_micros\": 0"), "{out}");

        // A server-side failure still prints as a document, not a CLI
        // error.
        let out = run(&s(&["request", "frobnicate", "--addr", &addr])).unwrap();
        assert!(out.contains("\"ok\": false"), "{out}");
        assert!(out.contains("bad_request"), "{out}");

        let stop = run(&s(&["request", "shutdown", "--addr", &addr])).unwrap();
        assert!(stop.contains("stopping"), "{stop}");
        handle.join();

        // With no daemon listening, transport failure is a CLI error.
        assert!(run(&s(&["request", "ping", "--addr", &addr])).is_err());
    }

    #[test]
    fn batch_rejects_malformed_job_files() {
        let dir = std::env::temp_dir().join("rchls-cli-batch-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, r#"[{"workload": "fir16"}]"#).unwrap();
        let err = run(&s(&["batch", path.to_str().unwrap()])).unwrap_err();
        assert!(err.to_string().contains("latency"));
        let err = run(&s(&["batch", "/nonexistent/jobs.json"])).unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }

    #[test]
    fn missing_flag_reports_clearly() {
        let err = run(&s(&["validate", "--dfg", "diffeq"])).unwrap_err();
        assert!(err.to_string().contains("latency"));
    }

    #[test]
    fn synth_bounds_default_to_the_loosest_grid_corner() {
        // Omitting --latency/--area synthesizes at the default grid's
        // loosest (always feasible) corner instead of erroring.
        let out = run(&s(&["synth", "--dfg", "figure4a"])).unwrap();
        assert!(out.contains("reliability"));
    }

    #[test]
    fn characterize_runs() {
        let out = run(&s(&["characterize", "--width", "4", "--trials", "200"])).unwrap();
        assert!(out.contains("susceptibility"));
        assert!(out.contains("rca4"));
    }

    #[test]
    fn validate_compares_models() {
        let out = run(&s(&[
            "validate",
            "--dfg",
            "diffeq",
            "--latency",
            "6",
            "--area",
            "11",
            "--trials",
            "2000",
        ]))
        .unwrap();
        assert!(out.contains("analytic"));
        assert!(out.contains("empirical"));
    }
}
