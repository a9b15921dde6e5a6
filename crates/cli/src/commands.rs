//! Subcommand implementations.

use crate::args::ParsedArgs;
use crate::error::CliError;
use rchls_core::engine::{CacheKey, StoredEntry, TableStats};
use rchls_core::explore::format_table;
use rchls_core::{
    flow, monte_carlo_reliability, Bounds, CacheBudget, Engine, EngineError, FlowSpec,
    RedundancyModel, SynthJob,
};
use rchls_explorer::{explore, explore_shard, export, Exploration, ExploreTask};
use rchls_netlist::{generators, FaultInjector};
use rchls_reslib::Library;
use rchls_store::{GcPolicy, Lookup, ResultStore};
use std::fmt::Write as _;
use std::sync::Arc;

/// Usage text.
pub fn help() -> String {
    "rchls — reliability-centric high-level synthesis\n\
     \n\
     usage:\n\
     \x20 rchls synth --workload SPEC [--latency N] [--area N]\n\
     \x20       [--strategy <id>|paper] [--ii N] [--report json] [--trace FILE]\n\
     \x20       [--scheduler <id>] [--binder <id>] [--victim <id>] [--refine <id>]\n\
     \x20       [--library <file>] [--mission-time T] [--cache-budget BYTES]\n\
     \x20       [--store DIR]\n\
     \x20 rchls sweep --workload SPEC --latencies L1,L2,... --areas A1,A2,...\n\
     \x20       [--format table|json|csv] [--cache-budget BYTES] [--store DIR]\n\
     \x20       [--shard I/N]\n\
     \x20 rchls pareto <SPEC> [--latencies ...] [--areas ...]\n\
     \x20       [--format table|json|csv] [--cache-budget BYTES] [--store DIR]\n\
     \x20 rchls merge <shard.json>... [--format table|json|csv]\n\
     \x20 rchls batch <jobs.json> [--jobs N] [--cache-budget BYTES]\n\
     \x20       [--library <file>] [--mission-time T] [--store DIR]\n\
     \x20 rchls store stats|gc|verify --store DIR [--max-age-days N]\n\
     \x20       [--max-bytes BYTES] [--sample N] [--library <file>]\n\
     \x20 rchls serve [--addr IP:PORT] [--jobs N] [--queue-depth N]\n\
     \x20       [--max-conns N] [--read-timeout-ms N] [--write-timeout-ms N]\n\
     \x20       [--drain-timeout-ms N] [--cache-budget BYTES] [--library <file>]\n\
     \x20       [--mission-time T] [--store DIR] [--trace FILE] [--faults FILE]\n\
     \x20       [--check]\n\
     \x20 rchls request <method> [--json FILE] [--addr IP:PORT] [--deadline-ms N]\n\
     \x20       [--retries N]\n\
     \x20 rchls chaos run --plan FILE --script FILE [--report FILE]\n\
     \x20 rchls chaos points\n\
     \x20 rchls metrics [--jobs N] [--library <file>] | rchls metrics --validate FILE\n\
     \x20 rchls workloads\n\
     \x20 rchls flows\n\
     \x20 rchls dot --workload SPEC\n\
     \x20 rchls list\n\
     \x20 rchls characterize [--width N] [--trials N] [--seed N]\n\
     \x20 rchls validate --workload SPEC --latency N --area N [--trials N] [--seed N]\n\
     \x20 rchls help\n\
     \n\
     a workload SPEC is `scheme:rest` resolved through the open source\n\
     registry (`rchls workloads` lists the schemes): `builtin:fir16`\n\
     (bare benchmark names work too), `random:<nodes>x<layers>@<seed>`,\n\
     `file:<path>` (the textual `graph g` / `op x add` / `x -> y`\n\
     format). `--dfg <name|file>` remains as a legacy alias.\n\
     \n\
     `rchls batch` runs a JSON array of jobs\n\
     (`{\"workload\": SPEC, \"latency\": N, \"area\": N, ...}`) through the\n\
     session engine and emits one diagnostics-carrying JSON document;\n\
     output is byte-identical at any --jobs.\n\
     \n\
     strategies and passes are registry ids (`rchls flows` lists them);\n\
     `--format json` sweeps include per-strategy diagnostics, and\n\
     `--report json` dumps the full synthesis report of one run with its\n\
     canonical workload spec (random seeds echoed).\n\
     \n\
     observability: `synth --trace FILE` records the run's spans as a\n\
     Chrome trace-event JSON file (open in Perfetto / chrome://tracing);\n\
     omitting --latency/--area defaults each to the loosest corner of the\n\
     default exploration grid. `rchls metrics` runs a pinned demo batch\n\
     twice (cold, then warm) and prints the process metrics snapshot —\n\
     cache hit rates and phase latency percentiles — as one\n\
     deterministic-ordered JSON document; `rchls metrics --validate FILE`\n\
     schema-checks an exported snapshot (CI runs it on bench_engine's).\n\
     \n\
     serving: `rchls serve` runs the session engine as a daemon speaking\n\
     line-delimited JSON over TCP (methods: ping, synth, batch, sweep,\n\
     pareto, workloads, flows, metrics, shutdown — see docs/protocol.md);\n\
     `--queue-depth` bounds admission (beyond it requests are rejected as\n\
     overloaded, never queued unboundedly), `--cache-budget` bounds the\n\
     resident caches (eviction never changes responses), `--check` prints\n\
     the effective configuration without binding. `--max-conns` caps\n\
     simultaneous connections, `--read-timeout-ms`/`--write-timeout-ms`\n\
     drop stalled peers, and `--drain-timeout-ms` bounds the graceful\n\
     drain after `shutdown`. `rchls request METHOD` sends one request\n\
     (params from `--json FILE`) and prints the response document;\n\
     `--retries N` retries overloaded/shutdown rejections and transport\n\
     errors with deterministic capped backoff honoring the server's\n\
     retry_after_ms hint.\n\
     \n\
     chaos: `--faults FILE` (synth, sweep, batch, serve) arms a\n\
     deterministic fault-injection plan — seeded, trigger-counted faults\n\
     at named points in store I/O, serve connections, and cache spill\n\
     (docs/chaos.md has the schema; `rchls chaos points` the catalog).\n\
     `rchls chaos run --plan P --script S` boots a daemon under the\n\
     plan, drives scripted concurrent clients at it, and asserts the\n\
     resilience invariants: no hang, one structured response per\n\
     request, successful synth responses byte-identical to the offline\n\
     engine (`--report FILE` writes the verdict document).\n\
     \n\
     persistence: `--store DIR` (synth, sweep, pareto, batch, serve)\n\
     backs the in-memory cache with an on-disk content-addressed result\n\
     store — warm runs replay stored reports byte-identically, corrupt\n\
     entries are quarantined and recomputed, never served. `rchls store\n\
     stats|gc|verify` inspects and maintains a store (gc takes\n\
     --max-age-days and/or --max-bytes; verify re-synthesizes entries\n\
     from their provenance — --sample N caps how many — and flags\n\
     drift). A sweep stores each point as soon as it is computed, so a\n\
     killed sweep rerun with the same --store computes only the rest; `sweep\n\
     --shard I/N` covers a deterministic 1/N slice of the grid and\n\
     emits a shard document, and `rchls merge` recombines a complete\n\
     shard set into the byte-identical unsharded document. See\n\
     docs/store.md for the on-disk format and workflows.\n\
     \n\
     global flags: --jobs N sizes the worker pool of the sweep, pareto,\n\
     batch, and serve commands (omitted = one worker per CPU; an explicit\n\
     --jobs 0 is rejected); parallel runs produce byte-identical output\n\
     to serial runs. --cache-budget (synth, sweep, pareto, batch, serve)\n\
     bounds the session caches without changing a byte of output; it\n\
     takes `unlimited` or a byte count with B/KiB/MiB/GiB suffixes.\n"
        .to_owned()
}

/// `rchls workloads` — the registered workload sources and the specs
/// they can name up front.
pub fn workloads() -> String {
    let mut out = String::from("registered workload sources:\n");
    for scheme in rchls_workloads::workload_source_schemes() {
        let source =
            rchls_workloads::workload_source(&scheme).expect("listed schemes are registered");
        let d = source.description();
        if d.is_empty() {
            let _ = writeln!(out, "\n  {scheme}:");
        } else {
            let _ = writeln!(out, "\n  {scheme:<8} {d}");
        }
        for spec in source.known_specs() {
            match rchls_workloads::load_workload(&spec) {
                Ok(w) => {
                    let _ = writeln!(
                        out,
                        "    {spec:<20} {:>3} ops ({} adder-class, {} multiplier-class), depth {}",
                        w.dfg.node_count(),
                        w.dfg.count_class(rchls_dfg::OpClass::Adder),
                        w.dfg.count_class(rchls_dfg::OpClass::Multiplier),
                        w.dfg.depth().expect("known workloads are acyclic")
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, "    {spec:<20} (unloadable: {e})");
                }
            }
        }
    }
    out.push_str(
        "\nout-of-tree crates add schemes via \
         rchls_workloads::register_workload_source (see the crate docs).\n",
    );
    out
}

/// `rchls list` — the built-in benchmarks.
pub fn list() -> String {
    let mut out = String::from("built-in benchmark DFGs:\n");
    for (name, ctor) in rchls_workloads::all_benchmarks() {
        let g = ctor();
        let _ = writeln!(
            out,
            "  {name:<10} {:>3} ops ({} adder-class, {} multiplier-class), depth {}",
            g.node_count(),
            g.count_class(rchls_dfg::OpClass::Adder),
            g.count_class(rchls_dfg::OpClass::Multiplier),
            g.depth().expect("builtin graphs are acyclic")
        );
    }
    out
}

/// `rchls flows` — the registered strategies and passes.
pub fn flows() -> String {
    let mut out = String::from("registered synthesis flows:\n");
    let section = |title: &str, ids: Vec<String>, describe: &dyn Fn(&str) -> String| {
        let mut s = format!("\n{title}:\n");
        for id in ids {
            let d = describe(&id);
            if d.is_empty() {
                let _ = writeln!(s, "  {id}");
            } else {
                let _ = writeln!(s, "  {id:<22} {d}");
            }
        }
        s
    };
    out.push_str(&section("strategies", flow::strategy_ids(), &|id| {
        flow::strategy(id).map_or_else(String::new, |s| s.description().to_owned())
    }));
    out.push_str(&section("schedulers", flow::scheduler_ids(), &|id| {
        flow::scheduler(id).map_or_else(String::new, |s| s.description().to_owned())
    }));
    out.push_str(&section("binders", flow::binder_ids(), &|id| {
        flow::binder(id).map_or_else(String::new, |s| s.description().to_owned())
    }));
    out.push_str(&section(
        "victim policies",
        flow::victim_policy_ids(),
        &|id| flow::victim_policy(id).map_or_else(String::new, |s| s.description().to_owned()),
    ));
    out.push_str(&section("refine passes", flow::refine_pass_ids(), &|id| {
        flow::refine_pass(id).map_or_else(String::new, |s| s.description().to_owned())
    }));
    out.push_str(
        "\nout-of-tree crates extend every list via \
         rchls_core::flow::register_* (see the crate docs).\n",
    );
    out
}

/// Resolves `--library` (a file in the textual library format, defaulting
/// to the paper's Table 1) and applies the optional `--mission-time`
/// derating.
fn load_library(args: &ParsedArgs) -> Result<Library, CliError> {
    let base = match args.get("library") {
        Some(path) => {
            let text = std::fs::read_to_string(path)?;
            rchls_reslib::parse_library(&text).map_err(|e| CliError::BadValue {
                flag: "library".to_owned(),
                reason: e.to_string(),
            })?
        }
        None => Library::table1(),
    };
    match args.get("mission-time") {
        Some(t) => {
            let t: f64 = t.parse().map_err(|_| CliError::BadValue {
                flag: "mission-time".to_owned(),
                reason: format!("{t:?} is not a number"),
            })?;
            if !(t.is_finite() && t > 0.0) {
                return Err(CliError::BadValue {
                    flag: "mission-time".to_owned(),
                    reason: "must be positive and finite".to_owned(),
                });
            }
            Ok(base.at_mission_time(t))
        }
        None => Ok(base),
    }
}

/// The workload spec of a command: `--workload SPEC` (the source
/// registry's spec grammar) or the legacy `--dfg <name|file>` alias,
/// which desugars to `builtin:`/`file:` specs — so every entry point
/// resolves through the registry.
fn workload_spec_arg(args: &ParsedArgs) -> Result<String, CliError> {
    match (args.get("workload"), args.get("dfg")) {
        (Some(_), Some(_)) => Err(CliError::BadFlag(
            "--workload and --dfg are mutually exclusive".to_owned(),
        )),
        (Some(w), None) => Ok(w.to_owned()),
        (None, Some(d)) => legacy_dfg_spec(d),
        (None, None) => Err(CliError::MissingFlag("workload")),
    }
}

/// Desugars a legacy `--dfg` value: an explicit `scheme:` spec passes
/// through, a benchmark name becomes `builtin:`, an existing path
/// becomes `file:`.
fn legacy_dfg_spec(value: &str) -> Result<String, CliError> {
    // Pass explicit specs through — but only for registered schemes, so
    // file paths that happen to contain `:` keep loading as paths.
    if let Some((scheme, _)) = value.split_once(':') {
        if rchls_workloads::workload_source(scheme).is_some() {
            return Ok(value.to_owned());
        }
    }
    if rchls_workloads::all_benchmarks()
        .iter()
        .any(|(name, _)| *name == value)
    {
        return Ok(format!("builtin:{value}"));
    }
    if std::path::Path::new(value).exists() {
        return Ok(format!("file:{value}"));
    }
    Err(CliError::UnknownDfg(value.to_owned()))
}

/// Builds the flow spec from the `--scheduler/--binder/--victim/--refine`
/// flags (registry ids; missing flags keep the defaults) and validates it
/// against the registry.
fn flow_from_args(args: &ParsedArgs) -> Result<FlowSpec, CliError> {
    let mut spec = FlowSpec::default();
    if let Some(id) = args.get("scheduler") {
        spec = spec.with_scheduler(id);
    }
    if let Some(id) = args.get("binder") {
        spec = spec.with_binder(id);
    }
    if let Some(id) = args.get("victim") {
        spec = spec.with_victim(id);
    }
    if let Some(id) = args.get("refine") {
        spec = spec.with_refine(id);
    }
    spec.resolve().map_err(CliError::Synthesis)?;
    Ok(spec)
}

/// Resolves `--latency`/`--area` for `rchls synth`. A missing flag
/// defaults to the loosest corner of the default exploration grid —
/// always feasible — so trace-oriented invocations (`synth --workload
/// random:64x8@0 --trace trace.json`) work without hand-picked bounds.
fn synth_bounds(
    args: &ParsedArgs,
    dfg: &rchls_dfg::Dfg,
    library: &Library,
) -> Result<Bounds, CliError> {
    let loosest = |pick: fn(&(u32, u32)) -> u32| -> Result<u32, CliError> {
        let grid =
            rchls_explorer::default_grid(dfg, library).ok_or_else(|| CliError::BadValue {
                flag: "library".to_owned(),
                reason: format!(
                    "has no version for one of {}'s operation classes",
                    dfg.name()
                ),
            })?;
        Ok(grid.iter().map(pick).max().unwrap_or(1))
    };
    let latency = match args.get("latency") {
        Some(_) => args.required_u32("latency")?,
        None => loosest(|&(l, _)| l)?,
    };
    let area = match args.get("area") {
        Some(_) => args.required_u32("area")?,
        None => loosest(|&(_, a)| a)?,
    };
    Ok(Bounds::new(latency, area))
}

/// The session cache facts of one CLI run as a JSON map: hit/miss
/// counters plus resident table sizes for the synthesis, start-pool, and
/// allocation-design caches.
fn session_caches_value(engine: &Engine) -> serde::Value {
    let table = |stats: TableStats, size_key: &str| {
        serde::Value::Map(vec![
            (
                serde::Value::Str("hits".to_owned()),
                serde::Value::UInt(stats.lookups.hits),
            ),
            (
                serde::Value::Str("misses".to_owned()),
                serde::Value::UInt(stats.lookups.misses),
            ),
            (
                serde::Value::Str(size_key.to_owned()),
                serde::Value::UInt(stats.len as u64),
            ),
        ])
    };
    let cache = engine.cache();
    let starts = cache.starts_cache();
    serde::Value::Map(vec![
        (
            serde::Value::Str("synth_cache".to_owned()),
            table(cache.stats(), "points"),
        ),
        (
            serde::Value::Str("starts_cache".to_owned()),
            table(starts.stats(), "pools"),
        ),
        (
            serde::Value::Str("alloc_cache".to_owned()),
            table(starts.alloc_stats(), "designs"),
        ),
    ])
}

/// `rchls synth`: one job through the session [`Engine`].
pub fn synth(args: &ParsedArgs) -> Result<String, CliError> {
    let _faults = faults_arg(args)?;
    let engine = session_engine(args)?;
    let workload = engine.workload(&workload_spec_arg(args)?)?;
    let bounds = synth_bounds(args, &workload.dfg, engine.library())?;
    let mut flow_spec = flow_from_args(args)?;
    let requested = args.get("strategy").unwrap_or("ours");
    // `paper` is shorthand for the strict Figure-6 flow: `ours` with the
    // refine pass off (an explicit --refine flag still wins).
    let strategy_id = if requested == "paper" {
        if args.get("refine").is_none() {
            flow_spec = flow_spec.with_refine("off");
        }
        "ours"
    } else {
        requested
    };
    let (strategy, header) = match args.get("ii") {
        Some(_) => {
            let ii = args.required_u32("ii")?;
            if !matches!(strategy_id, "ours" | "pipelined") {
                return Err(CliError::BadValue {
                    flag: "ii".to_owned(),
                    reason: format!("only applies to the pipelined flow, not {requested:?}"),
                });
            }
            if ii == 0 {
                return Err(CliError::BadValue {
                    flag: "ii".to_owned(),
                    reason: "initiation interval must be positive".to_owned(),
                });
            }
            (
                format!("pipelined@ii={ii}"),
                format!("pipelined design ({bounds}, II={ii}):\n"),
            )
        }
        None => {
            if flow::strategy(strategy_id).is_none() {
                return Err(CliError::BadValue {
                    flag: "strategy".to_owned(),
                    reason: format!(
                        "{requested:?} is not a registered strategy (see `rchls flows`)"
                    ),
                });
            }
            (
                strategy_id.to_owned(),
                format!("{requested} design under {bounds}:\n"),
            )
        }
    };
    // Validate the output format before spending time on synthesis.
    let report_json = match args.get("report") {
        Some("json") => true,
        Some(other) => {
            return Err(CliError::BadValue {
                flag: "report".to_owned(),
                reason: format!("{other:?} (expected json)"),
            })
        }
        None => false,
    };
    // `--trace` records this run's spans as a Chrome trace-event file:
    // install the sink for the duration of the synthesis, then write.
    let trace = match args.get("trace") {
        Some(path) => {
            let sink = Arc::new(rchls_telemetry::ChromeTraceSink::new());
            rchls_telemetry::register_sink(sink.clone()).map_err(|e| CliError::BadValue {
                flag: "trace".to_owned(),
                reason: e.to_string(),
            })?;
            Some((path, sink))
        }
        None => None,
    };
    let job = SynthJob::new(workload.spec.clone(), bounds.latency, bounds.area)
        .with_strategy(strategy)
        .with_flow(flow_spec);
    let result = engine.synth(&job);
    if let Some((path, sink)) = trace {
        let _ = rchls_telemetry::unregister_sink("chrome-trace");
        // A failed run's trace is written too: it is the one most worth
        // reading.
        sink.write_to(std::path::Path::new(path))?;
    }
    let report = result?;
    if report_json {
        // Prepend the canonical workload spec (random seeds echoed) so
        // the report alone reproduces the run.
        let serde::Value::Map(mut entries) = serde::Serialize::to_value(&report) else {
            unreachable!("reports serialize as maps")
        };
        entries.insert(
            0,
            (
                serde::Value::Str("workload".to_owned()),
                serde::Value::Str(workload.spec),
            ),
        );
        // The run's cache facts ride along so unbounded session growth
        // is visible from the report alone.
        entries.push((
            serde::Value::Str("session".to_owned()),
            session_caches_value(&engine),
        ));
        let doc = serde::Value::Map(entries);
        return Ok(serde_json::to_string_pretty(&doc).expect("reports serialize") + "\n");
    }
    let mut out = header;
    out.push_str(&report.design.render(&workload.dfg, engine.library()));
    let d = &report.diagnostics;
    let _ = writeln!(
        out,
        "diagnostics: {} victim moves, {} rejected, {} loop iterations, \
         {} refine upgrades, {} redundancy moves ({} us)",
        d.victim_moves,
        d.rejected_moves,
        d.loop_iterations,
        d.refine_upgrades,
        d.redundancy_moves,
        d.wall_time_micros
    );
    Ok(out)
}

/// Resolves the global `--jobs` flag: absent means one worker per CPU,
/// but an *explicit* `--jobs 0` is rejected — a worker pool of zero
/// would silently mean "auto", which has burned scripted callers.
fn jobs_arg(args: &ParsedArgs) -> Result<usize, CliError> {
    let jobs = args.u32_or("jobs", 0)? as usize;
    if jobs == 0 && args.get("jobs").is_some() {
        return Err(CliError::BadValue {
            flag: "jobs".to_owned(),
            reason: "worker count must be positive (omit --jobs for one worker per CPU)".to_owned(),
        });
    }
    Ok(jobs)
}

/// Resolves the `--cache-budget` flag (absent = unlimited, the
/// historical behavior). Eviction under a budget never changes outputs.
fn cache_budget_arg(args: &ParsedArgs) -> Result<CacheBudget, CliError> {
    match args.get("cache-budget") {
        Some(spec) => CacheBudget::parse(spec).map_err(|reason| CliError::BadValue {
            flag: "cache-budget".to_owned(),
            reason,
        }),
        None => Ok(CacheBudget::UNLIMITED),
    }
}

/// The session engine of `synth`, `sweep`, `pareto` and `batch`:
/// `--library` (with `--mission-time`), `--jobs`, `--cache-budget` and,
/// when given, `--store`.
fn session_engine(args: &ParsedArgs) -> Result<Engine, CliError> {
    let engine = Engine::new(load_library(args)?)
        .with_jobs(jobs_arg(args)?)
        .with_cache_budget(cache_budget_arg(args)?);
    Ok(match store_arg(args)? {
        Some(store) => engine.with_store(store),
        None => engine,
    })
}

/// Resolves the optional `--store DIR` flag into an opened persistent
/// result store (creating the directory layout on first use).
fn store_arg(args: &ParsedArgs) -> Result<Option<Arc<ResultStore>>, CliError> {
    match args.get("store") {
        Some(dir) => Ok(Some(Arc::new(
            ResultStore::open(dir).map_err(|e| CliError::Store(e.to_string()))?,
        ))),
        None => Ok(None),
    }
}

/// The `--store DIR` flag where the store is the point of the command.
fn required_store(args: &ParsedArgs) -> Result<Arc<ResultStore>, CliError> {
    store_arg(args)?.ok_or(CliError::MissingFlag("store"))
}

/// An armed fault plan, disarmed when the command returns (the fault
/// plane is process-global; a command must never leave it armed for
/// whatever runs next in the same process, e.g. another test).
pub(crate) struct FaultGuard;

impl FaultGuard {
    /// Arms `plan` for the lifetime of the guard.
    pub(crate) fn arm(plan: rchls_chaos::FaultPlan) -> Result<FaultGuard, String> {
        rchls_chaos::arm(plan).map_err(|e| e.to_string())?;
        Ok(FaultGuard)
    }

    /// Disarms and returns the per-point hit/fire tallies.
    pub(crate) fn finish(self) -> Option<rchls_chaos::ChaosReport> {
        let report = rchls_chaos::disarm();
        std::mem::forget(self);
        report
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        let _ = rchls_chaos::disarm();
    }
}

/// The `--faults FILE` flag, parse-only: validates the plan without
/// arming it (also used by `serve --check`).
fn parsed_faults(args: &ParsedArgs) -> Result<Option<rchls_chaos::FaultPlan>, CliError> {
    let Some(path) = args.get("faults") else {
        return Ok(None);
    };
    let text = std::fs::read_to_string(path)?;
    rchls_chaos::FaultPlan::parse(&text)
        .map(Some)
        .map_err(|e| CliError::BadValue {
            flag: "faults".to_owned(),
            reason: format!("{path}: {e}"),
        })
}

/// The `--faults FILE` flag (synth, sweep, batch, serve): parses and
/// arms a fault plan for the duration of the command.
fn faults_arg(args: &ParsedArgs) -> Result<Option<FaultGuard>, CliError> {
    match parsed_faults(args)? {
        None => Ok(None),
        Some(plan) => FaultGuard::arm(plan)
            .map(Some)
            .map_err(|reason| CliError::BadValue {
                flag: "faults".to_owned(),
                reason,
            }),
    }
}

/// Parses `--shard I/N` (shard index out of shard count).
fn shard_arg(args: &ParsedArgs) -> Result<Option<(u32, u32)>, CliError> {
    let Some(raw) = args.get("shard") else {
        return Ok(None);
    };
    let bad = |reason: String| CliError::BadValue {
        flag: "shard".to_owned(),
        reason,
    };
    let (index, count) = raw
        .split_once('/')
        .ok_or_else(|| bad(format!("{raw:?} (expected I/N, e.g. 0/4)")))?;
    let parse = |part: &str| {
        part.trim()
            .parse::<u32>()
            .map_err(|_| bad(format!("{part:?} is not an unsigned integer")))
    };
    let (index, count) = (parse(index)?, parse(count)?);
    if count == 0 {
        return Err(bad("shard count must be positive".to_owned()));
    }
    if index >= count {
        return Err(bad(format!(
            "shard index {index} out of range for {count} shards (indices run 0..{count})"
        )));
    }
    Ok(Some((index, count)))
}

/// The `--format` of `sweep`, `merge` and `pareto`, parsed before any
/// synthesis so a bad value costs nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Table,
    Json,
    Csv,
}

/// Parses `--format` (absent = `default`).
fn format_arg(args: &ParsedArgs, default: Format) -> Result<Format, CliError> {
    match args.get("format") {
        None => Ok(default),
        Some("table") => Ok(Format::Table),
        Some("json") => Ok(Format::Json),
        Some("csv") => Ok(Format::Csv),
        Some(other) => Err(CliError::BadValue {
            flag: "format".to_owned(),
            reason: format!("{other:?} (expected table|json|csv)"),
        }),
    }
}

/// The one-benchmark sweep document of `sweep` and `merge`: the Table-2
/// rows, or (json) the rows with per-strategy diagnostics plus the
/// frontier.
fn render_sweep(exploration: &Exploration, format: Format) -> String {
    let rows = &exploration.sweeps[0].rows;
    match format {
        Format::Table => format_table(rows),
        Format::Json => export::exploration_json(exploration) + "\n",
        Format::Csv => export::rows_csv(rows),
    }
}

/// `rchls sweep`: the full grid, or with `--shard I/N` one shard of it.
pub fn sweep(args: &ParsedArgs) -> Result<String, CliError> {
    let _faults = faults_arg(args)?;
    let spec = workload_spec_arg(args)?;
    let shard = shard_arg(args)?;
    let default = if shard.is_some() {
        Format::Json
    } else {
        Format::Table
    };
    let format = format_arg(args, default)?;
    if shard.is_some() && format != Format::Json {
        return Err(CliError::BadValue {
            flag: "format".to_owned(),
            reason: format!(
                "{:?} (a shard is always a json document for `rchls merge`)",
                args.get("format").unwrap_or_default()
            ),
        });
    }
    let engine = session_engine(args)?;
    let flow_spec = flow_from_args(args)?;
    let latencies = args.required_u32_list("latencies")?;
    let areas = args.required_u32_list("areas")?;
    let grid: Vec<(u32, u32)> = latencies
        .iter()
        .flat_map(|&l| areas.iter().map(move |&a| (l, a)))
        .collect();
    let model = RedundancyModel::default();
    let task = ExploreTask::new(spec, grid);
    // `--shard I/N`: cover a deterministic 1/N slice of the grid and
    // emit the shard document for a later `rchls merge`.
    if let Some((index, count)) = shard {
        let shard = explore_shard(&engine, &task, &flow_spec, model, index, count)?;
        return Ok(export::shard_json(&shard) + "\n");
    }
    let exploration = explore(&engine, std::slice::from_ref(&task), &flow_spec, model)?;
    Ok(render_sweep(&exploration, format))
}

/// `rchls merge` — recombine a complete set of `sweep --shard` documents
/// into the exploration document the unsharded sweep would have emitted.
pub fn merge(args: &ParsedArgs, inputs: &[String]) -> Result<String, CliError> {
    let format = format_arg(args, Format::Table)?;
    if inputs.is_empty() {
        return Err(CliError::BadFlag(
            "merge needs shard document paths (rchls merge shard0.json shard1.json ...)".to_owned(),
        ));
    }
    let shards: Vec<rchls_explorer::SweepShard> = inputs
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path)?;
            export::shard_from_json(&text)
                .map_err(|e| CliError::Store(format!("merge: {path}: not a shard document ({e})")))
        })
        .collect::<Result<_, _>>()?;
    let exploration = rchls_explorer::merge(&shards).map_err(|e| CliError::Store(e.to_string()))?;
    Ok(render_sweep(&exploration, format))
}

/// `rchls pareto` — explore a benchmark's design space and print the
/// Pareto frontier over achieved `(latency, area, reliability)`.
pub fn pareto(args: &ParsedArgs) -> Result<String, CliError> {
    let spec = workload_spec_arg(args)?;
    let format = format_arg(args, Format::Table)?;
    let engine = session_engine(args)?;
    let dfg = engine.workload(&spec)?.dfg;
    let flow_spec = flow_from_args(args)?;
    let grid: Vec<(u32, u32)> = match (args.get("latencies"), args.get("areas")) {
        (None, None) => rchls_explorer::default_grid(&dfg, engine.library()).ok_or_else(|| {
            CliError::BadValue {
                flag: "library".to_owned(),
                reason: format!(
                    "has no version for one of {}'s operation classes",
                    dfg.name()
                ),
            }
        })?,
        _ => {
            let latencies = args.required_u32_list("latencies")?;
            let areas = args.required_u32_list("areas")?;
            latencies
                .iter()
                .flat_map(|&l| areas.iter().map(move |&a| (l, a)))
                .collect()
        }
    };
    let points = grid.len();
    let tasks = [ExploreTask::new(spec, grid)];
    let exploration = explore(&engine, &tasks, &flow_spec, RedundancyModel::default())?;
    match format {
        // Machine-consumable: frontier plus diagnostics-carrying sweep
        // rows, as one JSON document.
        Format::Json => Ok(export::exploration_json(&exploration) + "\n"),
        Format::Csv => Ok(export::frontier_csv(&exploration.frontier)),
        Format::Table => {
            let mut out = format!(
                "Pareto frontier of {} over {points} bound points ({} synthesis runs):\n\n",
                dfg.name(),
                engine.cache_stats().misses,
            );
            out.push_str(&export::frontier_table(&exploration.frontier));
            if let Some(best) = exploration.frontier.most_reliable() {
                let _ = writeln!(
                    out,
                    "\nbest reliability {:.5} ({} at Ld={}, Ad={})",
                    best.reliability, best.strategy, best.latency_bound, best.area_bound
                );
            }
            Ok(out)
        }
    }
}

/// `rchls dot`.
pub fn dot(args: &ParsedArgs) -> Result<String, CliError> {
    let workload = rchls_workloads::load_workload(&workload_spec_arg(args)?)?;
    Ok(workload.dfg.to_dot())
}

/// `rchls batch` — run a JSON job file through the session [`Engine`]
/// and emit the deterministic, diagnostics-carrying outcome document.
pub fn batch(args: &ParsedArgs) -> Result<String, CliError> {
    // Flag validation comes before any filesystem work so a bad
    // `--jobs`/`--cache-budget` reports itself even for a missing file.
    jobs_arg(args)?;
    cache_budget_arg(args)?;
    let _faults = faults_arg(args)?;
    let path = args.required("file")?;
    let text = std::fs::read_to_string(path)?;
    let jobs: Vec<SynthJob> = serde_json::from_str(&text).map_err(|e| CliError::BadValue {
        flag: "file".to_owned(),
        reason: format!("{path}: {e}"),
    })?;
    let report = session_engine(args)?.run_batch(&jobs);
    Ok(serde_json::to_string_pretty(&report).expect("batch reports serialize") + "\n")
}

/// `rchls metrics` — reset the process-global telemetry registry, run a
/// pinned demo batch twice (cold, then warm) through a session
/// [`Engine`], and print one deterministic-ordered JSON document: the
/// session cache hit rates plus the metrics snapshot (counters and phase
/// latency percentiles). With `--validate FILE`, instead schema-check an
/// exported snapshot document (bare or wrapped under a `"metrics"` key)
/// and report the result — the CI artifact check.
pub fn metrics(args: &ParsedArgs) -> Result<String, CliError> {
    if let Some(path) = args.get("validate") {
        let text = std::fs::read_to_string(path)?;
        let doc: serde::Value = serde_json::from_str(&text).map_err(|e| CliError::BadValue {
            flag: "validate".to_owned(),
            reason: format!("{path}: {e}"),
        })?;
        let snapshot = doc
            .as_map()
            .and_then(|entries| {
                entries.iter().find_map(|(k, v)| match k {
                    serde::Value::Str(s) if s == "metrics" => Some(v),
                    _ => None,
                })
            })
            .unwrap_or(&doc);
        rchls_telemetry::metrics::validate_snapshot(snapshot).map_err(|e| CliError::BadValue {
            flag: "validate".to_owned(),
            reason: format!("{path}: {e}"),
        })?;
        return Ok(format!(
            "{path}: valid metrics snapshot (schema_version {})\n",
            rchls_telemetry::metrics::METRICS_SCHEMA_VERSION
        ));
    }
    rchls_telemetry::metrics::reset();
    let engine = Engine::new(load_library(args)?).with_jobs(jobs_arg(args)?);
    // The cold run misses every key exactly once and the warm run hits
    // every one, at any worker count.
    let jobs: Vec<SynthJob> = [
        ("builtin:figure4a", 6, 4),
        ("builtin:diffeq", 6, 11),
        ("random:24x4@1", 14, 14),
        ("random:24x4@2", 14, 14),
    ]
    .into_iter()
    .map(|(w, l, a)| SynthJob::new(w, l, a))
    .collect();
    for _ in 0..2 {
        let _ = engine.synth_batch(&jobs);
    }
    let key = |k: &str| serde::Value::Str(k.to_owned());
    let session_table = |stats: TableStats, size_key: &str| {
        serde::Value::Map(vec![
            (key("hits"), serde::Value::UInt(stats.lookups.hits)),
            (key("misses"), serde::Value::UInt(stats.lookups.misses)),
            (
                key("hit_rate"),
                serde::Value::Float(stats.lookups.hit_rate()),
            ),
            (key(size_key), serde::Value::UInt(stats.seen as u64)),
        ])
    };
    let cache = engine.cache();
    let starts = cache.starts_cache();
    let doc = serde::Value::Map(vec![
        (
            key("demo"),
            serde::Value::Map(vec![
                (key("jobs"), serde::Value::UInt(jobs.len() as u64)),
                (key("runs"), serde::Value::UInt(2)),
            ]),
        ),
        (
            key("session"),
            serde::Value::Map(vec![
                (key("synth_cache"), session_table(cache.stats(), "points")),
                (key("starts_cache"), session_table(starts.stats(), "pools")),
                (
                    key("alloc_cache"),
                    session_table(starts.alloc_stats(), "designs"),
                ),
            ]),
        ),
        (key("metrics"), rchls_telemetry::metrics::snapshot()),
    ]);
    Ok(serde_json::to_string_pretty(&doc).expect("metrics documents serialize") + "\n")
}

/// `rchls serve` — run the session engine as a long-lived daemon
/// speaking the line-delimited JSON protocol over TCP. With `check`
/// (the `--check` flag), validate everything and print the effective
/// configuration without binding a socket.
pub fn serve(args: &ParsedArgs, check: bool) -> Result<String, CliError> {
    let config = rchls_serve::ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7411").to_owned(),
        jobs: jobs_arg(args)?,
        queue_depth: args.u32_or("queue-depth", 64)? as usize,
        cache_budget: cache_budget_arg(args)?,
        store: args.get("store").map(str::to_owned),
        max_conns: args.u32_or("max-conns", 256)? as usize,
        read_timeout_ms: args.u64_or("read-timeout-ms", 30_000)?,
        write_timeout_ms: args.u64_or("write-timeout-ms", 30_000)?,
        drain_timeout_ms: args.u64_or("drain-timeout-ms", 5_000)?,
    };
    config.validate().map_err(|reason| {
        // The validation messages name their own flag; attribute the
        // error to the one they mention (default: the address).
        let flag = [
            "queue-depth",
            "max-conns",
            "read-timeout-ms",
            "write-timeout-ms",
        ]
        .into_iter()
        .find(|f| reason.contains(f))
        .unwrap_or("addr");
        CliError::BadValue {
            flag: flag.to_owned(),
            reason,
        }
    })?;
    let library = load_library(args)?;
    if check {
        // Dry-run validates a `--faults` plan too, without arming it.
        let faults = parsed_faults(args)?;
        let mut out = config.render(&library);
        if let Some(plan) = faults {
            out.push_str(&format!(
                "  faults        {} rule(s), armed for the daemon's lifetime\n",
                plan.rules.len()
            ));
        }
        return Ok(out);
    }
    let _faults = faults_arg(args)?;
    // `--trace` brackets every served request with spans; the trace
    // file is written once the daemon shuts down.
    let trace_path = args.get("trace").map(str::to_owned);
    let trace_sink = match &trace_path {
        Some(_) => {
            let sink = Arc::new(rchls_telemetry::ChromeTraceSink::new());
            rchls_telemetry::register_sink(sink.clone()).map_err(|e| CliError::BadValue {
                flag: "trace".to_owned(),
                reason: e.to_string(),
            })?;
            Some(sink)
        }
        None => None,
    };
    let handle = rchls_serve::Server::start(config, library)?;
    // The payload string is only printed at exit; announce the bound
    // address on stderr so clients know where to connect now.
    eprintln!(
        "rchls serve: listening on {} (stop with `rchls request shutdown --addr {}`)",
        handle.addr(),
        handle.addr()
    );
    let addr = handle.addr();
    handle.join();
    if trace_sink.is_some() {
        let _ = rchls_telemetry::unregister_sink("chrome-trace");
    }
    if let (Some(path), Some(sink)) = (&trace_path, &trace_sink) {
        sink.write_to(std::path::Path::new(path))?;
    }
    Ok(format!("rchls serve: {addr} shut down cleanly\n"))
}

/// `rchls request` — send one method call to a running daemon and
/// print the response document (params read from `--json FILE`).
/// Server-side failures still print as a document (`"ok": false` with a
/// structured error); only transport problems are CLI errors.
pub fn request(args: &ParsedArgs) -> Result<String, CliError> {
    let method = args.required("method")?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7411");
    let params: Option<serde::Value> = match args.get("json") {
        Some(path) => {
            let text = std::fs::read_to_string(path)?;
            Some(serde_json::from_str(&text).map_err(|e| CliError::BadValue {
                flag: "json".to_owned(),
                reason: format!("{path}: {e}"),
            })?)
        }
        None => None,
    };
    let deadline_ms = match args.get("deadline-ms") {
        Some(_) => Some(args.u64_or("deadline-ms", 0)?),
        None => None,
    };
    let retries = args.u32_or("retries", 0)?;
    let mut client = rchls_serve::Client::connect(addr)?;
    let doc = client.call_with_retries(method, params.as_ref(), deadline_ms, retries)?;
    Ok(serde_json::to_string_pretty(&doc).expect("responses serialize") + "\n")
}

/// `rchls characterize`.
pub fn characterize(args: &ParsedArgs) -> Result<String, CliError> {
    let width = args.u32_or("width", 16)? as usize;
    let trials = args.u32_or("trials", 10_000)? as usize;
    let seed = args.u64_or("seed", 2005)?;
    let components = vec![
        generators::ripple_carry_adder(width),
        generators::brent_kung_adder(width),
        generators::kogge_stone_adder(width),
        generators::carry_save_multiplier((width / 2).max(1)),
        generators::leapfrog_multiplier((width / 2).max(1)),
    ];
    let mut injector = FaultInjector::new(seed);
    let mut out = format!(
        "gate-level SEU characterization ({trials} faults per component, seed {seed}):\n\
         {:<8} {:>6} {:>16} {:>14}\n",
        "netlist", "gates", "susceptibility", "masking rate"
    );
    for c in &components {
        let rep = injector.characterize(c, trials);
        let _ = writeln!(
            out,
            "{:<8} {:>6} {:>16.4} {:>14.4}",
            rep.component,
            rep.gate_count,
            rep.susceptibility,
            rep.masking_rate()
        );
    }
    Ok(out)
}

/// `rchls store <action>` — inspect and maintain a persistent result
/// store: `stats` counts its contents, `gc` evicts by age and/or size,
/// `verify` re-synthesizes entries from their provenance and flags
/// drift.
pub fn store(args: &ParsedArgs) -> Result<String, CliError> {
    let action = args.required("action")?;
    let store = required_store(args)?;
    match action {
        "stats" => {
            let s = store.stats();
            Ok(format!(
                "result store {}:\n  objects      {}\n  object bytes {}\n  quarantined  {}\n",
                store.root().display(),
                s.objects,
                s.object_bytes,
                s.quarantined
            ))
        }
        "gc" => {
            let max_age = match args.get("max-age-days") {
                Some(_) => Some(rchls_store::days(args.u64_or("max-age-days", 0)?)),
                None => None,
            };
            let max_bytes = match args.get("max-bytes") {
                Some(spec) => CacheBudget::parse(spec)
                    .map_err(|reason| CliError::BadValue {
                        flag: "max-bytes".to_owned(),
                        reason,
                    })?
                    .total_bytes(),
                None => None,
            };
            if max_age.is_none() && max_bytes.is_none() {
                return Err(CliError::Store(
                    "store gc needs --max-age-days and/or --max-bytes".to_owned(),
                ));
            }
            let report = store.gc(GcPolicy { max_age, max_bytes });
            Ok(format!(
                "store gc {}:\n  examined {}\n  evicted  {} ({} bytes)\n  kept     {} bytes live\n",
                store.root().display(),
                report.examined,
                report.evicted,
                report.evicted_bytes,
                report.kept_bytes
            ))
        }
        "verify" => verify_store(args, &store),
        other => Err(CliError::BadValue {
            flag: "action".to_owned(),
            reason: format!("{other:?} (expected stats|gc|verify)"),
        }),
    }
}

/// `rchls store verify` — walk the store (up to `--sample N` entries,
/// sorted by fingerprint), re-derive each entry's cache key from its
/// provenance, re-synthesize, and compare. Reports, per entry:
///
/// * `ok`           — the key matches and re-synthesis reproduces the
///   stored report byte-for-byte;
/// * `DRIFT`        — re-synthesis disagrees with the stored report (an
///   engine change since the entry was written); the command errors;
/// * `key-mismatch` — the provenance no longer reproduces the entry's
///   fingerprint (typically a different `--library` than the writer's);
/// * `unverifiable` — no provenance, a strategy token or pass id not
///   registered in this process, or a workload spec that no longer
///   resolves.
///
/// Re-synthesis runs on one storeless [`Engine`] (the store under test
/// must not answer for itself), so each workload is resolved once.
fn verify_store(args: &ParsedArgs, store: &ResultStore) -> Result<String, CliError> {
    use rchls_core::engine::store_tier;

    let engine = Engine::new(load_library(args)?);
    let keys = store.keys();
    let total = keys.len();
    let checked: Vec<u64> = match args.get("sample") {
        Some(_) => {
            let n = args.required_u32("sample")? as usize;
            if n == 0 {
                return Err(CliError::BadValue {
                    flag: "sample".to_owned(),
                    reason: "sample size must be positive (omit --sample to check everything)"
                        .to_owned(),
                });
            }
            keys.into_iter().take(n).collect()
        }
        None => keys,
    };
    let mut out = format!(
        "store verify {}: {} entries, checking {}\n",
        store.root().display(),
        total,
        checked.len()
    );
    let (mut ok, mut drift, mut mismatch, mut unverifiable, mut quarantined) = (0, 0, 0, 0, 0);
    for key in checked {
        let verdict = match store.load(key) {
            // Deleted between the walk and the probe; nothing to say.
            Lookup::Miss => continue,
            Lookup::Quarantined => Verdict::Quarantined,
            Lookup::Hit(payload) => match store_tier::decode_entry(&payload) {
                Err(e) => Verdict::Unverifiable(format!("payload does not decode ({e})")),
                Ok(entry) => verify_entry(&engine, key, &entry),
            },
        };
        let line = match verdict {
            Verdict::Ok => {
                ok += 1;
                continue;
            }
            Verdict::Drift(reason) => {
                drift += 1;
                format!("DRIFT: {reason}")
            }
            Verdict::KeyMismatch => {
                mismatch += 1;
                "key-mismatch: provenance does not reproduce the fingerprint \
                 (written under a different library?)"
                    .to_owned()
            }
            Verdict::Unverifiable(reason) => {
                unverifiable += 1;
                format!("unverifiable: {reason}")
            }
            Verdict::Quarantined => {
                quarantined += 1;
                "quarantined: envelope failed validation".to_owned()
            }
        };
        let _ = writeln!(out, "  {key:016x} {line}");
    }
    let _ = writeln!(
        out,
        "summary: {ok} ok, {drift} drifted, {mismatch} key-mismatched, \
         {unverifiable} unverifiable, {quarantined} quarantined"
    );
    if drift > 0 {
        return Err(CliError::Store(out));
    }
    Ok(out)
}

/// What `rchls store verify` concluded about one entry.
enum Verdict {
    Ok,
    Drift(String),
    KeyMismatch,
    Unverifiable(String),
    Quarantined,
}

/// Re-derives one entry's key from its provenance and, when it matches,
/// re-synthesizes the entry as a job named by its stored strategy token
/// and compares the result with what the store remembers.
fn verify_entry(engine: &Engine, key: u64, entry: &StoredEntry) -> Verdict {
    let Some(provenance) = &entry.provenance else {
        return Verdict::Unverifiable("entry carries no provenance".to_owned());
    };
    let workload = match engine.workload(&provenance.workload) {
        Ok(workload) => workload,
        Err(e) => {
            return Verdict::Unverifiable(format!("workload {:?} ({e})", provenance.workload))
        }
    };
    let derived = CacheKey::for_point(
        &workload.dfg,
        engine.library(),
        entry.bounds,
        &provenance.flow,
        provenance.model,
        &entry.strategy,
    );
    if derived.raw() != key {
        return Verdict::KeyMismatch;
    }
    let job = SynthJob::new(workload.spec, entry.bounds.latency, entry.bounds.area)
        .with_strategy(entry.strategy.clone())
        .with_flow(provenance.flow.clone())
        .with_redundancy(provenance.model);
    match (engine.synth(&job), &entry.report) {
        (Err(EngineError::UnknownStrategy(token)), _) => {
            Verdict::Unverifiable(format!("strategy token {token:?} is not a registered id"))
        }
        (Err(EngineError::Infeasible { .. }), None) => Verdict::Ok,
        (Err(e @ EngineError::Infeasible { .. }), Some(_)) => Verdict::Drift(format!(
            "stored feasible, but re-synthesis finds no design ({e})"
        )),
        // The stored flow names a pass this process has not registered.
        (Err(e), _) => Verdict::Unverifiable(e.to_string()),
        (Ok(_), None) => {
            Verdict::Drift("stored infeasible, but re-synthesis found a design".to_owned())
        }
        (Ok(fresh), Some(stored)) => {
            if fresh.design != stored.design {
                Verdict::Drift("re-synthesized design differs from the stored one".to_owned())
            } else if fresh.diagnostics.scrubbed() != stored.diagnostics {
                Verdict::Drift("re-synthesized diagnostics differ from the stored ones".to_owned())
            } else {
                Verdict::Ok
            }
        }
    }
}

/// `rchls validate`: synthesizes an `ours` job through an [`Engine`],
/// then checks its analytic reliability by fault injection.
pub fn validate(args: &ParsedArgs) -> Result<String, CliError> {
    let engine = Engine::new(load_library(args)?);
    let workload = engine.workload(&workload_spec_arg(args)?)?;
    let bounds = Bounds::new(args.required_u32("latency")?, args.required_u32("area")?);
    let trials = args.u32_or("trials", 50_000)? as usize;
    let seed = args.u64_or("seed", 1)?;
    let job =
        SynthJob::new(workload.spec, bounds.latency, bounds.area).with_flow(flow_from_args(args)?);
    let design = engine.synth(&job)?.design;
    let empirical = monte_carlo_reliability(&design, &workload.dfg, engine.library(), trials, seed);
    Ok(format!(
        "design under {bounds}:\n  analytic reliability  = {}\n  empirical reliability = {empirical:.5} ({trials} trials, seed {seed})\n  |difference|          = {:.5}\n",
        design.reliability,
        (empirical - design.reliability.value()).abs()
    ))
}
