//! End-to-end tests over the real `rchls` binary: persistent-store
//! byte-identity across cold/warm/corrupted states, killed sweeps rerun
//! over their store, shard/merge recombination, and store maintenance
//! commands.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn rchls(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rchls"))
        .args(args)
        .output()
        .expect("spawn rchls")
}

/// Runs the binary and returns stdout, insisting on a zero exit.
fn ok(args: &[&str]) -> String {
    let out = rchls(args);
    assert!(
        out.status.success(),
        "rchls {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// A fresh scratch directory, unique per test and process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rchls-cli-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The shared small sweep used by the store tests: 6 grid points over
/// figure 4(a), emitted as the deterministic JSON document.
const SWEEP: &[&str] = &[
    "sweep",
    "--workload",
    "builtin:figure4a",
    "--latencies",
    "4,5,6",
    "--areas",
    "4,5",
    "--format",
    "json",
];

fn sweep_with_store(store: &str) -> String {
    let mut args = SWEEP.to_vec();
    args.extend_from_slice(&["--store", store]);
    ok(&args)
}

/// Every regular file below `dir`, depth-first.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return found;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            found.extend(files_under(&path));
        } else {
            found.push(path);
        }
    }
    found
}

#[test]
fn store_cold_warm_and_corrupted_sweeps_are_byte_identical() {
    let dir = scratch("coldwarm");
    let store = dir.join("store");
    let store = store.to_str().unwrap();

    // The storeless run is the reference document.
    let reference = ok(SWEEP);
    assert_eq!(sweep_with_store(store), reference, "cold run differs");

    let stats = ok(&["store", "stats", "--store", store]);
    assert!(
        !stats.contains("objects      0"),
        "cold sweep wrote nothing:\n{stats}"
    );

    // Warm: everything answers from the store, not a byte moves.
    assert_eq!(sweep_with_store(store), reference, "warm run differs");

    // Truncate one stored object. The poisoned entry must be
    // quarantined and re-synthesized — never trusted.
    let objects = files_under(&Path::new(store).join("objects"));
    assert!(!objects.is_empty());
    let victim = &objects[0];
    let bytes = std::fs::read(victim).unwrap();
    std::fs::write(victim, &bytes[..bytes.len() / 2]).unwrap();

    assert_eq!(
        sweep_with_store(store),
        reference,
        "post-corruption differs"
    );
    let stats = ok(&["store", "stats", "--store", store]);
    assert!(
        stats.contains("quarantined  1"),
        "corrupt entry not quarantined:\n{stats}"
    );

    // Pareto rides the same store and is just as deterministic.
    let pareto = &[
        "pareto",
        "builtin:figure4a",
        "--latencies",
        "4,5,6",
        "--areas",
        "4,5",
        "--format",
        "json",
    ];
    let reference = ok(pareto);
    let mut with_store = pareto.to_vec();
    with_store.extend_from_slice(&["--store", store]);
    assert_eq!(ok(&with_store), reference, "pareto cold differs");
    assert_eq!(ok(&with_store), reference, "pareto warm differs");
}

#[test]
fn store_verify_and_gc_maintain_the_store() {
    let dir = scratch("maint");
    let store = dir.join("store");
    let store = store.to_str().unwrap();
    let _ = sweep_with_store(store);

    // Fresh entries verify clean: re-synthesis reproduces every report.
    let report = ok(&["store", "verify", "--store", store]);
    assert!(report.contains(" 0 drifted"), "{report}");
    assert!(!report.contains("summary: 0 ok"), "{report}");

    // `--sample` bounds the walk.
    let sampled = ok(&["store", "verify", "--store", store, "--sample", "2"]);
    assert!(sampled.contains("checking 2"), "{sampled}");

    // Verifying under a different library cannot reproduce the stored
    // fingerprints: that is a key mismatch, loudly reported, not drift.
    let skewed = ok(&["store", "verify", "--store", store, "--mission-time", "2.0"]);
    assert!(skewed.contains(" 0 drifted"), "{skewed}");
    assert!(skewed.contains("key-mismatch"), "{skewed}");

    // gc with no policy flags is an error, not a silent wipe.
    assert!(!rchls(&["store", "gc", "--store", store]).status.success());

    // A zero-byte budget evicts everything.
    let report = ok(&["store", "gc", "--store", store, "--max-bytes", "0"]);
    assert!(report.contains("evicted"), "{report}");
    let stats = ok(&["store", "stats", "--store", store]);
    assert!(stats.contains("objects      0"), "{stats}");
}

#[test]
fn killed_sweep_resumes_to_the_byte_identical_document() {
    let dir = scratch("resume");
    let store = dir.join("store");
    let store_arg = store.to_str().unwrap();
    // A 12-point grid over a 24-node workload: enough work that the
    // child is still mid-sweep when its first object lands.
    let mut sweep = vec![
        "sweep",
        "--workload",
        "random:24x6@7",
        "--latencies",
        "10,11,12,13",
        "--areas",
        "8,9,10",
        "--format",
        "json",
    ];
    let reference = ok(&sweep);
    sweep.extend_from_slice(&["--store", store_arg]);

    let mut child = Command::new(env!("CARGO_BIN_EXE_rchls"))
        .args(&sweep)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sweep");
    // Kill -9 as soon as the first point is stored.
    let objects = store.join("objects");
    let deadline = Instant::now() + Duration::from_secs(60);
    while files_under(&objects).is_empty() {
        if child.try_wait().expect("poll child").is_some() {
            break; // Finished before we could kill it; the rerun still must match.
        }
        assert!(Instant::now() < deadline, "no stored object within 60s");
        std::thread::sleep(Duration::from_millis(2));
    }
    let _ = child.kill();
    let _ = child.wait();

    // The same command again: the store answers the finished points,
    // the rest are computed, and the document must not care.
    assert_eq!(
        ok(&sweep),
        reference,
        "rerun sweep diverged from the uninterrupted document"
    );
    let report = ok(&["store", "verify", "--store", store_arg]);
    assert!(report.contains(" 0 drifted"), "{report}");
}

#[test]
fn sharded_sweeps_merge_into_the_unsharded_document() {
    let dir = scratch("shard");
    let reference = ok(SWEEP);

    let mut paths = Vec::new();
    for index in 0..3u32 {
        let mut args = SWEEP.to_vec();
        let spec = format!("{index}/3");
        args.extend_from_slice(&["--shard", &spec]);
        let doc = ok(&args);
        let path = dir.join(format!("shard{index}.json"));
        std::fs::write(&path, doc).unwrap();
        paths.push(path);
    }
    let path_args: Vec<&str> = paths.iter().map(|p| p.to_str().unwrap()).collect();

    let mut merge = vec!["merge"];
    merge.extend_from_slice(&path_args);
    merge.extend_from_slice(&["--format", "json"]);
    assert_eq!(ok(&merge), reference, "merge differs from unsharded sweep");

    // Shard order is immaterial.
    let mut shuffled = vec!["merge", path_args[2], path_args[0], path_args[1]];
    shuffled.extend_from_slice(&["--format", "json"]);
    assert_eq!(ok(&shuffled), reference, "merge is order-sensitive");

    // An incomplete set is an error, not a quietly partial document.
    let out = rchls(&["merge", path_args[0], "--format", "json"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("shards"),
        "unexpected error: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `rchls synth` at the diffeq point the pipelined store tests share.
fn synth_diffeq(store: &str, extra: &[&str]) -> String {
    let mut args = vec![
        "synth",
        "--workload",
        "builtin:diffeq",
        "--latency",
        "8",
        "--area",
        "14",
        "--store",
        store,
    ];
    args.extend_from_slice(extra);
    ok(&args)
}

/// The value under `key` in a JSON map.
fn field<'a>(doc: &'a serde::Value, key: &str) -> &'a serde::Value {
    serde::map_get(doc.as_map().expect("a JSON map"), key)
        .unwrap_or_else(|| panic!("no {key:?} field"))
}

#[test]
fn pipelined_entries_verify_and_answer_jobs_naming_their_token() {
    let dir = scratch("pipelined");
    let store = dir.join("store");
    let store = store.to_str().unwrap();
    synth_diffeq(store, &["--strategy", "pipelined"]);
    let synth: serde::Value =
        serde_json::from_str(&synth_diffeq(store, &["--ii", "4", "--report", "json"])).unwrap();

    // Both stored tokens (`pipelined@auto`, `pipelined@ii=4`) are
    // strategy ids, so verify re-synthesizes them.
    let report = ok(&["store", "verify", "--store", store]);
    assert!(report.contains("summary: 2 ok, 0 drifted"), "{report}");

    // A batch job naming the token is answered from the synth's entry:
    // same design, and nothing new written.
    let jobs = dir.join("jobs.json");
    std::fs::write(
        &jobs,
        r#"[{"workload": "builtin:diffeq", "latency": 8, "area": 14,
             "strategy": "pipelined@ii=4"}]"#,
    )
    .unwrap();
    let batch: serde::Value =
        serde_json::from_str(&ok(&["batch", jobs.to_str().unwrap(), "--store", store])).unwrap();
    let serde::Value::Seq(outcomes) = field(&batch, "outcomes") else {
        panic!("outcomes is a list");
    };
    let design = field(field(&outcomes[0], "report"), "design");
    assert_eq!(design, field(&synth, "design"));
    let stats = ok(&["store", "stats", "--store", store]);
    assert!(stats.contains("objects      2"), "{stats}");
}

#[test]
fn entries_under_unregistered_strategy_tokens_are_unverifiable() {
    use rchls_core::engine::{store_tier, CacheKey, Provenance, StoredEntry};
    use rchls_core::{Bounds, FlowSpec, RedundancyModel};

    let dir = scratch("unregistered");
    let root = dir.join("store");
    let store = rchls_store::ResultStore::open(&root).unwrap();
    let dfg = rchls_workloads::figure4a();
    let library = rchls_reslib::Library::table1();
    let (bounds, flow, model) = (
        Bounds::new(6, 4),
        FlowSpec::default(),
        RedundancyModel::default(),
    );
    // What a process with an out-of-tree strategy registered would write.
    let token = "no-such-strategy";
    let key = CacheKey::for_point(&dfg, &library, bounds, &flow, model, token);
    let entry = StoredEntry {
        strategy: token.to_owned(),
        bounds,
        report: None,
        provenance: Some(Provenance {
            workload: "builtin:figure4a".to_owned(),
            flow,
            model,
        }),
    };
    store
        .save(key.raw(), &store_tier::encode_entry(&entry))
        .unwrap();

    let report = ok(&["store", "verify", "--store", root.to_str().unwrap()]);
    assert!(
        report.contains("unverifiable: strategy token \"no-such-strategy\" is not a registered id"),
        "{report}"
    );
    assert!(
        report.contains("summary: 0 ok, 0 drifted, 0 key-mismatched, 1 unverifiable"),
        "{report}"
    );
}

#[test]
fn an_infeasible_synth_fails_once_and_still_writes_its_trace() {
    let dir = scratch("infeasible");
    let trace = dir.join("trace.json");
    let out = rchls(&[
        "synth",
        "--workload",
        "builtin:figure4a",
        "--latency",
        "3",
        "--area",
        "99",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: no ours design for builtin:figure4a meets Ld=3, Ad=99\n"),
        "{stderr}"
    );
    let doc = std::fs::read_to_string(&trace).expect("the failed run's trace is written");
    let names = rchls_telemetry::trace_event_names(&doc).unwrap();
    // The engine's answer is final: nothing reruns the point for a
    // longer message.
    assert_eq!(
        names.iter().filter(|n| *n == "synth").count(),
        1,
        "{names:?}"
    );
}

#[test]
fn an_interval_past_the_latency_bound_runs_at_the_bound() {
    let run = |ii: &str| {
        let out = ok(&[
            "synth",
            "--workload",
            "builtin:figure4a",
            "--latency",
            "8",
            "--area",
            "8",
            "--ii",
            ii,
            "--report",
            "json",
        ]);
        // Drop the only run-dependent number.
        out.lines()
            .filter(|line| !line.contains("\"wall_time_micros\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    // An unclamped 4e9-slot residue table would abort on allocation.
    assert_eq!(run("4000000000"), run("8"));
}

#[test]
fn latency_bounds_past_the_limit_fail_with_one_message() {
    let message = "error: latency bound 4000000000 exceeds the limit of 65536 control steps\n";
    let synth = rchls(&[
        "synth",
        "--workload",
        "builtin:diffeq",
        "--latency",
        "4000000000",
        "--area",
        "11",
    ]);
    assert!(!synth.status.success());
    let stderr = String::from_utf8_lossy(&synth.stderr);
    assert!(stderr.starts_with(message), "{stderr}");
    // A sweep holding such a bound is rejected before any synthesis.
    let sweep = rchls(&[
        "sweep",
        "--workload",
        "builtin:diffeq",
        "--latencies",
        "5,4000000000",
        "--areas",
        "7",
    ]);
    assert!(!sweep.status.success());
    assert!(sweep.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&sweep.stderr);
    assert!(stderr.starts_with(message), "{stderr}");
}
