//! End-to-end tests over real loopback sockets: concurrent clients,
//! admission control, deadlines, shutdown, and byte-identity with the
//! offline engine.

use rchls_core::{Engine, FlowSpec, RedundancyModel, SynthJob};
use rchls_explorer::{default_grid, explore, ExploreTask};
use rchls_reslib::Library;
use rchls_serve::{
    response_error_kind, response_result, Client, ServeConfig, Server, ServerHandle,
};
use serde::{map_get, Value};

fn start(config: ServeConfig) -> (ServerHandle, String) {
    let handle = Server::start(config, Library::table1()).expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn ephemeral(jobs: usize, queue_depth: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs,
        queue_depth,
        ..ServeConfig::default()
    }
}

fn key(k: &str) -> Value {
    Value::Str(k.to_owned())
}

fn demo_jobs() -> Vec<SynthJob> {
    vec![
        SynthJob::new("builtin:figure4a", 6, 4),
        SynthJob::new("random:16x4@2", 9, 9).with_strategy("combined"),
        SynthJob::new("builtin:figure4a", 3, 99), // infeasible
    ]
}

#[test]
fn admin_methods_answer_inline() {
    let (handle, addr) = start(ephemeral(2, 4));
    let mut client = Client::connect(&addr).unwrap();

    let pong = client.call("ping", None, None).unwrap();
    let result = response_result(&pong).expect("ping ok");
    let entries = result.as_map().unwrap();
    assert_eq!(map_get(entries, "protocol"), Some(&Value::UInt(1)));
    assert_eq!(map_get(entries, "jobs"), Some(&Value::UInt(2)));

    let workloads = client.call("workloads", None, None).unwrap();
    let text = serde_json::to_string(response_result(&workloads).unwrap()).unwrap();
    assert!(text.contains("builtin"), "{text}");
    assert!(text.contains("builtin:fir16"), "{text}");

    let flows = client.call("flows", None, None).unwrap();
    let text = serde_json::to_string(response_result(&flows).unwrap()).unwrap();
    for id in [
        "ours",
        "baseline",
        "combined",
        "force-directed",
        "left-edge",
    ] {
        assert!(text.contains(id), "{id} missing from flows");
    }

    let metrics = client.call("metrics", None, None).unwrap();
    let result = response_result(&metrics).expect("metrics ok");
    let entries = result.as_map().unwrap();
    let session = map_get(entries, "session").unwrap().as_map().unwrap();
    assert!(map_get(session, "cache_budget").is_some());
    assert!(map_get(session, "resident_cache_bytes").is_some());
    assert!(map_get(session, "cache_evictions").is_some());
    let snapshot = map_get(entries, "metrics").expect("snapshot present");
    rchls_telemetry::metrics::validate_snapshot(snapshot).expect("snapshot validates");

    let stop = client.call("shutdown", None, None).unwrap();
    let text = serde_json::to_string(response_result(&stop).unwrap()).unwrap();
    assert!(text.contains("stopping"));
    handle.join();
}

#[test]
fn concurrent_clients_match_the_offline_engine_byte_for_byte() {
    let jobs = demo_jobs();
    // The offline reference: scrubbed outcomes from a fresh engine.
    let offline = Engine::new(Library::table1()).run_batch(&jobs);
    let offline_outcomes = serde_json::to_value(&offline.outcomes);
    let offline_outcome_values: Vec<Value> = jobs
        .iter()
        .map(|job| {
            serde_json::to_value(
                &Engine::new(Library::table1())
                    .run_batch(std::slice::from_ref(job))
                    .outcomes[0],
            )
        })
        .collect();

    let (handle, addr) = start(ephemeral(2, 16));
    // Client A streams per-job `synth` calls; client B sends the whole
    // set as one `batch`; both run concurrently against the shared
    // engine and must answer exactly what the offline CLI computes.
    let synth_thread = {
        let addr = addr.clone();
        let jobs = jobs.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).unwrap();
            jobs.iter()
                .map(|job| {
                    let params = serde_json::to_value(job);
                    let doc = client.call("synth", Some(&params), None).unwrap();
                    response_result(&doc).expect("synth ok").clone()
                })
                .collect::<Vec<Value>>()
        })
    };
    let batch_thread = {
        let addr = addr.clone();
        let jobs = jobs.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).unwrap();
            let params = Value::Map(vec![(key("jobs"), serde_json::to_value(&jobs))]);
            let doc = client.call("batch", Some(&params), None).unwrap();
            let result = response_result(&doc).expect("batch ok").clone();
            let entries = result.as_map().unwrap().to_vec();
            (
                map_get(&entries, "jobs").cloned().unwrap(),
                map_get(&entries, "outcomes").cloned().unwrap(),
            )
        })
    };
    let synth_outcomes = synth_thread.join().unwrap();
    let (batch_jobs, batch_outcomes) = batch_thread.join().unwrap();

    assert_eq!(synth_outcomes, offline_outcome_values);
    assert_eq!(batch_jobs, Value::UInt(jobs.len() as u64));
    assert_eq!(batch_outcomes, offline_outcomes);

    // Repeating through the warmed shared cache answers identically.
    let mut client = Client::connect(&addr).unwrap();
    let params = serde_json::to_value(&jobs[0]);
    let doc = client.call("synth", Some(&params), None).unwrap();
    assert_eq!(
        response_result(&doc).expect("cached synth ok"),
        &offline_outcome_values[0]
    );

    handle.shutdown();
    handle.join();
}

/// The served `result` of a `sweep`/`pareto` serializes to exactly the
/// bytes of `serde_json::to_value` of an offline [`explore`] over a
/// separate engine.
#[test]
fn sweep_and_pareto_match_offline_exploration_json() {
    let (handle, addr) = start(ephemeral(2, 8));
    let mut client = Client::connect(&addr).unwrap();
    let offline = Engine::new(Library::table1()).with_jobs(1);
    let offline_bytes = |grid: Vec<(u32, u32)>, flow: &FlowSpec| {
        let task = ExploreTask::new("builtin:figure4a", grid);
        let exploration = explore(&offline, &[task], flow, RedundancyModel::default()).unwrap();
        serde_json::to_string(&serde_json::to_value(&exploration)).unwrap()
    };
    let served_bytes = |doc: &Value| serde_json::to_string(response_result(doc).unwrap()).unwrap();

    // A sweep under a non-default flow.
    let flow = FlowSpec::default()
        .with_scheduler("force-directed")
        .with_binder("coloring");
    let params = Value::Map(vec![
        (key("workload"), key("builtin:figure4a")),
        (
            key("latencies"),
            Value::Seq(vec![Value::UInt(5), Value::UInt(6)]),
        ),
        (key("areas"), Value::Seq(vec![Value::UInt(4)])),
        (key("flow"), serde_json::to_value(&flow)),
    ]);
    let doc = client.call("sweep", Some(&params), None).unwrap();
    assert_eq!(
        served_bytes(&doc),
        offline_bytes(vec![(5, 4), (6, 4)], &flow)
    );

    // Pareto without bound lists falls back to the default grid.
    let params = Value::Map(vec![(key("workload"), key("builtin:figure4a"))]);
    let doc = client.call("pareto", Some(&params), None).unwrap();
    let figure4a = offline.workload("builtin:figure4a").unwrap().dfg;
    let grid = default_grid(&figure4a, offline.library()).unwrap();
    assert_eq!(
        served_bytes(&doc),
        offline_bytes(grid, &FlowSpec::default())
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn full_queue_rejects_with_structured_overload() {
    /// Whether the held run has started, and whether it may finish.
    static HELD: (std::sync::Mutex<(bool, bool)>, std::sync::Condvar) = (
        std::sync::Mutex::new((false, false)),
        std::sync::Condvar::new(),
    );
    /// Holds its worker until released (or ten seconds pass), then
    /// answers as `baseline`.
    struct Hold;
    impl rchls_core::Strategy for Hold {
        fn id(&self) -> &str {
            "e2e-hold-until-released"
        }
        fn run(
            &self,
            request: &rchls_core::SynthRequest<'_>,
        ) -> Result<rchls_core::SynthReport, rchls_core::SynthesisError> {
            let (state, changed) = &HELD;
            let mut state = state.lock().unwrap();
            state.0 = true;
            changed.notify_all();
            let timeout = std::time::Duration::from_secs(10);
            let released = changed.wait_timeout_while(state, timeout, |s| !s.1);
            drop(released);
            baseline(request)
        }
    }
    let _ = rchls_core::flow::register_strategy(std::sync::Arc::new(Hold));

    // One worker, one queue slot.
    let (handle, addr) = start(ephemeral(1, 1));
    let (answered, answers) = std::sync::mpsc::channel();
    let send = |job: SynthJob| {
        let (addr, answered) = (addr.clone(), answered.clone());
        std::thread::spawn(move || {
            let params = serde_json::to_value(&job);
            let mut client = Client::connect(&addr).unwrap();
            let doc = client.call("synth", Some(&params), None).unwrap();
            let _ = answered.send((doc, client));
        })
    };
    let held =
        send(SynthJob::new("builtin:figure4a", 6, 4).with_strategy("e2e-hold-until-released"));
    {
        let (state, changed) = &HELD;
        let timeout = std::time::Duration::from_secs(10);
        let state = changed
            .wait_timeout_while(state.lock().unwrap(), timeout, |s| !s.0)
            .unwrap()
            .0;
        assert!(state.0, "the held run never started");
    }

    // The held run occupies the only worker. Two more requests race for
    // the one queue slot: the loser is refused at admission with a retry
    // hint, at once — no hang, no panic.
    let racers = [7, 8].map(|latency| send(SynthJob::new("builtin:figure4a", latency, 4)));
    let wait = std::time::Duration::from_secs(10);
    let (refused, mut client) = answers.recv_timeout(wait).expect("an immediate rejection");
    assert_eq!(
        response_error_kind(&refused),
        Some("overloaded"),
        "{refused:?}"
    );
    let error = map_get(refused.as_map().unwrap(), "error").unwrap();
    assert!(map_get(error.as_map().unwrap(), "retry_after_ms").is_some());
    // The connection survives the rejection, and admin methods still
    // answer while the worker is held.
    let pong = client.call("ping", None, None).unwrap();
    assert!(response_result(&pong).is_some());

    // Released, the worker answers the held run and then the queued one.
    HELD.0.lock().unwrap().1 = true;
    HELD.1.notify_all();
    for _ in 0..2 {
        let (doc, _) = answers.recv_timeout(wait).expect("queued work is answered");
        assert!(response_result(&doc).is_some(), "{doc:?}");
    }
    held.join().unwrap();
    for racer in racers {
        racer.join().unwrap();
    }

    // A zero-depth queue would refuse every heavy request, so `start`
    // rejects it before binding.
    let err = Server::start(ephemeral(1, 0), Library::table1())
        .err()
        .expect("depth 0 is refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("--queue-depth"), "{err}");
    handle.shutdown();
    handle.join();
}

#[test]
fn expired_deadlines_answer_deadline_exceeded() {
    let (handle, addr) = start(ephemeral(1, 4));
    let mut client = Client::connect(&addr).unwrap();
    let params = serde_json::to_value(&SynthJob::new("builtin:figure4a", 6, 4));
    let doc = client.call("synth", Some(&params), Some(0)).unwrap();
    assert_eq!(response_error_kind(&doc), Some("deadline_exceeded"));
    // A generous deadline passes.
    let doc = client.call("synth", Some(&params), Some(60_000)).unwrap();
    assert!(response_result(&doc).is_some());
    handle.shutdown();
    handle.join();
}

#[test]
fn malformed_requests_get_structured_bad_request() {
    let (handle, addr) = start(ephemeral(1, 4));
    let mut client = Client::connect(&addr).unwrap();

    // Not JSON at all: id echoes as null.
    let raw = client.roundtrip("this is not json").unwrap();
    let doc: Value = serde_json::from_str(&raw).unwrap();
    assert_eq!(response_error_kind(&doc), Some("bad_request"));
    assert_eq!(map_get(doc.as_map().unwrap(), "id"), Some(&Value::Null));

    // 100 000 nested arrays (200 KB on one line) would overflow the
    // reader thread's stack in a recursive parser; the parser's depth
    // limit turns it into one bad_request, and the calls below show the
    // connection still serves.
    let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
    let raw = client.roundtrip(&deep).unwrap();
    let doc: Value = serde_json::from_str(&raw).unwrap();
    assert_eq!(response_error_kind(&doc), Some("bad_request"));
    assert_eq!(map_get(doc.as_map().unwrap(), "id"), Some(&Value::Null));
    assert!(raw.contains("128 levels"), "{raw}");

    // Unknown method.
    let doc = client.call("frobnicate", None, None).unwrap();
    assert_eq!(response_error_kind(&doc), Some("bad_request"));

    // `jobs: 0` in batch params: a worker count is not a job list.
    let params = Value::Map(vec![(key("jobs"), Value::UInt(0))]);
    let doc = client.call("batch", Some(&params), None).unwrap();
    assert_eq!(response_error_kind(&doc), Some("bad_request"));
    let text = serde_json::to_string(&doc).unwrap();
    assert!(text.contains("array of synthesis jobs"), "{text}");
    assert!(text.contains("--jobs"), "{text}");

    // An empty job list is rejected too.
    let params = Value::Map(vec![(key("jobs"), Value::Seq(vec![]))]);
    let doc = client.call("batch", Some(&params), None).unwrap();
    assert_eq!(response_error_kind(&doc), Some("bad_request"));

    // Synth params with zero bounds surface the engine's message.
    let params: Value =
        serde_json::from_str(r#"{"workload": "builtin:figure4a", "latency": 0, "area": 4}"#)
            .unwrap();
    let doc = client.call("synth", Some(&params), None).unwrap();
    assert_eq!(response_error_kind(&doc), Some("bad_request"));

    // A malformed file workload carries path and line through the wire.
    let dir = std::env::temp_dir().join("rchls-serve-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.dfg");
    std::fs::write(&path, "graph g\nop a add\na -> ghost\n").unwrap();
    let params = Value::Map(vec![(
        key("workload"),
        Value::Str(format!("file:{}", path.display())),
    )]);
    let doc = client.call("pareto", Some(&params), None).unwrap();
    assert_eq!(response_error_kind(&doc), Some("bad_request"));
    let text = serde_json::to_string(&doc).unwrap();
    assert!(text.contains("broken.dfg"), "{text}");
    assert!(text.contains("line 3"), "{text}");

    handle.shutdown();
    handle.join();
}

#[test]
fn a_panicking_request_leaves_the_daemon_serving() {
    struct PanickingStrategy;
    impl rchls_core::Strategy for PanickingStrategy {
        fn id(&self) -> &str {
            "panic-for-e2e-test"
        }
        fn run(
            &self,
            _request: &rchls_core::SynthRequest<'_>,
        ) -> Result<rchls_core::SynthReport, rchls_core::SynthesisError> {
            panic!("synthetic strategy panic");
        }
    }
    let _ = rchls_core::flow::register_strategy(std::sync::Arc::new(PanickingStrategy));

    // One worker: the panicking job and every follow-up share it, so a
    // wedged or dead worker would hang the rest of the test.
    let (handle, addr) = start(ephemeral(1, 4));
    let mut client = Client::connect(&addr).unwrap();
    let good = serde_json::to_value(&SynthJob::new("builtin:figure4a", 6, 4));
    let bad = serde_json::to_value(
        &SynthJob::new("builtin:figure4a", 6, 4).with_strategy("panic-for-e2e-test"),
    );

    // The panicking job answers a structured internal error...
    let doc = client.call("synth", Some(&bad), None).unwrap();
    assert_eq!(response_error_kind(&doc), Some("internal"));
    // ...and the daemon keeps serving: same connection, same worker.
    let pong = client.call("ping", None, None).unwrap();
    assert!(response_result(&pong).is_some());
    let doc = client.call("synth", Some(&good), None).unwrap();
    assert!(response_result(&doc).is_some());

    // Repeated panics don't wear anything out, and fresh connections
    // after them still synthesize.
    let mut fresh = Client::connect(&addr).unwrap();
    for _ in 0..3 {
        let doc = fresh.call("synth", Some(&bad), None).unwrap();
        assert_eq!(response_error_kind(&doc), Some("internal"));
    }
    let doc = fresh.call("synth", Some(&good), None).unwrap();
    assert!(response_result(&doc).is_some());

    handle.shutdown();
    handle.join();
}

#[test]
fn parametric_strategy_ids_are_served_and_bad_spellings_answered() {
    let (handle, addr) = start(ephemeral(1, 4));
    let mut client = Client::connect(&addr).unwrap();
    // Every non-canonical spelling is a job error in a normal response.
    for id in [
        "pipelined@ii=0",
        "pipelined@ii=03",
        "pipelined@ii=",
        "pipelined@ii=x",
        "ours@ii=2",
    ] {
        let job = SynthJob::new("builtin:diffeq", 8, 14).with_strategy(id);
        let doc = client
            .call("synth", Some(&serde_json::to_value(&job)), None)
            .unwrap();
        let outcome = response_result(&doc).expect("a job error is still a result");
        let error = map_get(outcome.as_map().unwrap(), "error").unwrap();
        assert_eq!(
            error,
            &Value::Str(format!("{id:?} is not a registered strategy")),
            "{id}"
        );
    }
    // ...and the daemon keeps serving: the canonical id answers exactly
    // what the offline engine does.
    let job = SynthJob::new("builtin:diffeq", 8, 14).with_strategy("pipelined@ii=4");
    let doc = client
        .call("synth", Some(&serde_json::to_value(&job)), None)
        .unwrap();
    let offline = Engine::new(Library::table1()).run_batch(std::slice::from_ref(&job));
    assert_eq!(
        response_result(&doc),
        Some(&serde_json::to_value(&offline.outcomes[0]))
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn store_backed_daemon_survives_a_poisoned_store() {
    // A store-backed daemon: synthesis results persist across restarts,
    // metrics reports store facts, and corrupted entries are quarantined
    // mid-flight without wrong answers or downtime.
    let dir = std::env::temp_dir().join(format!("rchls-serve-e2e-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_dir = dir.join("store");
    let config = || ServeConfig {
        store: Some(store_dir.display().to_string()),
        ..ephemeral(2, 8)
    };
    let params = serde_json::to_value(&SynthJob::new("builtin:figure4a", 6, 4));
    let offline = serde_json::to_value(
        &Engine::new(Library::table1())
            .run_batch(&[SynthJob::new("builtin:figure4a", 6, 4)])
            .outcomes[0],
    );

    // Session 1 writes the entry through.
    let (handle, addr) = start(config());
    let mut client = Client::connect(&addr).unwrap();
    let doc = client.call("synth", Some(&params), None).unwrap();
    assert_eq!(response_result(&doc).expect("synth ok"), &offline);
    let doc = client.call("metrics", None, None).unwrap();
    let result = response_result(&doc).expect("metrics ok");
    let session = map_get(result.as_map().unwrap(), "session").unwrap();
    let store_facts = map_get(session.as_map().unwrap(), "store")
        .expect("store facts in metrics")
        .as_map()
        .expect("store facts are a map");
    match map_get(store_facts, "objects") {
        Some(Value::UInt(n)) => assert!(*n > 0, "nothing persisted"),
        other => panic!("store objects missing or wrong type: {other:?}"),
    }
    handle.shutdown();
    handle.join();

    // Session 2 starts cold in memory but warm on disk: the same call
    // answers identically from the store, and the store.hits counter
    // proves it replayed rather than re-synthesized.
    let (handle, addr) = start(config());
    let mut client = Client::connect(&addr).unwrap();
    let doc = client.call("synth", Some(&params), None).unwrap();
    assert_eq!(response_result(&doc).expect("synth ok"), &offline);
    let doc = client.call("metrics", None, None).unwrap();
    let result = response_result(&doc).expect("metrics ok");
    let snapshot = map_get(result.as_map().unwrap(), "metrics").unwrap();
    let text = serde_json::to_string(snapshot).unwrap();
    assert!(text.contains("store.hits"), "{text}");
    handle.shutdown();
    handle.join();

    // Poison every stored object, then serve again: the daemon must
    // keep answering (quarantining as it goes), not trust the garbage.
    fn poison(dir: &std::path::Path) -> usize {
        let mut poisoned = 0;
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                poisoned += poison(&path);
            } else {
                std::fs::write(&path, "definitely not a store entry").unwrap();
                poisoned += 1;
            }
        }
        poisoned
    }
    assert!(poison(&store_dir.join("objects")) > 0);

    let (handle, addr) = start(config());
    let mut client = Client::connect(&addr).unwrap();
    let doc = client.call("synth", Some(&params), None).unwrap();
    assert_eq!(
        response_result(&doc).expect("synth ok despite poison"),
        &offline
    );
    let doc = client.call("metrics", None, None).unwrap();
    let result = response_result(&doc).expect("metrics ok");
    let session = map_get(result.as_map().unwrap(), "session").unwrap();
    let store_facts = map_get(session.as_map().unwrap(), "store")
        .unwrap()
        .as_map()
        .unwrap();
    match map_get(store_facts, "quarantined") {
        Some(Value::UInt(n)) => assert!(*n > 0, "poisoned entry not quarantined"),
        other => panic!("quarantined missing or wrong type: {other:?}"),
    }
    handle.shutdown();
    handle.join();
}

#[test]
fn shutdown_via_handle_unblocks_everything() {
    let (handle, addr) = start(ephemeral(2, 4));
    // An idle connected client must not keep the server alive.
    let _idle = Client::connect(&addr).unwrap();
    handle.shutdown();
    handle.join();
}

#[test]
fn soak_1k_requests_stays_under_cache_budget() {
    // 1000 synth requests cycling 100 distinct workloads through a
    // 64 KiB budget: the resident cache size must stay bounded the
    // whole way, and the budget must actually evict.
    const BUDGET: u64 = 64 * 1024;
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: 2,
        queue_depth: 32,
        cache_budget: rchls_core::CacheBudget::limited(BUDGET),
        ..ServeConfig::default()
    };
    let (handle, addr) = start(config);

    let resident_bytes = |client: &mut Client| -> u64 {
        let doc = client.call("metrics", None, None).unwrap();
        let result = response_result(&doc).expect("metrics ok");
        let session = map_get(result.as_map().unwrap(), "session").unwrap();
        match map_get(session.as_map().unwrap(), "resident_cache_bytes") {
            Some(Value::UInt(n)) => *n,
            other => panic!("resident_cache_bytes missing or wrong type: {other:?}"),
        }
    };

    let workers: Vec<_> = (0..4)
        .map(|lane| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                let mut over_budget = 0u32;
                for i in 0..250u32 {
                    let seed = (lane * 250 + i) % 100;
                    let job = SynthJob::new(format!("random:10x3@{seed}"), 8, 6);
                    let params = serde_json::to_value(&job);
                    let doc = client.call("synth", Some(&params), None).unwrap();
                    // Every request gets a definite answer: a result or
                    // a structured error, never a dropped line.
                    assert!(
                        response_result(&doc).is_some() || response_error_kind(&doc).is_some(),
                        "request {lane}/{i} got no structured answer"
                    );
                    if i % 50 == 0 && resident_bytes(&mut client) > BUDGET {
                        over_budget += 1;
                    }
                }
                over_budget
            })
        })
        .collect();
    let over_budget: u32 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert_eq!(
        over_budget, 0,
        "resident cache exceeded the budget mid-soak"
    );

    let mut client = Client::connect(&addr).unwrap();
    assert!(resident_bytes(&mut client) <= BUDGET);

    // The budget had to work for a living: evictions happened, and the
    // eviction counters ride through the validated metrics snapshot.
    let doc = client.call("metrics", None, None).unwrap();
    let result = response_result(&doc).expect("metrics ok");
    let entries = result.as_map().unwrap();
    let session = map_get(entries, "session").unwrap().as_map().unwrap();
    match map_get(session, "cache_evictions") {
        Some(Value::UInt(n)) => assert!(*n > 0, "soak never evicted"),
        other => panic!("cache_evictions missing or wrong type: {other:?}"),
    }
    let snapshot = map_get(entries, "metrics").expect("snapshot present");
    rchls_telemetry::metrics::validate_snapshot(snapshot).expect("snapshot validates");
    let text = serde_json::to_string(snapshot).unwrap();
    assert!(text.contains("synth_cache.evictions"), "{text}");

    handle.shutdown();
    handle.join();
}

#[test]
fn cache_budget_never_changes_responses() {
    let jobs = demo_jobs();
    let offline = serde_json::to_value(&Engine::new(Library::table1()).run_batch(&jobs).outcomes);
    for budget in ["0", "64KiB", "unlimited"] {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            jobs: 2,
            queue_depth: 8,
            cache_budget: rchls_core::CacheBudget::parse(budget).unwrap(),
            ..ServeConfig::default()
        };
        let (handle, addr) = start(config);
        let mut client = Client::connect(&addr).unwrap();
        let params = Value::Map(vec![(key("jobs"), serde_json::to_value(&jobs))]);
        // Twice: the second pass replays through whatever the budget
        // left resident and must not change a byte.
        for pass in 0..2 {
            let doc = client.call("batch", Some(&params), None).unwrap();
            let result = response_result(&doc).expect("batch ok");
            let outcomes = map_get(result.as_map().unwrap(), "outcomes").unwrap();
            assert_eq!(outcomes, &offline, "budget {budget}, pass {pass}");
        }
        handle.shutdown();
        handle.join();
    }
}

#[test]
fn connection_limit_turns_away_with_structured_overload() {
    let config = ServeConfig {
        max_conns: 1,
        ..ephemeral(1, 4)
    };
    let (handle, addr) = start(config);
    let mut first = Client::connect(&addr).unwrap();
    let pong = first.call("ping", None, None).unwrap();
    assert!(response_result(&pong).is_some());

    // The second simultaneous connection gets one structured turn-away
    // (null id: the daemon answers at accept, before any request line)
    // with a retry hint, then EOF. Read it raw — writing a request
    // first would race the close.
    use std::io::Read as _;
    let mut second = std::net::TcpStream::connect(&addr).unwrap();
    let mut text = String::new();
    second.read_to_string(&mut text).unwrap(); // EOF: the daemon closed it
    let doc: Value = serde_json::from_str(text.trim_end()).unwrap();
    assert_eq!(response_error_kind(&doc), Some("overloaded"));
    assert_eq!(map_get(doc.as_map().unwrap(), "id"), Some(&Value::Null));
    let error = map_get(doc.as_map().unwrap(), "error").unwrap();
    assert!(map_get(error.as_map().unwrap(), "retry_after_ms").is_some());

    // Freeing the slot lets the next connection in; retries absorb the
    // window in which the reader hasn't noticed the disconnect yet.
    drop(first);
    let mut third = Client::connect(&addr).unwrap();
    let pong = third.call_with_retries("ping", None, None, 10).unwrap();
    assert!(response_result(&pong).is_some(), "slot never freed");

    handle.shutdown();
    handle.join();
}

#[test]
fn stalled_request_lines_time_out_but_idle_connections_survive() {
    use std::io::{Read as _, Write as _};
    let config = ServeConfig {
        read_timeout_ms: 100,
        ..ephemeral(1, 4)
    };
    let (handle, addr) = start(config);

    // An idle connection older than the read timeout still works: the
    // timeout clock only runs while a request line sits incomplete.
    let mut idle = Client::connect(&addr).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(300));
    let pong = idle.call("ping", None, None).unwrap();
    assert!(response_result(&pong).is_some());

    // A half-sent request line is a stall: after 100 ms the server
    // answers one structured bad_request and closes the connection.
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream.write_all(b"{\"v\": 1, \"method\": \"pi").unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("expected a response then EOF, got {e}"),
        }
    }
    let text = String::from_utf8_lossy(&buf);
    assert!(text.contains("bad_request"), "{text}");
    assert!(text.contains("read timeout"), "{text}");

    handle.shutdown();
    handle.join();
}

#[test]
fn client_assembles_split_frame_responses() {
    use std::io::{Read as _, Write as _};
    // A raw fake daemon that reads one request line, then dribbles the
    // response out one byte at a time: the client must assemble the
    // frame, not assume whole-line reads.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut seen = Vec::new();
        let mut byte = [0u8; 1];
        while !seen.contains(&b'\n') {
            assert_eq!(stream.read(&mut byte).unwrap(), 1);
            seen.push(byte[0]);
        }
        let response = b"{\"v\": 1, \"id\": 1, \"ok\": true, \"result\": {\"pong\": true}}\n";
        for &b in response.iter() {
            stream.write_all(&[b]).unwrap();
            stream.flush().unwrap();
        }
    });
    let mut client = Client::connect(&addr).unwrap();
    let doc = client.call("ping", None, None).unwrap();
    let result = response_result(&doc).expect("split-frame response assembles");
    assert_eq!(
        map_get(result.as_map().unwrap(), "pong"),
        Some(&Value::Bool(true))
    );
    server.join().unwrap();
}

#[test]
fn latency_bounds_past_the_limit_get_one_reply_and_the_daemon_serves_on() {
    use std::io::{BufRead, BufReader, Write};
    let (handle, addr) = start(ephemeral(1, 4));
    let stream = std::net::TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut exchange = |line: &str| {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        serde_json::from_str::<Value>(&reply).unwrap()
    };
    let limit = "latency bound 4000000000 exceeds the limit of 65536 control steps";
    let synth = exchange(
        r#"{"v": 1, "id": 1, "method": "synth", "params": {"workload": "builtin:diffeq", "latency": 4000000000, "area": 11}}"#,
    );
    let outcome = response_result(&synth).expect("a job error is still a result");
    let outcome = outcome.as_map().unwrap();
    assert_eq!(
        map_get(outcome, "error"),
        Some(&Value::Str(limit.to_owned()))
    );
    assert_eq!(map_get(outcome, "report"), Some(&Value::Null));
    // The next line on the connection answers the next request: the
    // synth got exactly one reply.
    let pong = exchange(r#"{"v": 1, "id": 2, "method": "ping"}"#);
    assert_eq!(map_get(pong.as_map().unwrap(), "id"), Some(&Value::UInt(2)));
    assert!(response_result(&pong).is_some(), "{pong:?}");
    // A sweep holding such a bound is one bad_request.
    let sweep = exchange(
        r#"{"v": 1, "id": 3, "method": "sweep", "params": {"workload": "builtin:diffeq", "latencies": [5, 4000000000], "areas": [7]}}"#,
    );
    assert_eq!(response_error_kind(&sweep), Some("bad_request"));
    assert!(
        serde_json::to_string(&sweep).unwrap().contains(limit),
        "{sweep:?}"
    );
    let pong = exchange(r#"{"v": 1, "id": 4, "method": "ping"}"#);
    assert!(response_result(&pong).is_some(), "{pong:?}");
    handle.shutdown();
    handle.join();
}

/// The overlapping runs of one test strategy and the threads they ran
/// on.
struct Census {
    active: usize,
    peak: usize,
    threads: Vec<std::thread::ThreadId>,
    panicked: bool,
}

impl Census {
    const EMPTY: Census = Census {
        active: 0,
        peak: 0,
        threads: Vec::new(),
        panicked: false,
    };

    /// Counts one run starting on this thread.
    fn enter(&mut self) {
        self.active += 1;
        self.peak = self.peak.max(self.active);
        self.threads.push(std::thread::current().id());
    }

    fn distinct_threads(&self) -> usize {
        let threads: std::collections::HashSet<_> = self.threads.iter().collect();
        threads.len()
    }
}

fn baseline(
    request: &rchls_core::SynthRequest<'_>,
) -> Result<rchls_core::SynthReport, rchls_core::SynthesisError> {
    rchls_core::flow::strategy("baseline").unwrap().run(request)
}

/// A `batch` request of `strategy` on `builtin:figure4a` at area 4, one
/// job per latency bound.
fn batch_params(strategy: &str, latencies: impl IntoIterator<Item = u32>) -> Value {
    let jobs: Vec<SynthJob> = latencies
        .into_iter()
        .map(|l| SynthJob::new("builtin:figure4a", l, 4).with_strategy(strategy))
        .collect();
    Value::Map(vec![(key("jobs"), serde_json::to_value(&jobs))])
}

#[test]
fn the_daemon_runs_at_most_jobs_syntheses_at_once() {
    static SLEEPS: std::sync::Mutex<Census> = std::sync::Mutex::new(Census::EMPTY);
    /// Sleeps 20 ms under the census, then answers as `baseline`.
    struct Sleepy;
    impl rchls_core::Strategy for Sleepy {
        fn id(&self) -> &str {
            "e2e-sleep-20ms"
        }
        fn run(
            &self,
            request: &rchls_core::SynthRequest<'_>,
        ) -> Result<rchls_core::SynthReport, rchls_core::SynthesisError> {
            SLEEPS.lock().unwrap().enter();
            std::thread::sleep(std::time::Duration::from_millis(20));
            SLEEPS.lock().unwrap().active -= 1;
            baseline(request)
        }
    }
    let _ = rchls_core::flow::register_strategy(std::sync::Arc::new(Sleepy));

    // Four connections each send a 4-job batch at once, every job at
    // distinct bounds, so none joins another's computation.
    let (handle, addr) = start(ephemeral(2, 16));
    let clients: Vec<_> = (0..4u32)
        .map(|conn| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let params = batch_params("e2e-sleep-20ms", (0..4).map(|job| 6 + 4 * conn + job));
                let mut client = Client::connect(&addr).unwrap();
                client.call("batch", Some(&params), None).unwrap()
            })
        })
        .collect();
    for client in clients {
        let doc = client.join().unwrap();
        assert!(response_result(&doc).is_some(), "{doc:?}");
    }
    handle.shutdown();
    handle.join();
    let census = SLEEPS.lock().unwrap();
    assert_eq!(census.threads.len(), 16);
    assert!(census.peak <= 2, "{} syntheses at once", census.peak);
    assert!(
        census.distinct_threads() <= 2,
        "syntheses ran on {} threads",
        census.distinct_threads()
    );
}

#[test]
fn a_panic_on_a_batch_helper_answers_internal_and_the_helper_lives_on() {
    static RUNS: (std::sync::Mutex<Census>, std::sync::Condvar) = (
        std::sync::Mutex::new(Census::EMPTY),
        std::sync::Condvar::new(),
    );
    /// What a run does once counted: `Hold` waits for the panic, `Panic`
    /// panics, `Meet` waits until two runs overlap. Each wait gives up
    /// after ten seconds.
    enum Act {
        Hold,
        Panic,
        Meet,
    }
    struct Probe(&'static str, Act);
    impl rchls_core::Strategy for Probe {
        fn id(&self) -> &str {
            self.0
        }
        fn run(
            &self,
            request: &rchls_core::SynthRequest<'_>,
        ) -> Result<rchls_core::SynthReport, rchls_core::SynthesisError> {
            let (census, changed) = &RUNS;
            let mut runs = census.lock().unwrap();
            runs.enter();
            let timeout = std::time::Duration::from_secs(10);
            let mut runs = match self.1 {
                Act::Panic => {
                    runs.panicked = true;
                    changed.notify_all();
                    drop(runs);
                    panic!("synthetic helper panic");
                }
                Act::Hold => {
                    let wait = changed.wait_timeout_while(runs, timeout, |r| !r.panicked);
                    wait.unwrap().0
                }
                Act::Meet => {
                    changed.notify_all();
                    let wait = changed.wait_timeout_while(runs, timeout, |r| r.peak < 2);
                    wait.unwrap().0
                }
            };
            runs.active -= 1;
            drop(runs);
            baseline(request)
        }
    }
    for (id, act) in [
        ("e2e-hold-until-panic", Act::Hold),
        ("e2e-panic", Act::Panic),
        ("e2e-meet", Act::Meet),
    ] {
        let _ = rchls_core::flow::register_strategy(std::sync::Arc::new(Probe(id, act)));
    }

    let (handle, addr) = start(ephemeral(2, 4));
    let mut client = Client::connect(&addr).unwrap();
    // The batch's caller holds the first job until the second has
    // panicked, so the panic happens on the pool's other thread.
    let jobs: Vec<SynthJob> = [("e2e-hold-until-panic", 6), ("e2e-panic", 7)]
        .into_iter()
        .map(|(id, l)| SynthJob::new("builtin:figure4a", l, 4).with_strategy(id))
        .collect();
    let params = Value::Map(vec![(key("jobs"), serde_json::to_value(&jobs))]);
    let doc = client.call("batch", Some(&params), None).unwrap();
    assert_eq!(response_error_kind(&doc), Some("internal"), "{doc:?}");
    {
        let mut runs = RUNS.0.lock().unwrap();
        assert!(runs.panicked);
        assert_eq!(runs.distinct_threads(), 2, "the panic ran on a helper");
        *runs = Census::EMPTY;
    }
    // The helper thread survived: the next batch still runs two-way.
    let doc = client
        .call("batch", Some(&batch_params("e2e-meet", [6, 7])), None)
        .unwrap();
    assert!(response_result(&doc).is_some(), "{doc:?}");
    let runs = RUNS.0.lock().unwrap();
    assert_eq!(runs.peak, 2, "the second batch ran two-way");
    assert_eq!(runs.distinct_threads(), 2);
    drop(runs);
    handle.shutdown();
    handle.join();
}
