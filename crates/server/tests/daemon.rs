//! End-to-end tests of the ssimd daemon over real TCP sockets.

use sharing_json::Json;
use sharing_market::{Market, UtilityFn};
use sharing_server::{
    Client, Envelope, ErrorCode, Job, Request, Server, ServerConfig, ServerError,
};
use sharing_trace::Benchmark;

fn gcc_run(slices: usize, banks: usize, len: usize, seed: u64) -> Job {
    Job::Run(sharing_server::RunJob {
        workload: sharing_server::JobWorkload::Benchmark(Benchmark::Gcc),
        slices,
        banks,
        len,
        seed,
    })
}

fn dc_job(scenario: sharing_dc::Scenario, seed: u64, mode: Option<sharing_dc::BillingMode>) -> Job {
    Job::Dc(Box::new(sharing_server::DcJob {
        scenario,
        seed,
        mode,
    }))
}

/// The typed error code of a reply, for code-based (never substring)
/// assertions.
fn code(v: &Json) -> Option<ErrorCode> {
    ServerError::from_reply(v).map(|e| e.code)
}

fn start(workers: usize, queue: usize) -> sharing_server::ServerHandle {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_capacity: queue,
        cache_capacity: 256,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

fn ok(v: &Json) -> bool {
    v.get("ok").and_then(Json::as_bool) == Some(true)
}

/// Pulls the raw serialized `"result"` payload out of a reply line, for
/// byte-level comparison.
fn raw_result_payload(line: &str) -> &str {
    let start = line.find("\"result\":").expect("result field") + "\"result\":".len();
    &line[start..line.len() - 1]
}

#[test]
fn ping_stats_and_error_replies() {
    let handle = start(1, 4);
    let mut c = Client::connect(handle.local_addr()).unwrap();
    assert!(c.ping().unwrap());

    let stats = c.stats().unwrap();
    assert_eq!(stats.get("jobs_completed").and_then(Json::as_int), Some(0));
    assert_eq!(stats.get("workers").and_then(Json::as_int), Some(1));

    // Malformed requests get an error reply, not a dropped connection.
    use std::io::Write;
    let mut raw = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    raw.write_all(b"this is not json\n").unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let mut line = String::new();
    std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
    let v = Json::parse(line.trim()).unwrap();
    assert_eq!(code(&v), Some(ErrorCode::BadRequest), "{v}");
    // An unknown request type gets its own code.
    raw.write_all(b"{\"type\":\"explode\"}\n").unwrap();
    line.clear();
    std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
    let v = Json::parse(line.trim()).unwrap();
    assert_eq!(code(&v), Some(ErrorCode::UnknownRequest), "{v}");
    // The connection is still usable afterwards.
    raw.write_all(b"{\"type\":\"ping\"}\n").unwrap();
    line.clear();
    std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
    assert!(ok(&Json::parse(line.trim()).unwrap()));

    handle.stop();
}

#[test]
fn hello_negotiates_and_future_protos_are_refused_with_a_typed_code() {
    let handle = start(1, 4);
    let mut c = Client::connect(handle.local_addr()).unwrap();
    assert_eq!(c.hello().unwrap(), sharing_server::PROTO_VERSION);

    // A request announcing a protocol from the future gets a
    // version_mismatch refusal, not a guess — and the connection lives on.
    let v = c
        .call(&Envelope {
            id: Some(9),
            proto: Some(sharing_server::PROTO_VERSION + 1),
            trace: None,
            req: Request::Ping,
        })
        .unwrap();
    assert_eq!(code(&v), Some(ErrorCode::VersionMismatch), "{v}");
    assert_eq!(v.get("id").and_then(Json::as_int), Some(9));
    assert!(c.ping().unwrap());

    // A versionless request is the v1 dialect: still accepted.
    let v = c
        .call(&Envelope {
            id: None,
            proto: None,
            trace: None,
            req: Request::Ping,
        })
        .unwrap();
    assert!(ok(&v), "{v}");

    handle.stop();
}

#[test]
fn metrics_request_returns_prometheus_text_and_trace_lands_on_shutdown() {
    let dir = std::env::temp_dir().join(format!("ssimd-trace-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Not a `.jsonl` name: every `trace_path` streams, whatever its suffix.
    let trace_path = dir.join("jobs.trace.json").to_string_lossy().into_owned();
    let handle = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 8,
        cache_capacity: 64,
        trace_path: Some(trace_path.clone()),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let mut c = Client::connect(handle.local_addr()).unwrap();
    c.submit(gcc_run(2, 2, 600, 5)).unwrap();
    c.submit(gcc_run(2, 2, 600, 5)).unwrap(); // cache hit
    c.submit(dc_job(
        small_scenario(),
        3,
        Some(sharing_dc::BillingMode::Sharing),
    ))
    .unwrap();

    // stats carries the queue-wait/execute split and per-kind counters.
    let stats = c.stats().unwrap();
    assert_eq!(stats.get("jobs_completed").and_then(Json::as_int), Some(3));
    assert!(stats
        .get("queue_wait_p50_us")
        .and_then(Json::as_int)
        .is_some());
    assert!(stats
        .get("queue_wait_p99_us")
        .and_then(Json::as_int)
        .is_some());
    assert!(stats.get("exec_p50_us").and_then(Json::as_int).is_some());
    let by_kind = stats.get("completed_by_kind").expect("kind breakdown");
    assert_eq!(by_kind.get("simulate").and_then(Json::as_int), Some(2));
    assert_eq!(by_kind.get("dc").and_then(Json::as_int), Some(1));

    // The metrics request answers with Prometheus text exposition.
    let text = c.metrics().unwrap();
    assert!(
        text.contains("# TYPE ssimd_jobs_completed_total counter"),
        "{text}"
    );
    assert!(
        text.contains("ssimd_jobs_completed_total{kind=\"simulate\"} 2"),
        "{text}"
    );
    assert!(
        text.contains("ssimd_jobs_completed_total{kind=\"dc\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("# TYPE ssimd_queue_wait_us histogram"),
        "{text}"
    );
    assert!(
        text.contains("ssimd_queue_wait_us_bucket{le=\"+Inf\"} 3"),
        "{text}"
    );
    assert!(text.contains("ssimd_queue_wait_us_count 3"), "{text}");
    assert!(text.contains("ssimd_latency_us_bucket{le=\""), "{text}");
    assert!(
        text.contains("ssimd_cache_lookups_total{outcome=\"hit\"} 1"),
        "{text}"
    );

    // Graceful shutdown flushes the per-job span stream; every line is
    // a complete event, and the stream packs into a Chrome trace.
    handle.stop();
    let stream = std::fs::read_to_string(&trace_path).expect("trace file written");
    let (trace, skipped) = sharing_obs::jsonl_to_chrome(&stream);
    assert_eq!(skipped, 0, "{stream}");
    let v = Json::parse(&trace).expect("trace is valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let job_spans: Vec<_> = events
        .iter()
        .filter(|e| e.get("cat").and_then(Json::as_str) == Some("ssimd"))
        .collect();
    assert_eq!(job_spans.len(), 3, "one span per executed job");
    for span in &job_spans {
        let args = span.get("args").expect("span args");
        assert!(args.get("queue_wait_us").and_then(Json::as_int).is_some());
        assert!(args.get("exec_us").and_then(Json::as_int).is_some());
        assert!(args.get("kind").and_then(Json::as_str).is_some());
        assert!(span.get("ts").and_then(Json::as_int).unwrap() >= 0);
        assert!(span.get("dur").and_then(Json::as_int).unwrap() >= 0);
    }
    let cached_flags: Vec<bool> = job_spans
        .iter()
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("cached"))
                .and_then(Json::as_bool)
        })
        .collect();
    assert!(
        cached_flags.contains(&true),
        "the warm run span marks the cache hit"
    );
    std::fs::remove_file(&trace_path).ok();
}

#[test]
fn start_fails_when_the_trace_file_cannot_be_created() {
    let missing = std::env::temp_dir()
        .join(format!("ssimd-no-such-dir-{}", std::process::id()))
        .join("x.jsonl")
        .to_string_lossy()
        .into_owned();
    let err = match Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        trace_path: Some(missing.clone()),
        ..ServerConfig::default()
    }) {
        Ok(handle) => {
            handle.stop();
            panic!("a trace path in a missing directory must fail startup");
        }
        Err(e) => e,
    };
    assert!(err.to_string().contains(&missing), "{err}");
}

#[test]
fn run_result_matches_local_simulation_and_cache_is_byte_identical() {
    let handle = start(2, 8);
    let mut c = Client::connect(handle.local_addr()).unwrap();

    // First submission: fresh.
    let env = Envelope {
        id: Some(1),
        proto: Some(sharing_server::PROTO_VERSION),
        trace: None,
        req: Request::Job(gcc_run(2, 2, 800, 42)),
    };
    c.send(&env).unwrap();
    let first = c.recv().unwrap();
    assert!(ok(&first), "{first}");
    assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(first.get("id").and_then(Json::as_int), Some(1));
    assert_eq!(
        first
            .get("result")
            .and_then(|r| r.get("instructions"))
            .and_then(Json::as_int),
        Some(800)
    );

    // Second submission: served from cache, byte-identical payload.
    c.send(&env).unwrap();
    let second = c.recv().unwrap();
    assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true));
    let first_line = first.to_string();
    let second_line = second.to_string();
    assert_eq!(
        raw_result_payload(&first_line),
        raw_result_payload(&second_line),
        "cache replay must be byte-identical"
    );

    // The payload also matches a local simulation exactly.
    let local = sharing_json::to_string(
        &sharing_server::exec::simulate(&sharing_server::RunJob {
            workload: sharing_server::JobWorkload::Benchmark(Benchmark::Gcc),
            slices: 2,
            banks: 2,
            len: 800,
            seed: 42,
        })
        .unwrap(),
    );
    assert_eq!(raw_result_payload(&first_line), local);

    let stats = c.stats().unwrap();
    assert_eq!(stats.get("cache_hits").and_then(Json::as_int), Some(1));
    assert_eq!(stats.get("cache_misses").and_then(Json::as_int), Some(1));

    handle.stop();
}

#[test]
fn queue_full_gets_backpressure_reply_and_recovers() {
    // One slow worker, queue of one: saturating it must produce explicit
    // backpressure replies, and draining must restore admission.
    let handle = start(1, 1);
    let addr = handle.local_addr();

    let job = |seed: u64| Envelope {
        id: Some(seed),
        proto: None,
        trace: None,
        req: Request::Job(Job::Run(sharing_server::RunJob {
            workload: sharing_server::JobWorkload::Benchmark(Benchmark::Mcf),
            slices: 1,
            banks: 2,
            len: 20_000,
            seed,
        })),
    };

    // Fire 6 jobs from 6 connections without reading replies: at most
    // 1 active + 1 queued can be admitted at any instant, so at least 4
    // must bounce.
    let mut clients: Vec<Client> = (0..6)
        .map(|i| {
            let mut c = Client::connect(addr).unwrap();
            c.send(&job(i)).unwrap();
            c
        })
        .collect();
    let replies: Vec<Json> = clients.iter_mut().map(|c| c.recv().unwrap()).collect();
    let rejected: Vec<&Json> = replies.iter().filter(|v| !ok(v)).collect();
    let accepted = replies.iter().filter(|v| ok(v)).count();
    assert!(
        rejected.len() >= 4,
        "expected >=4 backpressure replies, got {} of {replies:?}",
        rejected.len()
    );
    assert!(accepted >= 1, "at least the first job must be admitted");
    for r in &rejected {
        assert_eq!(code(r), Some(ErrorCode::QueueFull), "{r}");
        assert_eq!(
            r.get("backpressure").and_then(Json::as_bool),
            Some(true),
            "{r}"
        );
        assert!(r.get("queue_depth").and_then(Json::as_int).is_some());
    }

    // After the accepted work drains, the queue admits again.
    let mut c = Client::connect(addr).unwrap();
    let retry = c
        .submit(Job::Run(sharing_server::RunJob {
            workload: sharing_server::JobWorkload::Benchmark(Benchmark::Mcf),
            slices: 1,
            banks: 2,
            len: 500,
            seed: 99,
        }))
        .unwrap();
    assert!(ok(&retry), "{retry}");

    let stats = c.stats().unwrap();
    assert!(
        stats
            .get("jobs_rejected")
            .and_then(Json::as_int)
            .unwrap_or(0)
            >= 4,
        "rejections must be counted"
    );

    handle.stop();
}

#[test]
fn concurrent_clients_all_get_correct_results() {
    let handle = start(4, 32);
    let addr = handle.local_addr();
    let threads: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let reply = c.submit(gcc_run(1 + i, 2, 600, i as u64)).unwrap();
                assert!(ok(&reply), "{reply}");
                let insts = reply
                    .get("result")
                    .and_then(|r| r.get("instructions"))
                    .and_then(Json::as_int);
                assert_eq!(insts, Some(600));
                reply
                    .get("result")
                    .and_then(|r| r.get("cycles"))
                    .and_then(Json::as_int)
                    .expect("cycles")
            })
        })
        .collect();
    let cycles: Vec<i128> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    // Different shapes ⇒ different cycle counts (sanity that jobs were not
    // cross-wired between connections).
    assert_eq!(cycles.len(), 4);

    // Metrics are updated by the workers just after the reply is sent, so
    // give the counter a moment to settle.
    let mut c = Client::connect(addr).unwrap();
    let mut completed = 0;
    for _ in 0..50 {
        completed = c
            .stats()
            .unwrap()
            .get("jobs_completed")
            .and_then(Json::as_int)
            .unwrap_or(0);
        if completed == 4 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert_eq!(completed, 4);

    handle.stop();
}

#[test]
fn sweep_streams_points_and_market_picks_a_grid_shape() {
    let handle = start(2, 8);
    let mut c = Client::connect(handle.local_addr()).unwrap();

    let lines = c
        .submit_all(Job::Sweep(sharing_server::SweepJob {
            benchmark: Benchmark::Hmmer,
            len: 300,
            seed: 5,
        }))
        .unwrap();
    let done = lines.last().unwrap();
    assert_eq!(done.get("type").and_then(Json::as_str), Some("sweep_done"));
    assert_eq!(done.get("points").and_then(Json::as_int), Some(72));
    assert_eq!(lines.len(), 73, "72 streamed points plus the final line");
    for p in &lines[..72] {
        assert_eq!(p.get("type").and_then(Json::as_str), Some("sweep_point"));
        assert!(p.get("ipc").and_then(Json::as_f64).unwrap() > 0.0);
    }

    // A market evaluation over the same grid reuses the cache.
    let reply = c
        .submit(Job::Market(sharing_server::MarketJob {
            benchmark: Benchmark::Hmmer,
            utility: UtilityFn::Throughput,
            market: Market::MARKET2,
            budget: 100.0,
            len: 300,
            seed: 5,
        }))
        .unwrap();
    assert!(ok(&reply), "{reply}");
    let shape = reply.get("shape").expect("shape");
    let slices = shape.get("slices").and_then(Json::as_int).unwrap();
    assert!((1..=8).contains(&slices));
    let stats = c.stats().unwrap();
    assert_eq!(
        stats.get("cache_hits").and_then(Json::as_int),
        Some(72),
        "market evaluation should be fully cache-fed after the sweep"
    );

    handle.stop();
}

/// A scenario small enough for fast e2e runs but with enough churn to
/// exercise the market.
fn small_scenario() -> sharing_dc::Scenario {
    let mut sc = sharing_dc::Scenario::example_bursty();
    sc.name = "e2e-small".into();
    sc.chips = 2;
    sc.epochs = 8;
    sc.epoch_cycles = 10_000;
    sc
}

#[test]
fn dc_job_runs_a_scenario_and_caches_the_comparison() {
    let handle = start(2, 8);
    let mut c = Client::connect(handle.local_addr()).unwrap();

    let first = c.submit(dc_job(small_scenario(), 7, None)).unwrap();
    assert!(ok(&first), "{first}");
    assert_eq!(first.get("type").and_then(Json::as_str), Some("dc_result"));
    assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
    let result = first.get("result").expect("result");
    assert_eq!(
        result.get("scenario").and_then(Json::as_str),
        Some("e2e-small")
    );
    let sharing = result.get("sharing").expect("sharing totals");
    let fixed = result.get("fixed").expect("fixed totals");
    assert_eq!(sharing.get("epochs").and_then(Json::as_int), Some(8));
    assert_eq!(fixed.get("epochs").and_then(Json::as_int), Some(8));

    // The reply's totals match a local run of the same scenario exactly —
    // including the event-log hash, the strongest determinism check that
    // fits in one line.
    let local = sharing_dc::DcSim::new(small_scenario())
        .unwrap()
        .run(sharing_dc::BillingMode::Sharing, 7)
        .totals();
    assert_eq!(
        sharing.get("log_hash").and_then(Json::as_str),
        Some(local.log_hash.as_str())
    );
    assert_eq!(
        sharing.get("arrivals").and_then(Json::as_int),
        Some(i128::from(local.arrivals))
    );

    // Resubmission hits the cache with a byte-identical payload.
    let second = c.submit(dc_job(small_scenario(), 7, None)).unwrap();
    assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true));
    let first_line = first.to_string();
    let second_line = second.to_string();
    assert_eq!(
        raw_result_payload(&first_line),
        raw_result_payload(&second_line),
        "cache replay must be byte-identical"
    );

    // A single-mode run reports only that mode, under a different key.
    let only_fixed = c
        .submit(dc_job(
            small_scenario(),
            7,
            Some(sharing_dc::BillingMode::Fixed),
        ))
        .unwrap();
    assert!(ok(&only_fixed), "{only_fixed}");
    let r = only_fixed.get("result").unwrap();
    assert!(r.get("fixed").is_some());
    assert!(r.get("sharing").is_none());
    assert_eq!(
        only_fixed.get("cached").and_then(Json::as_bool),
        Some(false)
    );

    handle.stop();
}

#[test]
fn cache_persists_across_daemon_restarts() {
    let dir = std::env::temp_dir().join(format!("ssimd-cache-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.ssimd").to_string_lossy().into_owned();
    let cfg = || ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 8,
        cache_capacity: 256,
        cache_path: Some(path.clone()),
        ..ServerConfig::default()
    };

    // First daemon: run one simulation job and one dc job, then shut down
    // gracefully so the cache is persisted.
    let handle = Server::start(cfg()).expect("bind first daemon");
    let mut c = Client::connect(handle.local_addr()).unwrap();
    let run_fresh = c.submit(gcc_run(2, 2, 800, 42)).unwrap();
    assert_eq!(run_fresh.get("cached").and_then(Json::as_bool), Some(false));
    let dc_fresh = c.submit(dc_job(small_scenario(), 7, None)).unwrap();
    assert_eq!(dc_fresh.get("cached").and_then(Json::as_bool), Some(false));
    handle.stop();
    assert!(
        std::fs::metadata(&path).is_ok(),
        "graceful shutdown must write the cache file"
    );

    // Second daemon: both jobs are warm on the very first submission, and
    // the replayed payloads are byte-identical to the original runs.
    let handle = Server::start(cfg()).expect("bind second daemon");
    let mut c = Client::connect(handle.local_addr()).unwrap();
    let run_warm = c.submit(gcc_run(2, 2, 800, 42)).unwrap();
    assert_eq!(
        run_warm.get("cached").and_then(Json::as_bool),
        Some(true),
        "reloaded cache must serve the run job: {run_warm}"
    );
    let dc_warm = c.submit(dc_job(small_scenario(), 7, None)).unwrap();
    assert_eq!(dc_warm.get("cached").and_then(Json::as_bool), Some(true));
    let fresh_line = run_fresh.to_string();
    let warm_line = run_warm.to_string();
    assert_eq!(
        raw_result_payload(&fresh_line),
        raw_result_payload(&warm_line),
        "persisted replay must be byte-identical"
    );
    let dc_fresh_line = dc_fresh.to_string();
    let dc_warm_line = dc_warm.to_string();
    assert_eq!(
        raw_result_payload(&dc_fresh_line),
        raw_result_payload(&dc_warm_line),
        "persisted dc replay must be byte-identical"
    );
    handle.stop();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_drains_in_flight_jobs() {
    let handle = start(1, 4);
    let addr = handle.local_addr();

    // A slow-ish job occupies the single worker.
    let mut busy = Client::connect(addr).unwrap();
    busy.send(&Envelope {
        id: Some(1),
        proto: None,
        trace: None,
        req: Request::Job(gcc_run(1, 2, 30_000, 1)),
    })
    .unwrap();

    // Wait until the job is admitted before asking for shutdown — the
    // `send` above only guarantees the bytes left our socket.
    let mut admin = Client::connect(addr).unwrap();
    for _ in 0..100 {
        let submitted = admin
            .stats()
            .unwrap()
            .get("jobs_submitted")
            .and_then(Json::as_int)
            .unwrap_or(0);
        if submitted >= 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // Shutdown must wait for the drain.
    let reply = admin.shutdown().unwrap();
    assert!(ok(&reply), "{reply}");
    assert!(
        reply.get("jobs_completed").and_then(Json::as_int).unwrap() >= 1,
        "shutdown replied before the in-flight job drained: {reply}"
    );

    // The in-flight job still got its result.
    let result = busy.recv().unwrap();
    assert!(ok(&result), "{result}");
    assert_eq!(
        result
            .get("result")
            .and_then(|r| r.get("instructions"))
            .and_then(Json::as_int),
        Some(30_000)
    );

    handle.join();
    // The listener is gone: new connections are refused.
    assert!(Client::connect(addr).is_err());
}
