//! Multi-node tests: a coordinator ssimd fanning a sweep out over real
//! worker daemons on loopback, including a worker killed mid-sweep.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use sharing_json::Json;
use sharing_server::{Server, ServerConfig, ServerHandle};

fn daemon() -> ServerHandle {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 256,
        ..ServerConfig::default()
    })
    .expect("bind worker daemon")
}

fn coordinator(worker_addrs: Vec<String>) -> ServerHandle {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 256,
        remote_workers: worker_addrs,
        ping_interval_ms: 100,
        ..ServerConfig::default()
    })
    .expect("bind coordinator")
}

/// One fixed sweep request, sent byte-for-byte identically to every
/// daemon under test so replies can be compared byte-for-byte too.
const SWEEP_REQ: &[u8] =
    b"{\"id\":1,\"type\":\"sweep\",\"benchmark\":\"gcc\",\"len\":2000,\"seed\":9}\n";

/// Streams one sweep over a raw socket and returns the reply lines
/// verbatim (72 `sweep_point`s then `sweep_done` on success).
/// `after_first` runs once the first line has arrived — the hook the
/// kill test uses to stop a worker mid-sweep.
fn raw_sweep(addr: std::net::SocketAddr, mut after_first: impl FnMut()) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(SWEEP_REQ).expect("send sweep");
    let mut reader = BufReader::new(stream);
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read reply") == 0 {
            panic!("connection closed mid-sweep after {} lines", lines.len());
        }
        let line = line.trim_end().to_string();
        let v = Json::parse(&line).expect("reply is JSON");
        let ty = v.get("type").and_then(Json::as_str).map(str::to_string);
        lines.push(line);
        if lines.len() == 1 {
            after_first();
        }
        match ty.as_deref() {
            Some("sweep_point") => {}
            Some("sweep_done") => return lines,
            other => panic!("unexpected reply type {other:?}: {}", lines.last().unwrap()),
        }
    }
}

fn metrics_text(addr: std::net::SocketAddr) -> String {
    let mut c = sharing_server::Client::connect(addr).unwrap();
    c.metrics().unwrap()
}

/// Reads one counter/gauge sample value out of Prometheus text.
fn sample(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

#[test]
fn coordinator_sweep_over_two_workers_is_byte_identical_to_single_node() {
    let single = daemon();
    let reference = raw_sweep(single.local_addr(), || {});
    single.stop();
    assert_eq!(reference.len(), 73, "72 points + sweep_done");

    let w1 = daemon();
    let w2 = daemon();
    let coord = coordinator(vec![
        w1.local_addr().to_string(),
        w2.local_addr().to_string(),
    ]);

    let fanned = raw_sweep(coord.local_addr(), || {});
    assert_eq!(fanned, reference, "fan-out must not change a single byte");

    // Every cache miss was dispatched remotely, spread over both workers.
    let text = metrics_text(coord.local_addr());
    assert_eq!(
        sample(&text, "ssimd_dispatched_total"),
        Some(72.0),
        "{text}"
    );
    assert_eq!(sample(&text, "ssimd_workers_configured"), Some(2.0));
    assert_eq!(sample(&text, "ssimd_workers_healthy"), Some(2.0));
    for w in [&w1, &w2] {
        let name = format!(
            "ssimd_worker_dispatched_total{{worker=\"{}\"}}",
            w.local_addr()
        );
        assert!(
            sample(&text, &name).is_some_and(|n| n > 0.0),
            "both workers should have taken points: {text}"
        );
    }

    // A repeat sweep is answered from the coordinator's own cache —
    // still byte-identical except for the per-point `cached` flag.
    let replay = raw_sweep(coord.local_addr(), || {});
    assert_eq!(replay.len(), reference.len());
    for (r, f) in replay.iter().zip(&reference) {
        assert_eq!(r.replace("\"cached\":true", "\"cached\":false"), *f);
    }
    let text = metrics_text(coord.local_addr());
    assert_eq!(
        sample(&text, "ssimd_dispatched_total"),
        Some(72.0),
        "replay must not re-dispatch: {text}"
    );

    coord.stop();
    w1.stop();
    w2.stop();
}

#[test]
fn worker_killed_mid_sweep_is_retried_on_the_survivor_byte_identically() {
    let single = daemon();
    let reference = raw_sweep(single.local_addr(), || {});
    single.stop();

    let w1 = daemon();
    let w2 = daemon();
    let coord = coordinator(vec![
        w1.local_addr().to_string(),
        w2.local_addr().to_string(),
    ]);

    // Kill w1 as soon as the first point lands. Its in-flight point (if
    // any) drains, then every later dispatch to it is refused, so the
    // coordinator must re-queue that work onto w2.
    let mut killer = Some(w1);
    let fanned = raw_sweep(coord.local_addr(), || {
        if let Some(w) = killer.take() {
            w.stop();
        }
    });
    assert_eq!(
        fanned, reference,
        "losing a worker mid-sweep must not change a single byte"
    );

    // The failure is visible, not silent: retries were taken and the
    // pool now counts one healthy worker of two.
    let text = metrics_text(coord.local_addr());
    assert!(
        sample(&text, "ssimd_dispatch_retries_total").is_some_and(|n| n >= 1.0),
        "expected at least one recorded retry: {text}"
    );
    assert_eq!(sample(&text, "ssimd_workers_configured"), Some(2.0));
    assert_eq!(sample(&text, "ssimd_workers_healthy"), Some(1.0), "{text}");

    coord.stop();
    w2.stop();
}

/// A worker that is alive but stalled: it answers `hello` and `ping`
/// promptly (so registration succeeds and health probes keep calling it
/// healthy) but never replies to a job request until `stop` flips.
fn stalling_worker() -> (
    std::net::SocketAddr,
    std::sync::Arc<std::sync::atomic::AtomicBool>,
) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind staller");
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let accept_flag = Arc::clone(&stop);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_flag.load(Ordering::SeqCst) {
                return;
            }
            let Ok(stream) = stream else { return };
            let conn_flag = Arc::clone(&accept_flag);
            std::thread::spawn(move || {
                let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
                let mut writer = stream;
                loop {
                    let mut line = String::new();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => return,
                        Ok(_) => {}
                    }
                    let reply = if line.contains("\"hello\"") {
                        format!(
                            "{{\"ok\":true,\"type\":\"hello\",\"proto\":{},\"min_proto\":{},\
                             \"client_proto\":{}}}\n",
                            sharing_server::PROTO_VERSION,
                            sharing_server::MIN_PROTO,
                            sharing_server::PROTO_VERSION,
                        )
                    } else if line.contains("\"ping\"") {
                        "{\"ok\":true,\"type\":\"pong\"}\n".to_string()
                    } else {
                        // A job: stall silently. The connection stays
                        // open — slow, not dead.
                        while !conn_flag.load(Ordering::SeqCst) {
                            std::thread::sleep(std::time::Duration::from_millis(25));
                        }
                        return;
                    };
                    if writer.write_all(reply.as_bytes()).is_err() {
                        return;
                    }
                }
            });
        }
    });
    (addr, stop)
}

#[test]
fn slow_but_alive_worker_times_out_and_work_lands_on_the_survivor() {
    let single = daemon();
    let reference = raw_sweep(single.local_addr(), || {});
    single.stop();

    let (slow_addr, stop_staller) = stalling_worker();
    let real = daemon();
    let coord = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 256,
        remote_workers: vec![slow_addr.to_string(), real.local_addr().to_string()],
        // Short enough that stalled exchanges time out quickly; the
        // staller burns its retry budget, then its points re-queue.
        job_timeout_ms: 300,
        dispatch_retries: 1,
        ping_interval_ms: 100,
        ..ServerConfig::default()
    })
    .expect("bind coordinator");

    let fanned = raw_sweep(coord.local_addr(), || {});
    assert_eq!(
        fanned, reference,
        "a stalled worker must not change a single byte"
    );

    // The grid marks the staller broken once its retries run out, which
    // can be the sweep's last event. The staller answers every health
    // probe: it is slow, not dead, so the next probe (every 100 ms)
    // re-admits it and the pool counts both workers healthy again.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let text = loop {
        let text = metrics_text(coord.local_addr());
        if sample(&text, "ssimd_workers_healthy") == Some(2.0)
            || std::time::Instant::now() > deadline
        {
            break text;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    };
    assert!(
        sample(&text, "ssimd_dispatch_retries_total").is_some_and(|n| n >= 1.0),
        "timeouts on the stalled worker must be counted as retries: {text}"
    );
    assert_eq!(sample(&text, "ssimd_workers_healthy"), Some(2.0), "{text}");

    coord.stop();
    real.stop();
    stop_staller.store(true, std::sync::atomic::Ordering::SeqCst);
    // Unblock the staller's accept loop so its thread can exit.
    let _ = TcpStream::connect(slow_addr);
}

/// A worker that answers `hello` and `ping` but drops the connection on
/// every job it is sent, as a job that kills its worker would. Returns
/// its address and the count of job lines it has taken.
fn dropping_worker() -> (
    std::net::SocketAddr,
    std::sync::Arc<std::sync::atomic::AtomicUsize>,
) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind dropper");
    let addr = listener.local_addr().unwrap();
    let jobs = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&jobs);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { return };
            let seen = Arc::clone(&seen);
            std::thread::spawn(move || {
                let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
                let mut writer = stream;
                loop {
                    let mut line = String::new();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => return,
                        Ok(_) => {}
                    }
                    let reply = if line.contains("\"hello\"") {
                        format!(
                            "{{\"ok\":true,\"type\":\"hello\",\"proto\":{},\"min_proto\":{},\
                             \"client_proto\":{}}}\n",
                            sharing_server::PROTO_VERSION,
                            sharing_server::MIN_PROTO,
                            sharing_server::PROTO_VERSION,
                        )
                    } else if line.contains("\"ping\"") {
                        "{\"ok\":true,\"type\":\"pong\"}\n".to_string()
                    } else {
                        // A job: count it and drop the connection unanswered.
                        seen.fetch_add(1, Ordering::SeqCst);
                        return;
                    };
                    if writer.write_all(reply.as_bytes()).is_err() {
                        return;
                    }
                }
            });
        }
    });
    (addr, jobs)
}

#[test]
fn a_job_that_drops_every_worker_is_retried_a_bounded_number_of_times() {
    use std::sync::atomic::Ordering;
    const RETRIES: u32 = 3;
    // One worker more than attempts, so every attempt finds a worker the
    // pool still counts healthy.
    let workers: Vec<_> = (0..=RETRIES + 1).map(|_| dropping_worker()).collect();
    let coord = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 4,
        cache_capacity: 16,
        remote_workers: workers.iter().map(|(a, _)| a.to_string()).collect(),
        dispatch_retries: RETRIES,
        ping_interval_ms: 100,
        ..ServerConfig::default()
    })
    .expect("bind coordinator");

    let started = std::time::Instant::now();
    let mut stream = TcpStream::connect(coord.local_addr()).expect("connect");
    stream
        .write_all(b"{\"type\":\"run\",\"benchmark\":\"gcc\",\"len\":2000,\"seed\":3}\n")
        .expect("send job");
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .expect("read reply");
    let elapsed = started.elapsed();
    let v = Json::parse(reply.trim()).expect("reply is JSON");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{reply}");
    assert_eq!(
        v.get("code").and_then(Json::as_str),
        Some("worker_unavailable"),
        "{reply}"
    );

    let taken: Vec<usize> = workers
        .iter()
        .map(|(_, jobs)| jobs.load(Ordering::SeqCst))
        .collect();
    let attempts: usize = taken.iter().sum();
    assert_eq!(
        attempts,
        RETRIES as usize + 1,
        "attempts per worker {taken:?}"
    );
    assert!(
        taken.iter().all(|&n| n <= RETRIES as usize + 1),
        "attempts per worker {taken:?}"
    );
    // Backoff doubles from 50 ms, so three retries sleep at most 350 ms;
    // each refused exchange returns at once.
    let max_retry_time = sharing_server::DispatchOpts::default().max_retry_time;
    assert!(elapsed < max_retry_time, "{elapsed:?}");
    assert!(elapsed < std::time::Duration::from_secs(5), "{elapsed:?}");
    let text = metrics_text(coord.local_addr());
    assert_eq!(
        sample(&text, "ssimd_dispatch_retries_total"),
        Some(f64::from(RETRIES)),
        "{text}"
    );
    coord.stop();
}

#[test]
fn coordinator_scrape_federates_worker_expositions_under_instance_labels() {
    let w1 = daemon();
    let w2 = daemon();
    let coord = coordinator(vec![
        w1.local_addr().to_string(),
        w2.local_addr().to_string(),
    ]);

    let text = metrics_text(coord.local_addr());
    // The coordinator's own samples stay bare, so existing dashboards
    // and exact greps keep working...
    assert!(sample(&text, "ssimd_queue_depth").is_some(), "{text}");
    assert!(text.contains("ssimd_build_info{"), "{text}");
    // ...and each healthy worker's full exposition rides along in the
    // same scrape under its instance label.
    for k in 0..2 {
        let depth = format!("ssimd_queue_depth{{instance=\"worker:{k}\"}}");
        assert_eq!(sample(&text, &depth), Some(0.0), "{text}");
        let uptime = format!("ssimd_uptime_seconds{{instance=\"worker:{k}\"}}");
        assert!(sample(&text, &uptime).is_some(), "{text}");
    }

    // A dead worker drops out of the scrape instead of failing it.
    w2.stop();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let text = metrics_text(coord.local_addr());
        if !text.contains("instance=\"worker:1\"") {
            assert!(text.contains("instance=\"worker:0\""), "{text}");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "dead worker still federated: {text}"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    coord.stop();
    w1.stop();
}

#[test]
fn traced_job_yields_one_merged_trace_with_coordinator_and_worker_tracks() {
    use sharing_server::{Client, Job, JobWorkload, RunJob};
    const TRACE_ID: u64 = 31337;

    let w1 = daemon();
    let w2 = daemon();
    let path = std::env::temp_dir().join(format!(
        "ssimd-test-merged-{}.trace.jsonl",
        std::process::id()
    ));
    let coord = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 256,
        remote_workers: vec![w1.local_addr().to_string(), w2.local_addr().to_string()],
        ping_interval_ms: 100,
        trace_path: Some(path.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    })
    .expect("bind coordinator");

    let mut client = Client::connect(coord.local_addr()).unwrap();
    client.hello().unwrap();
    let lines = client
        .submit_all_traced(
            Job::Run(RunJob {
                workload: JobWorkload::Benchmark(sharing_trace::Benchmark::Gcc),
                slices: 2,
                banks: 4,
                len: 2_000,
                seed: 9,
            }),
            Some(TRACE_ID),
        )
        .unwrap();

    // The traced submit streams a `spans` line ahead of the final reply.
    let last = lines.last().expect("job produced replies");
    assert_eq!(last.get("ok").and_then(Json::as_bool), Some(true), "{last}");
    assert_eq!(last.get("type").and_then(Json::as_str), Some("result"));
    let spans_lines: Vec<_> = lines[..lines.len() - 1]
        .iter()
        .filter(|v| v.get("type").and_then(Json::as_str) == Some("spans"))
        .collect();
    assert!(!spans_lines.is_empty(), "no spans line before the result");
    assert_eq!(
        spans_lines[0].get("trace").and_then(Json::as_int),
        Some(i128::from(TRACE_ID))
    );

    // Stopping the coordinator drains the streaming sink; the one file
    // then holds the whole distributed story under the trace id:
    // coordinator queue/execute span, its dispatch span (track 1000+k),
    // and the worker's relayed execution span (track 2000+k).
    coord.stop();
    w1.stop();
    w2.stop();
    let text = std::fs::read_to_string(&path).expect("streamed trace file");
    let mut tids = std::collections::HashSet::new();
    let mut traced = 0usize;
    for line in text.lines() {
        let v = Json::parse(line).expect("every streamed line is complete JSON");
        if v.get("args")
            .and_then(|a| a.get("trace"))
            .and_then(Json::as_int)
            == Some(i128::from(TRACE_ID))
        {
            traced += 1;
            tids.insert(v.get("tid").and_then(Json::as_int).unwrap_or(-1));
        }
    }
    assert!(
        traced >= 3,
        "want coordinator + dispatch + relayed worker spans, got {traced}:\n{text}"
    );
    assert!(
        tids.iter().any(|t| (1000..1002).contains(t)),
        "no dispatch-track span: {tids:?}"
    );
    assert!(
        tids.iter().any(|t| (2000..2002).contains(t)),
        "no relayed worker-track span: {tids:?}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn coordinator_refuses_to_start_without_reachable_workers() {
    // Reserve an address that is then closed again: nothing listens there.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let err = match Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 4,
        cache_capacity: 16,
        remote_workers: vec![dead.clone()],
        ..ServerConfig::default()
    }) {
        Ok(_) => panic!("registration against a dead worker must fail"),
        Err(e) => e,
    };
    assert!(err.to_string().contains(&dead), "{err}");
}
