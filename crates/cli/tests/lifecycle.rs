//! Daemon lifecycle tests against a real `ssim serve` process: pidfile
//! create/remove, SIGTERM graceful drain, a span stream that survives
//! SIGKILL, and cache-file integrity when a drain is killed halfway.

use sharing_http::request;
use sharing_server::ResultCache;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn unique_path(stem: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("ssimd-test-{}-{stem}-{n}", std::process::id()))
}

/// Spawns `ssim serve` with the given extra flags and returns the child
/// plus the TCP and HTTP addresses parsed from its startup log.
fn spawn_daemon(extra: &[&str]) -> (Child, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ssim"));
    cmd.args([
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--http",
        "127.0.0.1:0",
        "--workers",
        "1",
    ])
    .args(extra)
    .stdout(Stdio::null())
    .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn ssim serve");
    let stderr = child.stderr.take().expect("stderr piped");
    let mut reader = BufReader::new(stderr);
    let mut tcp = None;
    let mut http = None;
    while tcp.is_none() || http.is_none() {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read daemon stderr");
        assert_ne!(n, 0, "daemon exited before announcing its addresses");
        if let Some(rest) = line.strip_prefix("ssim serve: http listening on ") {
            http = Some(rest.trim().to_string());
        } else if let Some(rest) = line.strip_prefix("ssim serve: listening on ") {
            tcp = Some(rest.split_whitespace().next().unwrap().to_string());
        }
    }
    // Keep draining stderr so the daemon never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while reader.read_line(&mut sink).is_ok_and(|n| n > 0) {
            sink.clear();
        }
    });
    (child, tcp.unwrap(), http.unwrap())
}

fn send_signal(pid: u32, sig: &str) {
    let status = Command::new("sh")
        .arg("-c")
        .arg(format!("kill -s {sig} {pid}"))
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -s {sig} {pid} failed");
}

fn wait_with_timeout(child: &mut Child, timeout: Duration) -> std::process::ExitStatus {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        assert!(Instant::now() < deadline, "daemon did not exit in time");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Submits one small run job over raw TCP and waits for its reply.
fn submit_quick_job(addr: &str) {
    use std::io::Write;
    let mut stream = std::net::TcpStream::connect(addr).expect("connect tcp");
    stream
        .write_all(b"{\"proto\":2,\"type\":\"run\",\"benchmark\":\"gcc\",\"slices\":1,\"banks\":2,\"len\":500,\"seed\":1}\n")
        .unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":true"), "{line}");
}

/// Fires one slow run job over raw TCP without waiting for the reply;
/// returns the open stream so the connection outlives the call.
fn submit_slow_job(addr: &str) -> std::net::TcpStream {
    use std::io::Write;
    let mut stream = std::net::TcpStream::connect(addr).expect("connect tcp");
    stream
        .write_all(b"{\"proto\":2,\"type\":\"run\",\"benchmark\":\"gcc\",\"slices\":1,\"banks\":2,\"len\":400000,\"seed\":2}\n")
        .unwrap();
    stream
}

#[test]
fn pidfile_is_created_and_removed_by_sigterm_drain() {
    let pidfile = unique_path("pid");
    let (mut child, _tcp, http) = spawn_daemon(&["--pidfile", pidfile.to_str().unwrap()]);

    let content = std::fs::read_to_string(&pidfile).expect("pidfile written at startup");
    assert_eq!(content.trim().parse::<u32>().ok(), Some(child.id()));

    let (status, _) = request(&http, "GET", "/health", None).expect("health while up");
    assert_eq!(status, 200);

    send_signal(child.id(), "TERM");
    let status = wait_with_timeout(&mut child, Duration::from_secs(30));
    assert!(status.success(), "graceful drain should exit 0: {status:?}");
    assert!(
        !Path::new(&pidfile).exists(),
        "pidfile must be removed on exit"
    );
    // The front door is gone with the process.
    assert!(request(&http, "GET", "/health", None).is_err());
}

#[test]
fn sigkill_leaves_the_streamed_span_file_recoverable() {
    let trace_file = unique_path("trace").with_extension("jsonl");
    let trace_arg = trace_file.to_str().unwrap().to_string();
    let (mut child, tcp, _http) = spawn_daemon(&["--trace-out", &trace_arg]);

    // A traced job: the daemon streams its spans to the sink as they
    // happen (flushed per line), not at exit.
    {
        use std::io::Write;
        let mut stream = std::net::TcpStream::connect(&tcp).expect("connect tcp");
        stream
            .write_all(b"{\"proto\":2,\"trace\":55,\"type\":\"run\",\"benchmark\":\"gcc\",\"slices\":1,\"banks\":2,\"len\":500,\"seed\":1}\n")
            .unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        // First the spans line, then the result.
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"type\":\"spans\""), "{line}");
        assert!(line.contains("\"trace\":55"), "{line}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\":true"), "{line}");
    }

    // Wait for the writer thread to land the job's spans on disk, then
    // SIGKILL — no drain, no close, the crash case the sink exists for.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !std::fs::read_to_string(&trace_file)
        .map(|t| t.contains("\"trace\":55"))
        .unwrap_or(false)
    {
        assert!(Instant::now() < deadline, "spans never reached the sink");
        std::thread::sleep(Duration::from_millis(25));
    }
    send_signal(child.id(), "KILL");
    let _ = wait_with_timeout(&mut child, Duration::from_secs(30));

    // Every line in the file is a complete event, and the stream
    // re-wraps into a valid Chrome document with nothing skipped.
    let text = std::fs::read_to_string(&trace_file).unwrap();
    let (doc, skipped) = sharing_obs::jsonl_to_chrome(&text);
    assert_eq!(skipped, 0, "a kill between lines loses nothing:\n{text}");
    let v = sharing_json::Json::parse(&doc).expect("packed doc parses");
    let events = v
        .get("traceEvents")
        .and_then(sharing_json::Json::as_arr)
        .unwrap();
    assert!(
        events.iter().any(|e| {
            e.get("args")
                .and_then(|a| a.get("trace"))
                .and_then(sharing_json::Json::as_int)
                == Some(55)
        }),
        "traced job's span survived the kill: {doc}"
    );

    let _ = std::fs::remove_file(&trace_file);
}

#[test]
fn sigkill_mid_drain_leaves_the_cache_file_loadable() {
    let cache_file = unique_path("cache");
    let cache_arg = cache_file.to_str().unwrap().to_string();

    // First life: one cached job, then a graceful SIGTERM drain that
    // persists the cache file.
    let (mut child, tcp, _http) = spawn_daemon(&["--cache-file", &cache_arg]);
    submit_quick_job(&tcp);
    send_signal(child.id(), "TERM");
    let status = wait_with_timeout(&mut child, Duration::from_secs(30));
    assert!(status.success(), "{status:?}");
    let cache = ResultCache::new(64);
    let loaded = cache.load_from_file(&cache_file).expect("clean cache file");
    assert_eq!(loaded, 1, "the quick job's result was persisted");

    // Second life: a slow job is in flight; SIGTERM starts the drain and
    // SIGKILL lands mid-drain, before the (atomic tmp+rename) save can
    // replace the file. A stale half-written sibling tmp file must not
    // corrupt anything either.
    let (mut child, tcp, _http) = spawn_daemon(&["--cache-file", &cache_arg]);
    let _conn = submit_slow_job(&tcp);
    std::thread::sleep(Duration::from_millis(150));
    send_signal(child.id(), "TERM");
    send_signal(child.id(), "KILL");
    let _ = wait_with_timeout(&mut child, Duration::from_secs(30));
    std::fs::write(cache_file.with_extension("tmp"), b"garbage{{{").unwrap();

    let cache = ResultCache::new(64);
    let loaded = cache
        .load_from_file(&cache_file)
        .expect("cache file still parses after a mid-drain kill");
    assert_eq!(loaded, 1, "the previous life's entry survived intact");

    let _ = std::fs::remove_file(&cache_file);
    let _ = std::fs::remove_file(cache_file.with_extension("tmp"));
}
