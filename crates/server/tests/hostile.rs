//! A request line at the 1 MiB limit, built around one long string, gets
//! a prompt typed reply on both front doors (TCP line and HTTP
//! `POST /jobs`), and the same daemon goes on serving afterwards. The
//! parser scans such a line in one pass; a scan that is quadratic in the
//! string's length would spend minutes of CPU on it.

use sharing_http::request;
use sharing_json::Json;
use sharing_server::protocol::MAX_LINE_BYTES;
use sharing_server::{
    Client, ErrorCode, Job, JobWorkload, RunJob, Server, ServerConfig, ServerError,
};
use sharing_trace::Benchmark;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Far above the linear parse of one line, far below a quadratic one.
const BOUND: Duration = Duration::from_secs(10);

/// A well-formed `run` envelope that is one string short of a request:
/// the parser must read the whole pad before the missing `benchmark`
/// field refuses it.
fn hostile_line() -> String {
    let pad = "a".repeat(MAX_LINE_BYTES - 64);
    format!("{{\"id\":7,\"type\":\"run\",\"pad\":\"{pad}\"}}")
}

fn assert_bad_request(what: &str, reply: &str) {
    let v = Json::parse(reply.trim()).unwrap_or_else(|e| panic!("{what}: {e}: {reply}"));
    let err = ServerError::from_reply(&v).unwrap_or_else(|| panic!("{what}: not an error: {v}"));
    assert_eq!(err.code, ErrorCode::BadRequest, "{what}: {v}");
    assert!(err.message.contains("`benchmark`"), "{what}: {v}");
}

#[test]
fn a_one_mib_line_gets_a_prompt_typed_reply_on_tcp_and_http() {
    let handle = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 4,
        cache_capacity: 16,
        http_addr: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral ports");
    let line = hostile_line();
    assert!(line.len() < MAX_LINE_BYTES);

    // TCP: one line, one reply, and the connection stays usable.
    let mut raw = TcpStream::connect(handle.local_addr()).unwrap();
    raw.set_read_timeout(Some(BOUND)).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let t0 = Instant::now();
    raw.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let took = t0.elapsed();
    assert_bad_request("tcp", &reply);
    assert!(took < BOUND, "tcp reply took {took:?}");
    raw.write_all(b"{\"type\":\"ping\"}\n").unwrap();
    reply.clear();
    reader.read_line(&mut reply).unwrap();
    let pong = Json::parse(reply.trim()).unwrap();
    assert_eq!(
        pong.get("type").and_then(Json::as_str),
        Some("pong"),
        "{pong}"
    );

    // HTTP: the same bytes as a `POST /jobs` body.
    let http = handle.http_addr().expect("http configured").to_string();
    let t0 = Instant::now();
    let (status, body) = request(&http, "POST", "/jobs", Some(line.as_bytes())).unwrap();
    let took = t0.elapsed();
    assert_eq!(status, 400);
    assert_bad_request("http", &String::from_utf8_lossy(&body));
    assert!(took < BOUND, "http reply took {took:?}");

    // The daemon still answers a ping and computes a run job correctly.
    let job = RunJob {
        workload: JobWorkload::Benchmark(Benchmark::Gcc),
        slices: 2,
        banks: 2,
        len: 800,
        seed: 42,
    };
    let local = sharing_json::to_string(&sharing_server::exec::simulate(&job).unwrap());
    let mut c = Client::connect(handle.local_addr()).unwrap();
    assert!(c.ping().unwrap());
    let reply = c.submit(Job::Run(job)).unwrap();
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "{reply}"
    );
    assert_eq!(reply.get("result"), Some(&Json::parse(&local).unwrap()));

    handle.stop();
}
