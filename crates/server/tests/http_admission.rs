//! Both front doors share one admission path, chaos seam included: with
//! a `queue_full_storm` armed, `POST /jobs` answers 503 `queue_full`
//! with the same refusal line a TCP client gets.
//!
//! One `#[test]` in its own binary, because the chaos handle is
//! process-global; parallel tests in this binary would share it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use sharing_chaos::{hooks, FaultKind, FaultPlan, FaultRule};
use sharing_http::request;
use sharing_json::Json;
use sharing_server::{Server, ServerConfig};

const RUN: &str = r#"{"id":4,"type":"run","benchmark":"gcc","len":500,"seed":1}"#;

#[test]
fn a_queue_full_storm_refuses_http_submissions_like_tcp() {
    let handle = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 4,
        cache_capacity: 0,
        http_addr: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral ports");
    let http = handle.http_addr().expect("http configured").to_string();

    hooks().arm(
        FaultPlan::new(23)
            .with_rule(FaultRule::nth("queue", FaultKind::QueueFullStorm, 1).lasting_ms(60_000)),
    );
    let (status, body) = request(&http, "POST", "/jobs", Some(RUN.as_bytes())).unwrap();
    let mut tcp = TcpStream::connect(handle.local_addr()).unwrap();
    tcp.write_all(format!("{RUN}\n").as_bytes()).unwrap();
    let mut tcp_line = String::new();
    BufReader::new(&tcp).read_line(&mut tcp_line).unwrap();
    hooks().disarm();

    let body = String::from_utf8_lossy(&body).into_owned();
    assert_eq!(status, 503, "{body}");
    let v = Json::parse(&body).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{body}");
    assert_eq!(v.get("code").and_then(Json::as_str), Some("queue_full"));
    assert_eq!(v.get("backpressure").and_then(Json::as_bool), Some(true));
    assert_eq!(v.get("queue_depth").and_then(Json::as_int), Some(0));
    assert_eq!(body, tcp_line.trim_end(), "one refusal line for both doors");

    // Storm over: the same body is admitted.
    let (status, body) = request(&http, "POST", "/jobs", Some(RUN.as_bytes())).unwrap();
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    handle.stop();
}
