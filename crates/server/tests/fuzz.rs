//! Seeded no-panic fuzzing of the request parsers (see DESIGN.md §6).
//!
//! Valid request lines are mutated by byte flips, truncations, and
//! splices of structural tokens, long strings and wide objects, then fed
//! to `Json::parse` and `Envelope::parse`. Whatever the bytes, neither may
//! panic, and each failure must be a typed error: a `JsonError` naming an
//! offset inside the input, a `ServerError` whose reply line carries a
//! parse-class code. The same mutations hit `FaultPlan::parse` (the
//! `SSIM_CHAOS_PLAN` text). HTTP requests for the front door's
//! `RequestParser` are mutated the same way plus oversized heads and
//! bodies, and fed split across random `feed` calls; every failure must
//! be an `HttpError` at its status (400 malformed, 413 oversized), and
//! the split must not change the outcome. The stream is seeded, so a
//! failure reproduces by its printed case number alone.

use sharing_chaos::{FaultKind, FaultPlan, FaultRule};
use sharing_http::{HttpError, Limits, RequestParser};
use sharing_json::Json;
use sharing_market::{Market, UtilityFn};
use sharing_server::{
    DcJob, Envelope, ErrorCode, Job, JobWorkload, MarketJob, Request, RunJob, ServerError,
    SweepJob, PROTO_VERSION,
};
use sharing_trace::{Benchmark, Rng64};
use std::panic::{catch_unwind, AssertUnwindSafe};

const CASES: u64 = 2_000;

/// One valid line per request type, as a client writes them.
fn valid_lines() -> Vec<String> {
    let mut scenario = sharing_dc::Scenario::example_bursty();
    scenario.chips = 2;
    scenario.epochs = 4;
    let run = RunJob {
        workload: JobWorkload::Benchmark(Benchmark::Gcc),
        slices: 2,
        banks: 4,
        len: 5_000,
        seed: 9,
    };
    let reqs = [
        Request::Hello {
            proto: PROTO_VERSION,
        },
        Request::Ping,
        Request::Stats,
        Request::Metrics,
        Request::Job(Job::Run(run)),
        Request::Job(Job::Sweep(SweepJob {
            benchmark: Benchmark::Mcf,
            len: 2_000,
            seed: 3,
        })),
        Request::Job(Job::Market(MarketJob {
            benchmark: Benchmark::Hmmer,
            utility: UtilityFn::Throughput,
            market: Market::MARKET2,
            budget: 100.0,
            len: 300,
            seed: 5,
        })),
        Request::Job(Job::Dc(Box::new(DcJob {
            scenario,
            seed: 7,
            mode: None,
        }))),
    ];
    reqs.into_iter()
        .enumerate()
        .map(|(i, req)| {
            Envelope {
                id: Some(i as u64),
                proto: Some(PROTO_VERSION),
                trace: Some(0xABC),
                req,
            }
            .to_line()
        })
        .collect()
}

/// Short fragments that steer the parser into its error paths.
const TOKENS: [&str; 16] = [
    "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "\\ud83d", "\\u00e9", "1e999", "-0", "null",
    "é😀", "\u{1}",
];

/// A long string literal, or a raw run of text with no quotes at all.
fn long_string(rng: &mut Rng64) -> String {
    let body = "a".repeat(rng.usize_inclusive(1, 32 << 10));
    if rng.bool(0.5) {
        format!("\"{body}\"")
    } else {
        body
    }
}

/// An object with many keys, sometimes repeating its first key last.
fn wide_object(rng: &mut Rng64) -> String {
    let n = rng.usize_inclusive(1, 2_048);
    let mut s = String::from("{");
    for i in 0..n {
        s.push_str(&format!("\"k{i}\":{i},"));
    }
    s.push_str(if rng.bool(0.5) {
        "\"k0\":0}"
    } else {
        "\"end\":0}"
    });
    s
}

/// One to four random mutations of `line`.
fn mutate(rng: &mut Rng64, line: &str) -> Vec<u8> {
    let mut b = line.as_bytes().to_vec();
    for _ in 0..rng.usize_inclusive(1, 4) {
        let at = rng.usize_inclusive(0, b.len());
        match rng.below(6) {
            0 if at < b.len() => b[at] ^= 1 << rng.below(8),
            1 if at < b.len() => b[at] = rng.below(256) as u8,
            2 => b.truncate(at),
            3 => {
                let t = TOKENS[rng.below(TOKENS.len() as u64) as usize];
                b.splice(at..at, t.bytes());
            }
            4 => {
                let s = long_string(rng);
                b.splice(at..at, s.into_bytes());
            }
            _ => {
                let s = wide_object(rng);
                b.splice(at..at, s.into_bytes());
            }
        }
    }
    b
}

/// The `N` of a parser error's trailing `at byte N`.
fn error_offset(e: &str) -> Option<usize> {
    e.rsplit_once(" at byte ")?.1.parse().ok()
}

fn check(case: u64, text: &str) {
    match Json::parse(text) {
        Ok(_) => {}
        Err(e) => {
            let at = error_offset(&e.0);
            assert!(
                at.is_some_and(|at| at <= text.len()),
                "case {case}: untyped JSON error {e}"
            );
        }
    }
    match Envelope::parse(text) {
        Ok(env) => {
            let again = Envelope::parse(&env.to_line());
            assert!(
                again.is_ok(),
                "case {case}: accepted envelope does not re-parse: {again:?}"
            );
        }
        Err(e) => {
            assert!(
                matches!(e.code, ErrorCode::BadRequest | ErrorCode::UnknownRequest),
                "case {case}: {e:?}"
            );
            let reply = Json::parse(&e.to_line(None)).expect("error replies are JSON");
            assert_eq!(ServerError::from_reply(&reply), Some(e), "case {case}");
        }
    }
}

#[test]
fn mutated_requests_never_panic_the_parsers() {
    let lines = valid_lines();
    for line in &lines {
        Envelope::parse(line).expect("seed lines are valid");
    }
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0xF022 + case);
        let line = &lines[rng.below(lines.len() as u64) as usize];
        let bytes = mutate(&mut rng, line);
        let text = String::from_utf8_lossy(&bytes);
        if catch_unwind(AssertUnwindSafe(|| check(case, &text))).is_err() {
            let head: String = text.chars().take(200).collect();
            panic!("case {case}: parser panicked or check failed on {head:?}");
        }
    }
}

#[test]
fn mutated_fault_plans_never_panic_the_plan_parser() {
    let plans: Vec<String> = vec![
        FaultPlan::example(7).to_json_string(),
        FaultPlan::smoke(2014).to_json_pretty(),
        FaultPlan::new(3)
            .with_rule(
                FaultRule::probability("queue", FaultKind::QueueFullStorm, 0.25).lasting_ms(9),
            )
            .to_json_string(),
    ];
    for plan in &plans {
        FaultPlan::parse(plan).expect("seed plans are valid");
    }
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0xC4A05 + case);
        let plan = &plans[rng.below(plans.len() as u64) as usize];
        let bytes = mutate(&mut rng, plan);
        let text = String::from_utf8_lossy(&bytes);
        let checked = catch_unwind(AssertUnwindSafe(|| match FaultPlan::parse(&text) {
            // An accepted plan is a valid one, and it prints back to
            // text that parses to the same plan.
            Ok(parsed) => {
                assert_eq!(parsed.validate(), Ok(()), "case {case}");
                let again = FaultPlan::parse(&parsed.to_json_string());
                assert_eq!(again.as_ref(), Ok(&parsed), "case {case}");
            }
            Err(e) => assert!(!e.is_empty(), "case {case}: empty plan error"),
        }));
        if checked.is_err() {
            let head: String = text.chars().take(200).collect();
            panic!("case {case}: plan parser panicked or check failed on {head:?}");
        }
    }
}

/// Valid requests as clients send them, pipelined pairs included.
const HTTP_REQUESTS: [&str; 5] = [
    "GET /health HTTP/1.1\r\nHost: ssimd\r\n\r\n",
    "GET /jobs/7/raw?x=1 HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
    "POST /jobs HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 32\r\n\r\n\
     {\"type\":\"run\",\"benchmark\":\"gcc\"}",
    "GET /metrics HTTP/1.1\n\nGET /status HTTP/1.1\n\n",
    "POST /jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}GET /health HTTP/1.1\r\n\r\n",
];

/// Fragments that steer the HTTP parser into its error paths.
const HTTP_TOKENS: [&str; 12] = [
    "\r\n",
    "\n\n",
    "\r\n\r\n",
    " ",
    ":",
    "\t",
    "HTTP/2.0",
    "Content-Length: 5\r\n",
    "Content-Length: -1\r\n",
    "Content-Length: 99999999999999999999999\r\n",
    "Transfer-Encoding: chunked\r\n",
    "\u{e9}\u{1}",
];

/// Splices a header longer than the whole head budget in after the
/// first request line.
fn oversize_head(rng: &mut Rng64, b: &mut Vec<u8>, limits: Limits) {
    let line_end = b
        .iter()
        .position(|&c| c == b'\n')
        .map_or(b.len(), |i| i + 1);
    let pad = "v".repeat(limits.max_head_bytes + rng.usize_inclusive(1, 64));
    b.splice(line_end..line_end, format!("X-Pad: {pad}\r\n").into_bytes());
}

/// Splices in, at `at`, a request head declaring a body over the limit.
fn oversize_body(rng: &mut Rng64, b: &mut Vec<u8>, at: usize, limits: Limits) {
    let len = limits.max_body_bytes as u64 + rng.range_inclusive(1, 1 << 40);
    let head = format!("POST /jobs HTTP/1.1\r\nContent-Length: {len}\r\n\r\n");
    b.splice(at..at, head.into_bytes());
}

/// One to four random mutations of an HTTP request stream.
fn mutate_http(rng: &mut Rng64, req: &str, limits: Limits) -> Vec<u8> {
    let mut b = req.as_bytes().to_vec();
    for _ in 0..rng.usize_inclusive(1, 4) {
        let at = rng.usize_inclusive(0, b.len());
        match rng.below(16) {
            0 if at < b.len() => b[at] ^= 1 << rng.below(8),
            1 if at < b.len() => b[at] = rng.below(256) as u8,
            2 => b.truncate(at),
            14 => oversize_head(rng, &mut b, limits),
            15 => oversize_body(rng, &mut b, at, limits),
            _ => {
                let t = HTTP_TOKENS[rng.below(HTTP_TOKENS.len() as u64) as usize];
                b.splice(at..at, t.bytes());
            }
        }
    }
    b
}

/// A framed request: method, target, headers, body.
type Framed = (String, String, Vec<(String, String)>, Vec<u8>);

/// What a parser made of a byte stream: the requests it framed, and
/// the error that stopped it, if any.
#[derive(Debug, PartialEq)]
struct HttpOutcome {
    requests: Vec<Framed>,
    error: Option<HttpError>,
}

/// Feeds `bytes` in the given chunk sizes, draining every request after
/// each feed; stops at the first error, as a connection does.
fn parse_http(bytes: &[u8], chunks: &[usize], limits: Limits) -> HttpOutcome {
    let mut parser = RequestParser::new(limits);
    let mut out = HttpOutcome {
        requests: Vec::new(),
        error: None,
    };
    let mut rest = bytes;
    for &n in chunks.iter().chain(std::iter::once(&usize::MAX)) {
        let (now, later) = rest.split_at(n.min(rest.len()));
        parser.feed(now);
        rest = later;
        loop {
            match parser.next_request() {
                Ok(Some(req)) => out.requests.push((
                    req.method.clone(),
                    req.target.clone(),
                    req.headers().to_vec(),
                    req.body,
                )),
                Ok(None) => break,
                Err(e) => {
                    out.error = Some(e);
                    return out;
                }
            }
        }
        if rest.is_empty() {
            break;
        }
    }
    out
}

#[test]
fn mutated_http_requests_never_panic_the_request_parser() {
    for req in HTTP_REQUESTS {
        let whole = parse_http(req.as_bytes(), &[], Limits::default());
        assert_eq!(whole.error, None, "seed request {req:?}");
        assert!(!whole.requests.is_empty(), "seed request {req:?}");
    }
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0x477 + case);
        // Tight limits on some cases, so oversized input stays cheap
        // and the 413 paths fire often.
        let limits = if rng.bool(0.75) {
            Limits::default()
        } else {
            Limits {
                max_head_bytes: rng.usize_inclusive(128, 1024),
                max_body_bytes: rng.usize_inclusive(0, 64),
            }
        };
        let req = HTTP_REQUESTS[rng.below(HTTP_REQUESTS.len() as u64) as usize];
        // One case in four is a valid request made oversized and nothing
        // else: it must answer 413 before framing any request.
        let oversized = rng.below(4) == 0;
        let bytes = if oversized {
            let mut b = req.as_bytes().to_vec();
            if rng.bool(0.5) {
                oversize_head(&mut rng, &mut b, limits);
            } else {
                oversize_body(&mut rng, &mut b, 0, limits);
            }
            b
        } else {
            mutate_http(&mut rng, req, limits)
        };
        let chunks: Vec<usize> = (0..rng.usize_inclusive(1, 8))
            .map(|_| rng.usize_inclusive(0, bytes.len()))
            .collect();
        let checked = catch_unwind(AssertUnwindSafe(|| {
            let whole = parse_http(&bytes, &[], limits);
            let split = parse_http(&bytes, &chunks, limits);
            assert_eq!(
                whole, split,
                "case {case}: split {chunks:?} changed the outcome"
            );
            if oversized {
                assert!(whole.requests.is_empty(), "case {case}: {whole:?}");
                assert!(
                    matches!(whole.error, Some(HttpError::TooLarge(_))),
                    "case {case}: {whole:?}"
                );
            }
            match &whole.error {
                None => {}
                Some(e @ HttpError::BadRequest(_)) => assert_eq!(e.status(), 400),
                Some(e @ HttpError::TooLarge(m)) => {
                    assert_eq!(e.status(), 413);
                    assert!(
                        m.starts_with("request head exceeds") || m.starts_with("Content-Length"),
                        "case {case}: {m}"
                    );
                }
            }
        }));
        if checked.is_err() {
            let head = String::from_utf8_lossy(&bytes[..bytes.len().min(200)]).into_owned();
            panic!("case {case}: request parser panicked or check failed on {head:?}");
        }
    }
}
