//! Seeded no-panic fuzzing of the request parsers (see DESIGN.md §6).
//!
//! Valid request lines are mutated by byte flips, truncations, and
//! splices of structural tokens, long strings and wide objects, then fed
//! to `Json::parse` and `Envelope::parse`. Whatever the bytes, neither may
//! panic, and each failure must be a typed error: a `JsonError` naming an
//! offset inside the input, a `ServerError` whose reply line carries a
//! parse-class code. The stream is seeded, so a failure reproduces by its
//! printed case number alone.

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
