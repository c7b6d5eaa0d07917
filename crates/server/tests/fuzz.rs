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
//! the split must not change the outcome. Whole `--cache-file` files
//! are mangled too: the loader must return `Ok` or `InvalidData`, and
//! every entry it keeps must be one the file was saved with. A job's
//! `len` is tried at and past `MAX_TRACE_LEN`, and every capped field of
//! a `dc` scenario at and past its cap, on the parser and on a live
//! daemon that must go on answering `ping`; an inline profile's
//! `threads`, loop and region sizes at and past their caps
//! (`MAX_PROFILE_THREADS`, `MAX_PROFILE_LOOPS`, …), and its job's
//! `threads × len` at and past `MAX_JOB_INSTRUCTIONS`, on the parser. The
//! stream is seeded, so a failure reproduces by its printed case number
//! alone.

use sharing_chaos::{FaultKind, FaultPlan, FaultRule};
use sharing_dc::scenario::{
    MAX_ARRIVAL_RATE, MAX_AUCTION_ITERATIONS, MAX_BENCHMARK_NAME_BYTES, MAX_CHIPS, MAX_COLS,
    MAX_DC_WORK, MAX_EPOCHS, MAX_ROWS, MAX_TENANT_BENCHMARKS, MAX_TENANT_VCORES,
};
use sharing_dc::Scenario;
use sharing_http::{HttpError, Limits, RequestParser};
use sharing_json::Json;
use sharing_market::{Market, UtilityFn};
use sharing_server::{
    DcJob, Envelope, ErrorCode, Job, JobWorkload, MarketJob, Request, ResultCache, RunJob, Server,
    ServerConfig, ServerError, SweepJob, PROTO_VERSION,
};
use sharing_trace::{
    Benchmark, Rng64, WorkloadProfile, MAX_JOB_INSTRUCTIONS, MAX_LOOP_BODY, MAX_LOOP_ITERS,
    MAX_PROFILE_LOOPS, MAX_PROFILE_REGIONS, MAX_PROFILE_THREADS, MAX_REGION_BYTES, MAX_TRACE_LEN,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

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

/// `len` values at both bounds and far past the upper one, with whether
/// a job may carry them. `1e12` is a float, so it fails the integer
/// parse before the bounds are consulted.
fn len_boundaries() -> [(String, bool); 7] {
    [
        ("0".to_string(), false),
        ((MAX_TRACE_LEN - 1).to_string(), true),
        (MAX_TRACE_LEN.to_string(), true),
        ((MAX_TRACE_LEN + 1).to_string(), false),
        (u64::MAX.to_string(), false),
        ("1000000000000".to_string(), false),
        ("1e12".to_string(), false),
    ]
}

/// `line` with its `len` value replaced by the literal `len`.
fn with_len(line: &str, len: &str) -> String {
    let at = line.find("\"len\":").expect("job lines carry a len") + "\"len\":".len();
    let end = at
        + line[at..]
            .find(|c: char| !c.is_ascii_digit())
            .expect("len ends");
    format!("{}{len}{}", &line[..at], &line[end..])
}

fn job_len(job: &Job) -> usize {
    match job {
        Job::Run(j) => j.len,
        Job::Sweep(j) => j.len,
        Job::Market(j) => j.len,
        Job::Dc(_) => unreachable!("dc jobs carry no len"),
    }
}

#[test]
fn job_lengths_are_capped_at_parse() {
    let jobs: Vec<String> = valid_lines()
        .into_iter()
        .filter(|l| l.contains("\"len\":"))
        .collect();
    assert_eq!(jobs.len(), 3, "run, sweep and market carry a len");
    for line in &jobs {
        for (len, accepted) in len_boundaries() {
            let text = with_len(line, &len);
            match Envelope::parse(&text) {
                Ok(Envelope {
                    req: Request::Job(job),
                    ..
                }) => {
                    assert!(accepted, "{text}");
                    assert_eq!(job_len(&job).to_string(), len, "{text}");
                }
                Ok(other) => panic!("{text}: parsed as {other:?}"),
                Err(e) => {
                    assert!(!accepted, "{text}: {e:?}");
                    assert_eq!(e.code, ErrorCode::BadRequest, "{text}");
                    if len.bytes().all(|c| c.is_ascii_digit()) {
                        assert!(e.message.contains("`len`"), "{text}: {e:?}");
                        assert!(e.message.contains(&MAX_TRACE_LEN.to_string()), "{e:?}");
                    }
                }
            }
        }
    }
}

/// Parses a `run` request line carrying `profile` inline at `len`: the
/// job back, or the refusal. Parsing only: no simulation starts.
fn parse_inline_run(profile: WorkloadProfile, len: usize) -> Result<RunJob, ServerError> {
    let line = Envelope {
        id: None,
        proto: Some(PROTO_VERSION),
        trace: None,
        req: Request::Job(Job::Run(RunJob {
            workload: JobWorkload::Profile(Box::new(profile)),
            slices: 1,
            banks: 2,
            len,
            seed: 1,
        })),
    }
    .to_line();
    match Envelope::parse(&line)? {
        Envelope {
            req: Request::Job(Job::Run(job)),
            ..
        } => Ok(job),
        other => panic!("parsed as {other:?}"),
    }
}

/// [`parse_inline_run`] at a short `len`, for the profile alone.
fn parse_inline_profile(profile: WorkloadProfile) -> Result<WorkloadProfile, ServerError> {
    match parse_inline_run(profile, 1_000)?.workload {
        JobWorkload::Profile(p) => Ok(*p),
        other => panic!("parsed as {other:?}"),
    }
}

/// A profile job's `threads × len` at the largest built-in job, a
/// four-thread VM at `MAX_TRACE_LEN`, and 64 threads one instruction
/// past their share of `MAX_JOB_INSTRUCTIONS`, where the generator would
/// build gigabytes before the run. Parsing only: no simulation starts.
#[test]
fn run_job_instructions_are_capped_at_parse() {
    let per_thread = MAX_JOB_INSTRUCTIONS / MAX_PROFILE_THREADS + 1;
    for (threads, len, accepted) in [
        (4, MAX_TRACE_LEN, true),
        (MAX_PROFILE_THREADS, per_thread, false),
    ] {
        let mut profile = WorkloadProfile::builder("wide").build();
        profile.threads = threads;
        match parse_inline_run(profile, len) {
            Ok(job) => {
                assert!(accepted, "{threads} × {len}");
                assert_eq!(job.len, len);
            }
            Err(e) => {
                assert!(!accepted, "{threads} × {len}: {e:?}");
                assert_eq!(e.code, ErrorCode::BadRequest, "{threads} × {len}");
                assert!(e.message.contains("MAX_JOB_INSTRUCTIONS"), "{e:?}");
                assert!(
                    e.message.contains(&MAX_JOB_INSTRUCTIONS.to_string()),
                    "{e:?}"
                );
            }
        }
    }
}

/// An inline profile's `threads` at its cap and one past it, where a
/// worker's coherence directory would panic mid-run. Parsing only: no
/// simulation starts.
#[test]
fn inline_profile_threads_are_capped_at_parse() {
    for (threads, accepted) in [
        (MAX_PROFILE_THREADS, true),
        (MAX_PROFILE_THREADS + 1, false),
    ] {
        let mut profile = WorkloadProfile::builder("wide").build();
        profile.threads = threads;
        match parse_inline_profile(profile) {
            Ok(p) => {
                assert!(accepted, "{threads}");
                assert_eq!(p.threads, threads);
            }
            Err(e) => {
                assert!(!accepted, "{threads}: {e:?}");
                assert_eq!(e.code, ErrorCode::BadRequest, "{threads}");
                assert!(e.message.contains("`threads`"), "{e:?}");
                assert!(
                    e.message.contains(&MAX_PROFILE_THREADS.to_string()),
                    "{e:?}"
                );
            }
        }
    }
}

/// An inline profile's loop count, loop body, loop iterations, region
/// count and region size each at its cap and one past it, where the
/// generator would allocate or lay out without bound. Parsing only: no
/// simulation starts.
#[test]
fn inline_profile_sizes_are_capped_at_parse() {
    let caps = [
        ("n_loops", MAX_PROFILE_LOOPS as u64),
        ("loop_body", MAX_LOOP_BODY as u64),
        ("loop_iters", MAX_LOOP_ITERS as u64),
        ("regions", MAX_PROFILE_REGIONS as u64),
        ("bytes", MAX_REGION_BYTES),
    ];
    for (field, cap) in caps {
        for (value, accepted) in [(cap, true), (cap + 1, false)] {
            let mut profile = WorkloadProfile::builder("big").build();
            let n = value as usize;
            match field {
                "n_loops" => profile.n_loops = n,
                "loop_body" => profile.loop_body = n,
                "loop_iters" => profile.loop_iters = n,
                "regions" => profile.regions = vec![profile.regions[0]; n],
                _ => profile.regions[0].bytes = value,
            }
            let want = profile.clone();
            match parse_inline_profile(profile) {
                Ok(p) => {
                    assert!(accepted, "{field} = {value}");
                    assert_eq!(p, want, "{field} = {value}");
                }
                Err(e) => {
                    assert!(!accepted, "{field} = {value}: {e:?}");
                    assert_eq!(e.code, ErrorCode::BadRequest, "{field} = {value}");
                    assert!(e.message.contains(&format!("`{field}`")), "{e:?}");
                    assert!(e.message.contains(&cap.to_string()), "{e:?}");
                }
            }
        }
    }
}

/// A 66-byte `dc` line whose run would ask for 104 GB at once.
const HOSTILE_DC: &str = r#"{"type":"dc","scenario":{"name":"x","epochs":1000000000},"seed":1}"#;

/// A `dc` request line whose scenario sets one field, `section.field` or
/// a top-level `field`, to the literal `value`. A `surfaces` field comes
/// with the calibrated source, the only one that reads `trace_len`.
fn dc_line(path: &str, value: &str) -> String {
    let field = match path.split_once('.') {
        None => format!("\"{path}\":{value}"),
        Some((section, field)) => {
            let source = if section == "surfaces" {
                "\"source\":\"calibrated\","
            } else {
                ""
            };
            format!("\"{section}\":{{{source}\"{field}\":{value}}}")
        }
    };
    format!("{{\"type\":\"dc\",\"scenario\":{{\"name\":\"x\",{field}}},\"seed\":1}}")
}

/// Every capped scenario field at cap − 1, at its cap, past it and at
/// ∞ (`1e999` parses to infinity), the tenant benchmark list at its cap
/// and one name past it, and a listed name at its byte cap and one byte
/// past it, as `(path, value, accepted, cap)`; `cap` is what a refusal
/// must name, when the value is of the field's type.
fn dc_boundaries() -> Vec<(&'static str, String, bool, Option<String>)> {
    let mut out = Vec::new();
    let ints = [
        ("chips", MAX_CHIPS),
        ("rows", MAX_ROWS),
        ("cols", MAX_COLS),
        ("epochs", MAX_EPOCHS),
        ("tenants.max_vcores", MAX_TENANT_VCORES),
        ("surfaces.trace_len", MAX_TRACE_LEN),
        ("auction.max_iterations", MAX_AUCTION_ITERATIONS),
    ];
    for (path, cap) in ints {
        let named = Some(cap.to_string());
        out.push((path, (cap - 1).to_string(), true, None));
        out.push((path, cap.to_string(), true, None));
        out.push((path, (cap + 1).to_string(), false, named));
        out.push((path, "1e999".to_string(), false, None));
    }
    for path in ["arrivals.base_rate", "arrivals.burst_rate"] {
        let cap = MAX_ARRIVAL_RATE;
        let named = Some(cap.to_string());
        out.push((path, format!("{:?}", cap - 1.0), true, None));
        out.push((path, format!("{cap:?}"), true, None));
        out.push((path, format!("{:?}", cap + 1.0), false, named.clone()));
        out.push((path, "1e999".to_string(), false, named));
    }
    // The list is capped in names, duplicates included.
    let names = |n: usize| format!("[{}]", vec!["\"gcc\""; n].join(","));
    let named = Some(MAX_TENANT_BENCHMARKS.to_string());
    out.push((
        "tenants.benchmarks",
        names(MAX_TENANT_BENCHMARKS),
        true,
        None,
    ));
    out.push((
        "tenants.benchmarks",
        names(MAX_TENANT_BENCHMARKS + 1),
        false,
        named,
    ));
    // A name is capped in bytes, not characters.
    let name = |bytes: usize| {
        format!(
            "[\"gcc\",\"{}\"]",
            "\u{e9}".repeat(bytes / 2) + &"x".repeat(bytes % 2)
        )
    };
    let named = Some(MAX_BENCHMARK_NAME_BYTES.to_string());
    out.push((
        "tenants.benchmarks",
        name(MAX_BENCHMARK_NAME_BYTES),
        true,
        None,
    ));
    out.push((
        "tenants.benchmarks",
        name(MAX_BENCHMARK_NAME_BYTES + 1),
        false,
        named,
    ));
    // Residence has no cap, only finiteness.
    out.push(("arrivals.mean_residence", "1e300".to_string(), true, None));
    out.push(("arrivals.mean_residence", "1e999".to_string(), false, None));
    out
}

/// `dc` lines whose every field is within its own cap, asking for
/// `MAX_DC_WORK` bidder price steps and for one more, as
/// `(line, accepted)`: 10 000 epochs × 8 arrivals × 50 iterations, with
/// the mean residence that makes up the rest.
fn dc_work_boundaries() -> Vec<(String, bool)> {
    let line = |work: f64| {
        let residence = work / (10_000.0 * 8.0 * 50.0);
        format!(
            "{{\"type\":\"dc\",\"scenario\":{{\"name\":\"x\",\"epochs\":10000,\
             \"arrivals\":{{\"base_rate\":8,\"burst_rate\":8,\"mean_residence\":{residence:?}}},\
             \"auction\":{{\"max_iterations\":50}}}},\"seed\":1}}"
        )
    };
    vec![(line(MAX_DC_WORK), true), (line(MAX_DC_WORK + 1.0), false)]
}

#[test]
fn dc_scenarios_are_capped_at_parse() {
    let hostile = Envelope::parse(HOSTILE_DC).expect_err("hostile dc line");
    assert_eq!(hostile.code, ErrorCode::BadRequest);
    assert!(hostile.message.contains("`epochs`"), "{hostile:?}");
    assert!(hostile.message.contains(&MAX_EPOCHS.to_string()));
    for (path, value, accepted, cap) in dc_boundaries() {
        let line = dc_line(path, &value);
        match Envelope::parse(&line) {
            Ok(Envelope {
                req: Request::Job(Job::Dc(_)),
                ..
            }) => assert!(accepted, "{line}"),
            Ok(other) => panic!("{line}: parsed as {other:?}"),
            Err(e) => {
                assert!(!accepted, "{line}: {e:?}");
                assert_eq!(e.code, ErrorCode::BadRequest, "{line}");
                let field = path.rsplit('.').next().expect("non-empty path");
                assert!(e.message.contains(field), "{line}: {e:?}");
                if let Some(cap) = cap {
                    assert!(e.message.contains(&cap), "{line}: {e:?}");
                }
            }
        }
    }
    for (line, accepted) in dc_work_boundaries() {
        match Envelope::parse(&line) {
            Ok(Envelope {
                req: Request::Job(Job::Dc(_)),
                ..
            }) => assert!(accepted, "{line}"),
            Ok(other) => panic!("{line}: parsed as {other:?}"),
            Err(e) => {
                assert!(!accepted, "{line}: {e:?}");
                assert_eq!(e.code, ErrorCode::BadRequest, "{line}");
                assert!(e.message.contains("MAX_DC_WORK"), "{line}: {e:?}");
                assert!(e.message.contains(&MAX_DC_WORK.to_string()), "{e:?}");
            }
        }
    }
}

#[test]
fn dc_scenarios_refuse_nan() {
    type Poison = fn(&mut Scenario);
    let fields: [(&str, Poison); 5] = [
        ("base_rate", |s| s.arrivals.base_rate = f64::NAN),
        ("burst_rate", |s| s.arrivals.burst_rate = f64::NAN),
        ("mean_residence", |s| s.arrivals.mean_residence = f64::NAN),
        ("budget", |s| s.tenants.budget_max = f64::NAN),
        ("tolerance", |s| s.auction.tolerance = f64::NAN),
    ];
    for (field, poison) in fields {
        let mut sc = Scenario::example_bursty();
        poison(&mut sc);
        let err = sc.validate().expect_err(field);
        assert!(err.contains(field), "{field}: {err}");
    }
    let mut sc = Scenario::example_bursty();
    sc.tenants.budget_max = f64::INFINITY;
    assert!(sc.validate().is_err(), "an infinite budget is refused");
}

#[test]
fn a_live_daemon_refuses_oversized_lengths_and_keeps_serving() {
    let handle = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 4,
        cache_capacity: 16,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let mut raw = TcpStream::connect(handle.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut reply = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Json::parse(line.trim()).unwrap()
    };
    // Generating this trace would ask for 3.2 TB at once.
    let mut lines = vec![
        r#"{"type":"run","benchmark":"gcc","slices":2,"banks":4,"len":100000000000,"seed":1}"#
            .to_string(),
        HOSTILE_DC.to_string(),
    ];
    lines.extend(
        dc_boundaries()
            .into_iter()
            .filter(|(_, _, accepted, _)| !accepted)
            .map(|(path, value, _, _)| dc_line(path, &value)),
    );
    lines.extend(
        dc_work_boundaries()
            .into_iter()
            .filter(|(_, accepted)| !accepted)
            .map(|(line, _)| line),
    );
    for line in valid_lines().iter().filter(|l| l.contains("\"len\":")) {
        lines.extend(
            len_boundaries()
                .into_iter()
                .filter(|(_, accepted)| !accepted)
                .map(|(len, _)| with_len(line, &len)),
        );
    }
    for line in &lines {
        raw.write_all(format!("{line}\n").as_bytes()).unwrap();
        let v = reply();
        let err = ServerError::from_reply(&v).unwrap_or_else(|| panic!("{line}: {v}"));
        assert_eq!(err.code, ErrorCode::BadRequest, "{line}: {v}");
    }
    raw.write_all(b"{\"type\":\"ping\"}\n").unwrap();
    let pong = reply();
    assert_eq!(
        pong.get("type").and_then(Json::as_str),
        Some("pong"),
        "{pong}"
    );
    handle.stop();
}

/// Headers a cache file must not be mistaken for.
const FOREIGN_HEADERS: [&str; 5] = [
    "ssimd-cache v1",
    "ssimd-cache v3",
    "",
    "SSIMD-CACHE V2",
    "{",
];

/// One to three mutations of a whole cache file: byte-level mutations,
/// whole lines spliced, swapped or dropped, or a foreign header.
fn mangle_cache_file(rng: &mut Rng64, text: &str) -> Vec<u8> {
    let mut b = text.as_bytes().to_vec();
    for _ in 0..rng.usize_inclusive(1, 3) {
        let lossy = String::from_utf8_lossy(&b).into_owned();
        let mut lines: Vec<&str> = lossy.lines().collect();
        let pick = |rng: &mut Rng64, n: usize| rng.below(n.max(1) as u64) as usize;
        match rng.below(5) {
            0 | 1 => b = mutate(rng, &lossy),
            2 if !lines.is_empty() => {
                let from = lines[pick(rng, lines.len())];
                lines.insert(pick(rng, lines.len() + 1), from);
                b = (lines.join("\n") + "\n").into_bytes();
            }
            3 if lines.len() > 1 => {
                let (i, j) = (pick(rng, lines.len()), pick(rng, lines.len()));
                if rng.bool(0.5) {
                    lines.swap(i, j);
                } else {
                    lines.remove(i);
                }
                b = (lines.join("\n") + "\n").into_bytes();
            }
            _ if !lines.is_empty() => {
                lines[0] = FOREIGN_HEADERS[pick(rng, FOREIGN_HEADERS.len())];
                b = (lines.join("\n") + "\n").into_bytes();
            }
            _ => {}
        }
    }
    b
}

#[test]
fn mangled_cache_files_never_panic_the_loader_or_serve_a_damaged_entry() {
    let cache = ResultCache::new(64);
    for (i, line) in valid_lines().iter().enumerate() {
        if let Request::Job(job) = Envelope::parse(line).unwrap().req {
            if let Some(key) = job.cache_key() {
                cache.insert(&key, &format!("{{\"ipc\":{i}.25,\"cycles\":{}}}", 800 + i));
            }
        }
    }
    let genuine = cache.snapshot();
    assert_eq!(genuine.len(), 2, "one entry per single-reply job kind");
    let path = std::env::temp_dir().join(format!("ssimd-cache-fuzz-{}", std::process::id()));
    cache.save_to_file(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        ResultCache::new(64).load_from_file(&path).unwrap(),
        genuine.len()
    );
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0xCAC4E + case);
        let bytes = mangle_cache_file(&mut rng, &text);
        std::fs::write(&path, &bytes).unwrap();
        let loaded = ResultCache::new(64);
        let checked = catch_unwind(AssertUnwindSafe(|| {
            if let Err(e) = loaded.load_from_file(&path) {
                assert_eq!(
                    e.kind(),
                    std::io::ErrorKind::InvalidData,
                    "case {case}: {e}"
                );
            }
            for entry in loaded.snapshot() {
                assert!(genuine.contains(&entry), "case {case}: served {entry:?}");
            }
        }));
        if checked.is_err() {
            let head = String::from_utf8_lossy(&bytes[..bytes.len().min(400)]).into_owned();
            panic!("case {case}: cache loader panicked or check failed on {head:?}");
        }
    }
    std::fs::remove_file(&path).unwrap();
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
