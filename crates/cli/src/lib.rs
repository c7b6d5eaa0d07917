//! Library half of the `ssim` CLI: argument parsing and command execution,
//! separated from `main` so they are unit-testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sharing_core::{RunOptions, SimConfig, Simulator, VCoreShape};
use sharing_dc::{BillingMode, DcSim, Scenario};
use sharing_obs::TraceBuffer;
use sharing_trace::{
    extra_profile, Benchmark, TraceCache, TraceSpec, WorkloadProfile, ALL_BENCHMARKS,
    EXTRA_PROFILES,
};
use std::fmt;
use std::fmt::Write as _;

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `ssim run …` — simulate one benchmark on one configuration.
    Run(RunArgs),
    /// `ssim sweep …` — Slice and cache sweeps for one benchmark.
    Sweep(SweepArgs),
    /// `ssim dc …` — run a datacenter scenario through `sharing-dc`.
    Dc(DcArgs),
    /// `ssim config` — emit the default configuration as JSON.
    EmitConfig,
    /// `ssim serve …` — run the ssimd simulation daemon in-process.
    Serve(ServeArgs),
    /// `ssim submit …` — submit a job to a running ssimd daemon.
    Submit(SubmitArgs),
    /// `ssim chaos …` — drive a worker fleet through a seeded fault plan
    /// and check the invariants hold.
    Chaos(ChaosArgs),
    /// `ssim profile …` — cycle-attribution profile of one run: where
    /// every simulated cycle went, conservation-exact per Slice.
    Profile(ProfileArgs),
    /// `ssim trace-pack in.jsonl out.json` — re-wrap a streamed span
    /// JSONL file (from `serve --trace-out`, whatever its name) as Chrome
    /// trace JSON.
    TracePack(TracePackArgs),
    /// `ssim list` — list available benchmarks.
    List,
    /// `ssim help` / `--help`.
    Help,
}

/// What workload a `run` simulates.
#[derive(Clone, Debug, PartialEq)]
pub enum Workload {
    /// One of the paper's fifteen calibrated benchmarks.
    Benchmark(Benchmark),
    /// One of the extra seeded profiles (`bursty`, `phaseshift`),
    /// resolved by name like a benchmark.
    Extra(String),
    /// A user-supplied [`WorkloadProfile`] JSON file.
    ProfileFile(String),
    /// A hand-written assembly file (see [`sharing_isa::asm`]), repeated
    /// until the requested trace length.
    AsmFile(String),
}

/// Arguments for `ssim run`.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArgs {
    /// The workload to simulate.
    pub workload: Workload,
    /// Slice count.
    pub slices: usize,
    /// L2 bank count.
    pub banks: usize,
    /// Trace length.
    pub len: usize,
    /// Trace seed.
    pub seed: u64,
    /// Optional JSON config file overriding Tables 2/3 parameters.
    pub config_path: Option<String>,
    /// Emit machine-readable JSON instead of the human report.
    pub json: bool,
    /// When set, write a Chrome trace of the run's phases here.
    pub trace_out: Option<String>,
    /// Worker threads advancing a threaded VM's VCores between barriers
    /// (default 1). Output is byte-identical for every value.
    pub threads: usize,
}

/// Arguments for `ssim sweep`.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepArgs {
    /// Benchmark name.
    pub benchmark: Benchmark,
    /// Trace length.
    pub len: usize,
    /// Trace seed.
    pub seed: u64,
    /// When set, submit the sweep to a running ssimd daemon at this
    /// address instead of simulating in-process, sharing its result cache.
    pub daemon: Option<String>,
    /// Worker threads for the local grid (`None` sizes to the machine).
    /// The rendered table is byte-identical for every value.
    pub jobs: Option<usize>,
    /// When set, also write the grid as machine-readable CSV here.
    pub csv_out: Option<String>,
    /// When set, write a Chrome trace with one span per sweep point here.
    pub trace_out: Option<String>,
}

/// Arguments for `ssim dc`.
#[derive(Clone, Debug, PartialEq)]
pub struct DcArgs {
    /// Scenario JSON file; `None` only with `emit_example`.
    pub scenario_path: Option<String>,
    /// Event seed (same seed ⇒ byte-identical logs and CSV).
    pub seed: u64,
    /// Billing mode; `None` runs both and prints the comparison.
    pub mode: Option<BillingMode>,
    /// When set, write per-mode `<scenario>-<mode>.csv` / `.log` files
    /// into this directory.
    pub out_dir: Option<String>,
    /// Print the built-in example scenario as pretty JSON and exit —
    /// the easiest way to get a schema template.
    pub emit_example: bool,
    /// When set, write a Chrome trace with logical-cycle spans for every
    /// epoch's auction/placement/billing phases here. Tracing never
    /// changes the simulated outcome (logs and CSV stay byte-identical).
    pub trace_out: Option<String>,
}

/// Arguments for `ssim profile`.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileArgs {
    /// The workload to profile. The attribution runs on one VCore, so
    /// only single-thread workloads are accepted (`execute` rejects
    /// PARSEC and threaded extras with a clean error).
    pub workload: Workload,
    /// Slice count.
    pub slices: usize,
    /// L2 bank count.
    pub banks: usize,
    /// Trace length.
    pub len: usize,
    /// Trace seed.
    pub seed: u64,
    /// Optional JSON config file overriding Tables 2/3 parameters.
    pub config_path: Option<String>,
    /// Emit machine-readable JSON (`{"result":…,"profile":…}`) instead
    /// of the per-Slice table.
    pub json: bool,
}

/// Arguments for `ssim trace-pack`.
#[derive(Clone, Debug, PartialEq)]
pub struct TracePackArgs {
    /// The streamed span JSONL file to read (complete lines only; a
    /// truncated tail from a crashed daemon is skipped, not fatal).
    pub input: String,
    /// Where to write the Chrome trace JSON document.
    pub output: String,
}

/// Arguments for `ssim serve`.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeArgs {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker pool size; `None` sizes to the machine.
    pub workers: Option<usize>,
    /// Bounded job-queue capacity.
    pub queue: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache: usize,
    /// When set, the result cache is loaded from this file on start and
    /// saved back on graceful shutdown.
    pub cache_file: Option<String>,
    /// When set, the daemon streams every span here as it happens, one
    /// JSON line per span (pack it with `ssim trace-pack`). A path that
    /// cannot be created fails start-up.
    pub trace_out: Option<String>,
    /// Remote worker daemon addresses (repeatable `--worker`). When
    /// non-empty the daemon runs as a coordinator: jobs fan out to these
    /// workers with health checks and bounded retry instead of executing
    /// in the local pool.
    pub workers_remote: Vec<String>,
    /// Per-dispatch retry budget in coordinator mode.
    pub retries: u32,
    /// Per-job remote timeout in milliseconds in coordinator mode.
    pub job_timeout_ms: u64,
    /// When set, an HTTP/1.1 front door binds here alongside the TCP
    /// listener (`/health`, `/metrics`, `/status`, `/jobs`).
    pub http: Option<String>,
    /// When set, write the daemon pid here on start (refusing to start
    /// if another live process holds it) and remove it on exit.
    pub pidfile: Option<String>,
}

/// What `ssim submit` asks the daemon to do.
#[derive(Clone, Debug, PartialEq)]
pub enum SubmitAction {
    /// Submit one run.
    Run {
        /// A paper benchmark or an extra seeded profile.
        workload: sharing_trace::Workload,
        /// Slice count.
        slices: usize,
        /// L2 bank count.
        banks: usize,
        /// Trace length.
        len: usize,
        /// Trace seed.
        seed: u64,
    },
    /// Submit a datacenter scenario.
    Dc {
        /// Scenario JSON file.
        scenario_path: String,
        /// Event seed.
        seed: u64,
        /// Billing mode; `None` runs both.
        mode: Option<BillingMode>,
    },
    /// Liveness check.
    Ping,
    /// Protocol-version negotiation: print the version the daemon settled
    /// on.
    Hello,
    /// Fetch the server metrics snapshot.
    Stats,
    /// Fetch the server metrics as Prometheus text exposition.
    Metrics,
    /// Ask the daemon to drain and stop.
    Shutdown,
}

/// Arguments for `ssim submit`.
#[derive(Clone, Debug, PartialEq)]
pub struct SubmitArgs {
    /// Daemon address.
    pub addr: String,
    /// When set, talk to the daemon's HTTP front door at this base URL
    /// (e.g. `http://127.0.0.1:8080`) instead of the TCP protocol.
    pub url: Option<String>,
    /// Distributed-trace id to stamp on the job envelope. The daemon
    /// correlates every span the job produces (queue wait, dispatch,
    /// remote execution) under this id in its `--trace-out` file.
    pub trace: Option<u64>,
    /// The request to make.
    pub action: SubmitAction,
}

/// Arguments for `ssim chaos`.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosArgs {
    /// Fault-plan JSON file; `None` uses the built-in replay-exact
    /// smoke plan seeded by `seed`.
    pub plan_path: Option<String>,
    /// Seed for the built-in plan (ignored when `--plan` is given).
    pub seed: u64,
    /// Worker daemons to spawn under the coordinator.
    pub workers: usize,
    /// First worker port; consecutive workers take consecutive ports.
    /// 0 picks free ephemeral ports (fixed ports keep worker addresses
    /// — and so any address-targeted rules — stable across runs).
    pub base_port: u16,
    /// Trace length for the mix's jobs (small keeps the run quick).
    pub len: usize,
    /// When set, write the injection schedule here, one diffable line
    /// per injected fault.
    pub schedule_out: Option<String>,
}

/// CLI errors.
#[derive(Clone, Debug, PartialEq)]
pub enum CliError {
    /// No subcommand given.
    MissingCommand,
    /// Unknown subcommand.
    UnknownCommand(String),
    /// Unknown flag for the subcommand.
    UnknownFlag(String),
    /// A flag was given without its value.
    MissingValue(String),
    /// A value failed to parse.
    BadValue(String, String),
    /// A value parsed but is out of range (flag, reason).
    OutOfRange(String, String),
    /// Unknown benchmark name.
    UnknownBenchmark(String),
    /// Config file could not be read or parsed.
    BadConfig(String),
    /// Workload profile file could not be read or parsed.
    BadProfile(String),
    /// Assembly file could not be read or assembled.
    BadAsm(String),
    /// The configuration was rejected by the simulator.
    BadSimConfig(String),
    /// A daemon could not be started or reached.
    Server(String),
    /// Scenario file could not be read, parsed, or validated.
    BadScenario(String),
    /// Two flags that cannot be used together.
    ConflictingFlags(String),
    /// The `--trace-out` file could not be written.
    TraceOut(String),
    /// The `--csv-out` file could not be written.
    CsvOut(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingCommand => write!(f, "expected a subcommand"),
            CliError::UnknownCommand(c) => write!(f, "unknown subcommand `{c}`"),
            CliError::UnknownFlag(x) => write!(f, "unknown flag `{x}`"),
            CliError::MissingValue(x) => write!(f, "flag `{x}` needs a value"),
            CliError::BadValue(x, v) => write!(f, "flag `{x}`: cannot parse `{v}`"),
            CliError::OutOfRange(x, e) => write!(f, "flag `{x}`: {e}"),
            CliError::UnknownBenchmark(b) => {
                write!(f, "unknown benchmark `{b}` (try `ssim list`)")
            }
            CliError::BadConfig(e) => write!(f, "config file: {e}"),
            CliError::BadProfile(e) => write!(f, "workload profile: {e}"),
            CliError::BadAsm(e) => write!(f, "assembly: {e}"),
            CliError::BadSimConfig(e) => write!(f, "invalid configuration: {e}"),
            CliError::Server(e) => write!(f, "server: {e}"),
            CliError::BadScenario(e) => write!(f, "scenario: {e}"),
            CliError::ConflictingFlags(e) => write!(f, "{e}"),
            CliError::TraceOut(e) => write!(f, "trace output: {e}"),
            CliError::CsvOut(e) => write!(f, "csv output: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

/// The usage string.
#[must_use]
pub fn usage() -> String {
    "ssim — Sharing Architecture simulator (Zhou & Wentzlaff, ASPLOS 2014 reproduction)

USAGE:
    ssim run   (--benchmark <name> | --profile workload.json | --asm prog.s)
               [--slices N] [--banks N] [--len N]
               [--seed N] [--config file.json] [--json] [--trace-out FILE]
               [--threads N]
    ssim sweep --benchmark <name> [--len N] [--seed N] [--jobs N]
               [--daemon HOST:PORT] [--csv-out FILE] [--trace-out FILE]
    ssim dc    (--scenario file.json | --emit-example)
               [--seed N] [--mode sharing|fixed] [--out DIR] [--trace-out FILE]
    ssim profile --benchmark <name> [--slices N] [--banks N] [--len N]
               [--seed N] [--config file.json] [--json]
    ssim serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
               [--cache-file PATH] [--trace-out FILE]
               [--http HOST:PORT] [--pidfile PATH]
               [--worker HOST:PORT]... [--retries N] [--job-timeout-ms N]
    ssim submit [--addr HOST:PORT | --url http://HOST:PORT] [--trace ID]
               (--benchmark <name> [--slices N] [--banks N] [--len N] [--seed N]
                | --dc scenario.json [--seed N] [--mode sharing|fixed]
                | --ping | --hello | --stats | --metrics | --shutdown)
    ssim chaos [--plan plan.json | --seed N] [--workers N] [--base-port P]
               [--len N] [--schedule-out FILE]
    ssim trace-pack <in.jsonl> <out.json>
    ssim config            emit the default configuration as JSON
    ssim list              list available benchmarks
    ssim help              this message

EXAMPLES:
    ssim run --benchmark gcc --slices 4 --banks 8
    ssim run --profile my_workload.json --slices 2
    ssim config > base.json && ssim run --benchmark mcf --config base.json
    ssim dc --emit-example > bursty.json && ssim dc --scenario bursty.json --seed 7
    ssim serve --workers 4 --cache-file /tmp/ssimd.cache &
    ssim sweep --benchmark mcf --daemon 127.0.0.1:42014
    ssim serve --addr :42020 --worker host-a:42014 --worker host-b:42014
    ssim submit --hello       # negotiated protocol version
    ssim submit --benchmark mcf --slices 2 --banks 4
    ssim submit --dc bursty.json --mode sharing
    ssim submit --stats && ssim submit --shutdown
    ssim dc --scenario bursty.json --trace-out dc.trace.json
    ssim submit --metrics    # Prometheus text exposition
    ssim serve --http 127.0.0.1:8080 --pidfile /tmp/ssimd.pid &
    ssim submit --url http://127.0.0.1:8080 --benchmark mcf --slices 2
    ssim run --benchmark bursty --slices 2   # extra seeded profile
    ssim run --benchmark dedup --threads 4   # 4 worker shards, same bytes
    ssim chaos --seed 2014 --schedule-out sched.txt
    ssim profile --benchmark mcf --slices 4 --banks 8
    ssim serve --trace-out fleet.trace.jsonl &   # streaming span sink
    ssim submit --benchmark gcc --trace 42
    ssim trace-pack fleet.trace.jsonl fleet.trace.json

`ssim serve --http` adds an HTTP/1.1 front door (GET /health, /metrics,
/status; POST /jobs + GET /jobs/<id> polling); `--pidfile` writes the
daemon pid and SIGTERM/SIGINT drain gracefully. `ssim submit --url`
drives that front door instead of the TCP protocol.

`ssim chaos` spawns worker daemons, runs a job mix fault-free, then
replays it under a seeded fault plan (connection drops, partitions,
worker kills) and asserts results stay byte-identical, no job is lost,
and the drain terminates. Setting SSIM_CHAOS_PLAN to plan JSON arms any
`ssim serve` daemon directly; SSIM_CHAOS_SCHEDULE names a file its
injection schedule is written to on graceful shutdown.

`ssim profile` attributes every simulated cycle of a run to one of six
buckets per Slice (fetch, issue, fu_busy, dram_stall, rob_full, idle);
the buckets sum exactly to the run's total cycles, and same seed ⇒
byte-identical output. Profiling never perturbs the simulated result.

`ssim run --threads N` advances a threaded/PARSEC VM's VCores on N
worker threads between deterministic barriers (DESIGN.md §14; default
1). It only changes wall time: every N gives byte-identical output.

`--trace-out` writes Chrome trace_event JSON; open it in Perfetto
(https://ui.perfetto.dev) or chrome://tracing. Simulator spans use
logical (simulated-cycle) time, so tracing never perturbs results.
`serve --trace-out` instead streams every span as it happens, one JSON
line each, through a bounded-buffer writer (crash-safe; re-wrap with
`ssim trace-pack`); a path that cannot be created stops the daemon
from starting. `ssim submit --trace ID` stamps a distributed
trace id on the job so coordinator dispatch spans and remote worker
execution spans land in one merged trace under that id."
        .to_string()
}

fn take_value<'a>(
    flag: &str,
    it: &mut std::slice::Iter<'a, String>,
) -> Result<&'a String, CliError> {
    it.next()
        .ok_or_else(|| CliError::MissingValue(flag.to_string()))
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, CliError> {
    v.parse()
        .map_err(|_| CliError::BadValue(flag.to_string(), v.to_string()))
}

/// Parses a `--len` value, checked by [`TraceSpec::check_len`] as the
/// daemon checks a job's `len`.
fn parse_len(flag: &str, v: &str) -> Result<usize, CliError> {
    TraceSpec::check_len(parse_num(flag, v)?).map_err(|e| CliError::OutOfRange(flag.to_string(), e))
}

/// Resolves a `--benchmark` value: the paper suite first, then the
/// extra seeded profiles (`bursty`, `phaseshift`).
fn parse_workload_name(v: &str) -> Result<Workload, CliError> {
    if let Some(b) = Benchmark::from_name(v) {
        return Ok(Workload::Benchmark(b));
    }
    if extra_profile(v).is_some() {
        return Ok(Workload::Extra(v.to_string()));
    }
    Err(CliError::UnknownBenchmark(v.to_string()))
}

/// Parses CLI arguments (without the binary name).
///
/// # Errors
///
/// Returns a [`CliError`] describing the first problem found.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let sub = it.next().ok_or(CliError::MissingCommand)?;
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "list" => Ok(Command::List),
        "config" => Ok(Command::EmitConfig),
        "run" => {
            let mut out = RunArgs {
                workload: Workload::Benchmark(Benchmark::Gcc),
                slices: 1,
                banks: 2,
                len: 60_000,
                seed: 0xA5_2014,
                config_path: None,
                json: false,
                trace_out: None,
                threads: 1,
            };
            let mut got_workload = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--benchmark" => {
                        out.workload = parse_workload_name(take_value(flag, &mut it)?)?;
                        got_workload = true;
                    }
                    "--profile" => {
                        out.workload = Workload::ProfileFile(take_value(flag, &mut it)?.clone());
                        got_workload = true;
                    }
                    "--asm" => {
                        out.workload = Workload::AsmFile(take_value(flag, &mut it)?.clone());
                        got_workload = true;
                    }
                    "--slices" => out.slices = parse_num(flag, take_value(flag, &mut it)?)?,
                    "--banks" => out.banks = parse_num(flag, take_value(flag, &mut it)?)?,
                    "--len" => out.len = parse_len(flag, take_value(flag, &mut it)?)?,
                    "--seed" => out.seed = parse_num(flag, take_value(flag, &mut it)?)?,
                    "--config" => out.config_path = Some(take_value(flag, &mut it)?.clone()),
                    "--json" => out.json = true,
                    "--trace-out" => out.trace_out = Some(take_value(flag, &mut it)?.clone()),
                    "--threads" => {
                        let n: usize = parse_num(flag, take_value(flag, &mut it)?)?;
                        if n == 0 {
                            return Err(CliError::BadValue(flag.clone(), "0".to_string()));
                        }
                        out.threads = n;
                    }
                    other => return Err(CliError::UnknownFlag(other.to_string())),
                }
            }
            if !got_workload {
                return Err(CliError::MissingValue(
                    "--benchmark, --profile or --asm".to_string(),
                ));
            }
            Ok(Command::Run(out))
        }
        "sweep" => {
            let mut out = SweepArgs {
                benchmark: Benchmark::Gcc,
                len: 30_000,
                seed: 0xA5_2014,
                daemon: None,
                jobs: None,
                csv_out: None,
                trace_out: None,
            };
            let mut got_benchmark = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--benchmark" => {
                        let v = take_value(flag, &mut it)?;
                        out.benchmark = Benchmark::from_name(v)
                            .ok_or_else(|| CliError::UnknownBenchmark(v.clone()))?;
                        got_benchmark = true;
                    }
                    "--len" => out.len = parse_len(flag, take_value(flag, &mut it)?)?,
                    "--seed" => out.seed = parse_num(flag, take_value(flag, &mut it)?)?,
                    "--daemon" => out.daemon = Some(take_value(flag, &mut it)?.clone()),
                    "--jobs" => out.jobs = Some(parse_num(flag, take_value(flag, &mut it)?)?),
                    "--csv-out" => out.csv_out = Some(take_value(flag, &mut it)?.clone()),
                    "--trace-out" => out.trace_out = Some(take_value(flag, &mut it)?.clone()),
                    other => return Err(CliError::UnknownFlag(other.to_string())),
                }
            }
            if !got_benchmark {
                return Err(CliError::MissingValue("--benchmark".to_string()));
            }
            Ok(Command::Sweep(out))
        }
        "dc" => {
            let mut out = DcArgs {
                scenario_path: None,
                seed: 0xA5_2014,
                mode: None,
                out_dir: None,
                emit_example: false,
                trace_out: None,
            };
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--scenario" => out.scenario_path = Some(take_value(flag, &mut it)?.clone()),
                    "--seed" => out.seed = parse_num(flag, take_value(flag, &mut it)?)?,
                    "--mode" => {
                        let v = take_value(flag, &mut it)?;
                        out.mode = Some(
                            BillingMode::parse(v)
                                .map_err(|_| CliError::BadValue(flag.clone(), v.clone()))?,
                        );
                    }
                    "--out" => out.out_dir = Some(take_value(flag, &mut it)?.clone()),
                    "--emit-example" => out.emit_example = true,
                    "--trace-out" => out.trace_out = Some(take_value(flag, &mut it)?.clone()),
                    other => return Err(CliError::UnknownFlag(other.to_string())),
                }
            }
            if out.scenario_path.is_none() && !out.emit_example {
                return Err(CliError::MissingValue(
                    "--scenario or --emit-example".to_string(),
                ));
            }
            if out.scenario_path.is_some() && out.emit_example {
                return Err(CliError::ConflictingFlags(
                    "`--scenario` cannot be combined with --emit-example".to_string(),
                ));
            }
            Ok(Command::Dc(out))
        }
        "profile" => {
            let mut out = ProfileArgs {
                workload: Workload::Benchmark(Benchmark::Gcc),
                slices: 1,
                banks: 2,
                len: 60_000,
                seed: 0xA5_2014,
                config_path: None,
                json: false,
            };
            let mut got_workload = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--benchmark" => {
                        out.workload = parse_workload_name(take_value(flag, &mut it)?)?;
                        got_workload = true;
                    }
                    "--slices" => out.slices = parse_num(flag, take_value(flag, &mut it)?)?,
                    "--banks" => out.banks = parse_num(flag, take_value(flag, &mut it)?)?,
                    "--len" => out.len = parse_len(flag, take_value(flag, &mut it)?)?,
                    "--seed" => out.seed = parse_num(flag, take_value(flag, &mut it)?)?,
                    "--config" => out.config_path = Some(take_value(flag, &mut it)?.clone()),
                    "--json" => out.json = true,
                    other => return Err(CliError::UnknownFlag(other.to_string())),
                }
            }
            if !got_workload {
                return Err(CliError::MissingValue("--benchmark".to_string()));
            }
            Ok(Command::Profile(out))
        }
        "trace-pack" => {
            let input = it
                .next()
                .ok_or_else(|| CliError::MissingValue("<in.jsonl>".to_string()))?
                .clone();
            let output = it
                .next()
                .ok_or_else(|| CliError::MissingValue("<out.json>".to_string()))?
                .clone();
            if let Some(extra) = it.next() {
                return Err(CliError::UnknownFlag(extra.to_string()));
            }
            Ok(Command::TracePack(TracePackArgs { input, output }))
        }
        "serve" => {
            let mut out = ServeArgs {
                addr: format!("127.0.0.1:{}", sharing_server::DEFAULT_PORT),
                workers: None,
                queue: 64,
                cache: 1024,
                cache_file: None,
                trace_out: None,
                workers_remote: Vec::new(),
                retries: 3,
                job_timeout_ms: 30_000,
                http: None,
                pidfile: None,
            };
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--addr" => out.addr = take_value(flag, &mut it)?.clone(),
                    "--http" => out.http = Some(take_value(flag, &mut it)?.clone()),
                    "--pidfile" => out.pidfile = Some(take_value(flag, &mut it)?.clone()),
                    "--workers" => {
                        out.workers = Some(parse_num(flag, take_value(flag, &mut it)?)?);
                    }
                    "--queue" => out.queue = parse_num(flag, take_value(flag, &mut it)?)?,
                    "--cache" => out.cache = parse_num(flag, take_value(flag, &mut it)?)?,
                    "--cache-file" => out.cache_file = Some(take_value(flag, &mut it)?.clone()),
                    "--trace-out" => out.trace_out = Some(take_value(flag, &mut it)?.clone()),
                    "--worker" => out.workers_remote.push(take_value(flag, &mut it)?.clone()),
                    "--retries" => out.retries = parse_num(flag, take_value(flag, &mut it)?)?,
                    "--job-timeout-ms" => {
                        out.job_timeout_ms = parse_num(flag, take_value(flag, &mut it)?)?;
                    }
                    other => return Err(CliError::UnknownFlag(other.to_string())),
                }
            }
            Ok(Command::Serve(out))
        }
        "submit" => {
            let mut addr = format!("127.0.0.1:{}", sharing_server::DEFAULT_PORT);
            let mut url: Option<String> = None;
            let mut trace: Option<u64> = None;
            let mut action: Option<SubmitAction> = None;
            let (mut slices, mut banks, mut len, mut seed) =
                (1usize, 2usize, 60_000usize, 0xA5_2014u64);
            let mut workload: Option<sharing_trace::Workload> = None;
            let mut dc_path: Option<String> = None;
            let mut mode: Option<BillingMode> = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--addr" => addr = take_value(flag, &mut it)?.clone(),
                    "--url" => url = Some(take_value(flag, &mut it)?.clone()),
                    "--trace" => trace = Some(parse_num(flag, take_value(flag, &mut it)?)?),
                    "--benchmark" => {
                        let v = take_value(flag, &mut it)?;
                        workload = Some(
                            sharing_trace::Workload::from_name(v)
                                .ok_or_else(|| CliError::UnknownBenchmark(v.clone()))?,
                        );
                    }
                    "--dc" => dc_path = Some(take_value(flag, &mut it)?.clone()),
                    "--mode" => {
                        let v = take_value(flag, &mut it)?;
                        mode = Some(
                            BillingMode::parse(v)
                                .map_err(|_| CliError::BadValue(flag.clone(), v.clone()))?,
                        );
                    }
                    "--slices" => slices = parse_num(flag, take_value(flag, &mut it)?)?,
                    "--banks" => banks = parse_num(flag, take_value(flag, &mut it)?)?,
                    "--len" => len = parse_len(flag, take_value(flag, &mut it)?)?,
                    "--seed" => seed = parse_num(flag, take_value(flag, &mut it)?)?,
                    "--ping" => action = Some(SubmitAction::Ping),
                    "--hello" => action = Some(SubmitAction::Hello),
                    "--stats" => action = Some(SubmitAction::Stats),
                    "--metrics" => action = Some(SubmitAction::Metrics),
                    "--shutdown" => action = Some(SubmitAction::Shutdown),
                    other => return Err(CliError::UnknownFlag(other.to_string())),
                }
            }
            let action = match (action, workload, dc_path) {
                (Some(a), None, None) => a,
                (None, Some(workload), None) => SubmitAction::Run {
                    workload,
                    slices,
                    banks,
                    len,
                    seed,
                },
                (None, None, Some(scenario_path)) => SubmitAction::Dc {
                    scenario_path,
                    seed,
                    mode,
                },
                (None, None, None) => {
                    return Err(CliError::MissingValue(
                        "--benchmark, --dc, --ping, --hello, --stats, --metrics or --shutdown"
                            .to_string(),
                    ));
                }
                _ => {
                    return Err(CliError::ConflictingFlags(
                        "pick one of --benchmark, --dc, --ping, --hello, --stats, --metrics, \
                         --shutdown"
                            .to_string(),
                    ));
                }
            };
            if url.is_some() && matches!(action, SubmitAction::Hello | SubmitAction::Shutdown) {
                return Err(CliError::ConflictingFlags(
                    "`--url` supports --ping, --stats, --metrics, --benchmark and --dc; \
                     use the TCP protocol (--addr) for --hello and --shutdown"
                        .to_string(),
                ));
            }
            if trace.is_some()
                && !matches!(action, SubmitAction::Run { .. } | SubmitAction::Dc { .. })
            {
                return Err(CliError::ConflictingFlags(
                    "`--trace` only applies to jobs (--benchmark or --dc)".to_string(),
                ));
            }
            Ok(Command::Submit(SubmitArgs {
                addr,
                url,
                trace,
                action,
            }))
        }
        "chaos" => {
            let mut out = ChaosArgs {
                plan_path: None,
                seed: 2014,
                workers: 2,
                base_port: 0,
                len: 2_000,
                schedule_out: None,
            };
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--plan" => out.plan_path = Some(take_value(flag, &mut it)?.clone()),
                    "--seed" => out.seed = parse_num(flag, take_value(flag, &mut it)?)?,
                    "--workers" => out.workers = parse_num(flag, take_value(flag, &mut it)?)?,
                    "--base-port" => out.base_port = parse_num(flag, take_value(flag, &mut it)?)?,
                    "--len" => out.len = parse_len(flag, take_value(flag, &mut it)?)?,
                    "--schedule-out" => {
                        out.schedule_out = Some(take_value(flag, &mut it)?.clone());
                    }
                    other => return Err(CliError::UnknownFlag(other.to_string())),
                }
            }
            if out.workers == 0 {
                return Err(CliError::BadValue("--workers".to_string(), "0".to_string()));
            }
            Ok(Command::Chaos(out))
        }
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

fn load_config(args: &RunArgs) -> Result<SimConfig, CliError> {
    load_shaped_config(args.config_path.as_deref(), args.slices, args.banks)
}

/// Loads an optional config file and applies the shape flags on top
/// (shared by `run` and `profile`).
fn load_shaped_config(
    config_path: Option<&str>,
    slices: usize,
    banks: usize,
) -> Result<SimConfig, CliError> {
    let mut cfg = match config_path {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::BadConfig(format!("{path}: {e}")))?;
            sharing_json::from_str::<SimConfig>(&text)
                .map_err(|e| CliError::BadConfig(format!("{path}: {e}")))?
        }
        None => SimConfig::builder()
            .build()
            .map_err(|e| CliError::BadSimConfig(e.to_string()))?,
    };
    // Shape flags override the file.
    cfg = SimConfig::builder()
        .slices(slices)
        .l2_banks(banks)
        .slice_params(cfg.slice)
        .mem_params(cfg.mem)
        .knobs(cfg.knobs)
        .build()
        .map_err(|e| CliError::BadSimConfig(e.to_string()))?;
    Ok(cfg)
}

/// Runs `ssim profile`: one single-thread workload through
/// [`Simulator::run_with`] with profiling on, reporting the conservation-exact
/// per-Slice cycle attribution. Same seed ⇒ byte-identical output.
fn execute_profile(args: &ProfileArgs) -> Result<String, CliError> {
    let cfg = load_shaped_config(args.config_path.as_deref(), args.slices, args.banks)?;
    let spec = TraceSpec::new(args.len, args.seed);
    let workload = trace_workload(&args.workload)?;
    if workload.is_threaded() {
        return Err(CliError::ConflictingFlags(format!(
            "`ssim profile` attributes cycles on one VCore; `{}` is threaded — pick a \
             single-thread workload (see `ssim list`)",
            workload.name()
        )));
    }
    let trace = TraceCache::global()
        .single(&workload, &spec)
        .map_err(CliError::BadProfile)?;
    let sim = Simulator::new(cfg).expect("validated config");
    let out = sim.run_with(&trace, RunOptions::new().profile());
    let (result, profile) = (out.result, out.profile.expect("profiling requested"));
    if args.json {
        return Ok(format!(
            "{{\"result\":{},\"profile\":{}}}",
            sharing_json::to_string(&result),
            sharing_json::to_string(&profile)
        ));
    }
    let mut out = format!("{}\n\n", result.summary());
    out.push_str(&profile.table());
    Ok(out)
}

/// Runs `ssim trace-pack`: re-wraps a streamed span JSONL file as a
/// Chrome trace document. Incomplete trailing lines (a daemon killed
/// mid-write) are skipped, not fatal — that is the point of streaming.
fn execute_trace_pack(args: &TracePackArgs) -> Result<String, CliError> {
    let text = std::fs::read_to_string(&args.input)
        .map_err(|e| CliError::TraceOut(format!("{}: {e}", args.input)))?;
    let (doc, skipped) = sharing_obs::jsonl_to_chrome(&text);
    std::fs::write(&args.output, &doc)
        .map_err(|e| CliError::TraceOut(format!("{}: {e}", args.output)))?;
    let total = text.lines().filter(|l| !l.trim().is_empty()).count();
    Ok(format!(
        "trace-pack: {} -> {}: {} span(s) packed, {skipped} skipped",
        args.input,
        args.output,
        total - skipped
    ))
}

/// Resolves a `--benchmark` name or `--profile` file to the simulator's
/// [`sharing_trace::Workload`]. An assembly file is a raw trace with no
/// workload profile behind it.
fn trace_workload(workload: &Workload) -> Result<sharing_trace::Workload, CliError> {
    match workload {
        Workload::Benchmark(b) => Ok(sharing_trace::Workload::Benchmark(*b)),
        Workload::Extra(name) => sharing_trace::Workload::from_name(name)
            .ok_or_else(|| CliError::UnknownBenchmark(name.clone())),
        Workload::ProfileFile(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::BadProfile(format!("{path}: {e}")))?;
            let profile: WorkloadProfile = sharing_json::from_str(&text)
                .map_err(|e| CliError::BadProfile(format!("{path}: {e}")))?;
            Ok(sharing_trace::Workload::Profile(Box::new(profile)))
        }
        Workload::AsmFile(path) => Err(CliError::ConflictingFlags(format!(
            "{path}: an assembly file is a raw trace, not a workload profile"
        ))),
    }
}

/// Simulates a `run` workload: every workload but an assembly file goes
/// through [`sharing_core::run_workload`] and the shared trace cache.
fn run_workload(
    workload: &Workload,
    cfg: SimConfig,
    len: usize,
    seed: u64,
    obs: Option<&TraceBuffer>,
    threads: usize,
) -> Result<sharing_core::SimResult, CliError> {
    if let Workload::AsmFile(path) = workload {
        return run_asm(path, cfg, len, obs);
    }
    let workload = trace_workload(workload)?;
    if let sharing_trace::Workload::Profile(p) = &workload {
        TraceSpec::check_job(p.threads, len).map_err(CliError::BadProfile)?;
    }
    sharing_core::run_workload(
        &workload,
        cfg,
        &TraceSpec::new(len, seed),
        TraceCache::global(),
        threads,
        obs,
    )
    .map_err(CliError::BadProfile)
}

/// Simulates a hand-written assembly file on one VCore, repeated until
/// the requested trace length.
fn run_asm(
    path: &str,
    cfg: SimConfig,
    len: usize,
    obs: Option<&TraceBuffer>,
) -> Result<sharing_core::SimResult, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::BadAsm(format!("{path}: {e}")))?;
    let mut block = sharing_isa::asm::assemble(&text, 0x1_0000)
        .map_err(|e| CliError::BadAsm(format!("{path}: {e}")))?;
    if block.is_empty() {
        return Err(CliError::BadAsm(format!("{path}: empty program")));
    }
    // The block repeats as one loop iteration: if it does not
    // already end with taken control flow, close the loop with a
    // jump back to the top so the committed path stays connected.
    let last = block.last().expect("non-empty");
    if last.next_pc() != block[0].pc && last.next_pc() == last.pc + 4 {
        block.push(sharing_isa::DynInst::jump(last.pc + 4, block[0].pc));
    }
    let mut insts = Vec::with_capacity(len);
    while insts.len() < len {
        insts.extend(block.iter().copied());
    }
    insts.truncate(len);
    let name = std::path::Path::new(path)
        .file_stem()
        .map_or_else(|| "asm".to_string(), |s| s.to_string_lossy().into_owned());
    let trace = sharing_trace::Trace::from_insts(name, insts);
    let sim = Simulator::new(cfg).expect("validated config");
    let _g = obs.map(|o| o.span(format!("simulate {}", trace.name()), "ssim", 0));
    let mut opts = RunOptions::new();
    if let Some(o) = obs {
        opts = opts.trace_to(o);
    }
    Ok(sim.run_with(&trace, opts).result)
}

/// IPC per `(slices, banks)` grid point, as collected from a daemon sweep.
type SweepGrid = std::collections::HashMap<(usize, usize), f64>;

/// Submits the sweep to a running ssimd and collects the full grid.
/// Returns `(ipc by (slices, banks), cached point count)`.
fn sweep_via_daemon(addr: &str, args: &SweepArgs) -> Result<(SweepGrid, usize), CliError> {
    let mut client = sharing_server::Client::connect(addr)
        .map_err(|e| CliError::Server(format!("{addr}: {e}")))?;
    client
        .hello()
        .map_err(|e| CliError::Server(format!("{addr}: {e}")))?;
    let lines = client
        .submit_all(sharing_server::Job::Sweep(sharing_server::SweepJob {
            benchmark: args.benchmark,
            len: args.len,
            seed: args.seed,
        }))
        .map_err(|e| CliError::Server(e.to_string()))?;
    let last = lines.last().expect("sweep yields at least one line");
    if last.get("type").and_then(|v| v.as_str()) != Some("sweep_done") {
        let msg = last
            .get("error")
            .and_then(|v| v.as_str())
            .unwrap_or("sweep failed")
            .to_string();
        return Err(CliError::Server(msg));
    }
    let mut points = std::collections::HashMap::new();
    let mut cached = 0usize;
    for p in &lines[..lines.len() - 1] {
        let shape = p
            .get("shape")
            .ok_or_else(|| CliError::Server("sweep point missing shape".to_string()))?;
        let s = shape.get("slices").and_then(|v| v.as_int()).unwrap_or(0) as usize;
        let b = shape.get("l2_banks").and_then(|v| v.as_int()).unwrap_or(0) as usize;
        let ipc = p.get("ipc").and_then(|v| v.as_f64()).unwrap_or(0.0);
        if p.get("cached").and_then(|v| v.as_bool()) == Some(true) {
            cached += 1;
        }
        points.insert((s, b), ipc);
    }
    Ok((points, cached))
}

/// Writes a trace buffer as Chrome trace JSON.
fn save_trace(buf: &TraceBuffer, path: &str) -> Result<(), CliError> {
    buf.save_chrome(path)
        .map_err(|e| CliError::TraceOut(format!("{path}: {e}")))
}

/// Submits a job (optionally stamped with a distributed-trace id) and
/// returns the final reply line. A traced daemon streams `spans` lines
/// ahead of the result; they are acknowledged on stderr so stdout stays
/// the reply alone.
fn submit_final(
    client: &mut sharing_server::Client,
    job: sharing_server::Job,
    trace: Option<u64>,
) -> Result<sharing_json::Json, CliError> {
    let mut lines = client
        .submit_all_traced(job, trace)
        .map_err(|e| CliError::Server(e.to_string()))?;
    let reply = lines
        .pop()
        .ok_or_else(|| CliError::Server("job produced no reply".to_string()))?;
    if let Some(id) = trace {
        let spans = lines
            .iter()
            .filter(|l| l.get("type").and_then(|v| v.as_str()) == Some("spans"))
            .count();
        eprintln!("ssim submit: trace {id}: {spans} span batch(es) received");
    }
    Ok(reply)
}

/// Reads and validates a scenario JSON file.
fn load_scenario(path: &str) -> Result<Scenario, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::BadScenario(format!("{path}: {e}")))?;
    let scenario =
        Scenario::parse(&text).map_err(|e| CliError::BadScenario(format!("{path}: {e}")))?;
    scenario
        .validate()
        .map_err(|e| CliError::BadScenario(format!("{path}: {e}")))?;
    Ok(scenario)
}

/// The job a `run` or `dc` submit action sends, shared by the TCP and
/// HTTP paths.
fn submit_job(action: &SubmitAction) -> Result<sharing_server::Job, CliError> {
    match action {
        SubmitAction::Run {
            workload,
            slices,
            banks,
            len,
            seed,
        } => Ok(sharing_server::Job::Run(sharing_server::RunJob {
            workload: workload.clone(),
            slices: *slices,
            banks: *banks,
            len: *len,
            seed: *seed,
        })),
        SubmitAction::Dc {
            scenario_path,
            seed,
            mode,
        } => Ok(sharing_server::Job::Dc(Box::new(sharing_server::DcJob {
            scenario: load_scenario(scenario_path)?,
            seed: *seed,
            mode: *mode,
        }))),
        control => Err(CliError::ConflictingFlags(format!(
            "{control:?} is a control request, not a job"
        ))),
    }
}

/// Runs `ssim submit --url ...`: the same actions as the TCP path, but
/// over the daemon's HTTP front door. Jobs go through `POST /jobs` and
/// a poll loop; the final reply lines come from `GET /jobs/<id>/raw`,
/// which returns the exact bytes the TCP protocol would have streamed.
fn http_submit(url: &str, args: &SubmitArgs) -> Result<String, CliError> {
    use sharing_json::Json;
    let (authority, base) =
        sharing_http::split_url(url).map_err(|e| CliError::Server(format!("{url}: {e}")))?;
    let call = |method: &str, path: &str, body: Option<&[u8]>| {
        let (status, bytes) =
            sharing_http::request(&authority, method, &format!("{base}{path}"), body)
                .map_err(|e| CliError::Server(format!("{url}: {e}")))?;
        Ok::<(u16, String), CliError>((status, String::from_utf8_lossy(&bytes).into_owned()))
    };
    let job = match &args.action {
        SubmitAction::Ping => {
            let (status, _body) = call("GET", "/health", None)?;
            return match status {
                200 => Ok(format!("{url}: pong")),
                503 => Err(CliError::Server(format!("{url}: draining"))),
                _ => Err(CliError::Server(format!("{url}: health answered {status}"))),
            };
        }
        SubmitAction::Stats => {
            let (status, body) = call("GET", "/status", None)?;
            if status != 200 {
                return Err(CliError::Server(format!("{url}: status answered {status}")));
            }
            let v = Json::parse(&body).map_err(|e| CliError::Server(format!("{url}: {e}")))?;
            return Ok(sharing_json::to_string_pretty(&v));
        }
        SubmitAction::Metrics => {
            // Prometheus text goes out verbatim, like the TCP path.
            let (status, body) = call("GET", "/metrics", None)?;
            if status != 200 {
                return Err(CliError::Server(format!(
                    "{url}: metrics answered {status}"
                )));
            }
            return Ok(body);
        }
        SubmitAction::Hello | SubmitAction::Shutdown => {
            return Err(CliError::ConflictingFlags(
                "--hello and --shutdown are TCP-only; use --addr".to_string(),
            ));
        }
        SubmitAction::Run { .. } | SubmitAction::Dc { .. } => submit_job(&args.action)?,
    };
    let env = sharing_server::Envelope {
        id: None,
        proto: Some(sharing_server::PROTO_VERSION),
        trace: args.trace,
        req: sharing_server::Request::Job(job),
    };
    let (status, body) = call("POST", "/jobs", Some(env.to_line().as_bytes()))?;
    if status != 202 {
        return Err(CliError::Server(format!(
            "{url}: submit answered {status}: {body}"
        )));
    }
    let accepted = Json::parse(&body).map_err(|e| CliError::Server(format!("{url}: {e}")))?;
    let id = accepted
        .get("id")
        .and_then(sharing_json::Json::as_int)
        .ok_or_else(|| CliError::Server(format!("{url}: submit reply lacks an id: {body}")))?;
    // Poll until the worker finishes; jobs here are bounded (a single
    // run or dc scenario), so a stuck daemon is the only way to spin.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(300);
    loop {
        let (status, body) = call("GET", &format!("/jobs/{id}"), None)?;
        if status != 200 {
            return Err(CliError::Server(format!(
                "{url}: poll answered {status}: {body}"
            )));
        }
        let v = Json::parse(&body).map_err(|e| CliError::Server(format!("{url}: {e}")))?;
        if v.get("status").and_then(sharing_json::Json::as_str) == Some("done") {
            break;
        }
        if std::time::Instant::now() > deadline {
            return Err(CliError::Server(format!("{url}: job {id} timed out")));
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let (status, raw) = call("GET", &format!("/jobs/{id}/raw"), None)?;
    if status != 200 {
        return Err(CliError::Server(format!(
            "{url}: raw fetch answered {status}"
        )));
    }
    let mut out = String::new();
    for line in raw.lines().filter(|l| !l.is_empty()) {
        let reply = Json::parse(line).map_err(|e| CliError::Server(format!("{url}: {e}")))?;
        if reply.get("ok").and_then(|v| v.as_bool()) == Some(false) {
            let msg = sharing_server::ServerError::from_reply(&reply)
                .map_or_else(|| "request failed".to_string(), |e| e.to_string());
            return Err(CliError::Server(msg));
        }
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&sharing_json::to_string_pretty(&reply));
    }
    Ok(out)
}

/// Runs `ssim dc`: one billing mode or the full comparison, with optional
/// CSV / event-log artifacts. Same scenario + same seed ⇒ byte-identical
/// output and files.
fn execute_dc(args: &DcArgs) -> Result<String, CliError> {
    if args.emit_example {
        return Ok(sharing_json::to_string_pretty(&Scenario::example_bursty()));
    }
    let path = args
        .scenario_path
        .as_ref()
        .expect("parse() requires a scenario unless --emit-example");
    let scenario = load_scenario(path)?;
    let sim = DcSim::new(scenario).map_err(CliError::BadScenario)?;

    // Logical-cycle tracing: spans carry simulated timestamps and
    // deterministic durations, so the outcome below is byte-identical
    // with or without `--trace-out`.
    let obs = args.trace_out.as_ref().map(|_| TraceBuffer::new());
    let mut out = String::new();
    let outcomes = match args.mode {
        Some(mode) => vec![sim.run_traced(mode, args.seed, obs.as_ref())],
        None => {
            let cmp = sim.run_comparison_traced(args.seed, obs.as_ref());
            out.push_str(&cmp.summary());
            out.push('\n');
            vec![cmp.sharing, cmp.fixed]
        }
    };
    for o in &outcomes {
        let _ = writeln!(out, "{}", o.summary());
        let _ = writeln!(out, "  {} event-log hash {}", o.mode.name(), o.log_hash());
    }
    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::BadScenario(format!("--out {dir}: {e}")))?;
        for o in &outcomes {
            let stem = format!("{}-{}", o.scenario, o.mode.name());
            let csv = std::path::Path::new(dir).join(format!("{stem}.csv"));
            let log = std::path::Path::new(dir).join(format!("{stem}.log"));
            std::fs::write(&csv, o.csv())
                .map_err(|e| CliError::BadScenario(format!("{}: {e}", csv.display())))?;
            std::fs::write(&log, o.log())
                .map_err(|e| CliError::BadScenario(format!("{}: {e}", log.display())))?;
            let _ = writeln!(out, "wrote {} and {}", csv.display(), log.display());
        }
    }
    if let (Some(path), Some(buf)) = (&args.trace_out, &obs) {
        save_trace(buf, path)?;
        let _ = writeln!(out, "wrote trace {path} ({} spans)", buf.len());
    }
    Ok(out)
}

/// The worker daemons `ssim chaos` spawns and drives. Killing members
/// is part of the fault model (`sigkill_worker`); dropping the fleet
/// kills any survivors so a failed run leaves no stray daemons behind.
struct ChaosFleet {
    children: Vec<Option<std::process::Child>>,
    addrs: Vec<String>,
}

impl ChaosFleet {
    /// Spawns `workers` copies of this binary running `serve` and waits
    /// until every one answers pings.
    fn spawn(workers: usize, base_port: u16) -> Result<ChaosFleet, CliError> {
        let exe = std::env::current_exe()
            .map_err(|e| CliError::Server(format!("chaos: locating the ssim binary: {e}")))?;
        let mut fleet = ChaosFleet {
            children: Vec::new(),
            addrs: Vec::new(),
        };
        for i in 0..workers {
            let port = if base_port == 0 {
                free_port()?
            } else {
                base_port + u16::try_from(i).unwrap_or(0)
            };
            let addr = format!("127.0.0.1:{port}");
            let child = std::process::Command::new(&exe)
                .args(["serve", "--addr", &addr, "--workers", "2"])
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                // Faults inject coordinator-side; the workers themselves
                // stay clean even if the parent environment carries a plan.
                .env_remove(sharing_chaos::PLAN_ENV)
                .env_remove(sharing_chaos::SCHEDULE_ENV)
                .spawn()
                .map_err(|e| CliError::Server(format!("chaos: spawning worker {addr}: {e}")))?;
            fleet.children.push(Some(child));
            fleet.addrs.push(addr);
        }
        fleet.wait_ready()?;
        Ok(fleet)
    }

    fn wait_ready(&self) -> Result<(), CliError> {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        for addr in &self.addrs {
            loop {
                let up = sharing_server::Client::connect_timeout(
                    addr.as_str(),
                    std::time::Duration::from_millis(200),
                )
                .and_then(|mut c| c.ping())
                .unwrap_or(false);
                if up {
                    break;
                }
                if std::time::Instant::now() > deadline {
                    return Err(CliError::Server(format!(
                        "chaos: worker {addr} never came up"
                    )));
                }
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
        }
        Ok(())
    }

    /// Workers still running.
    fn live(&self) -> usize {
        self.children.iter().filter(|c| c.is_some()).count()
    }

    /// SIGKILLs worker `i`. Idempotent: re-killing a dead worker is a
    /// no-op, matching a plan that names the same victim twice.
    fn kill(&mut self, i: usize) {
        if let Some(mut child) = self.children[i].take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    fn shutdown(&mut self) {
        for i in 0..self.children.len() {
            self.kill(i);
        }
    }
}

impl Drop for ChaosFleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds port 0 to learn a free port, then releases it for the worker.
fn free_port() -> Result<u16, CliError> {
    std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map(|a| a.port())
        .map_err(|e| CliError::Server(format!("chaos: picking a port: {e}")))
}

/// The four-step job mix both chaos passes run: a full 72-point sweep
/// grid, the two extra seeded profiles, and a datacenter scenario.
fn chaos_mix(len: usize) -> Vec<(&'static str, sharing_server::Job)> {
    use sharing_server::{DcJob, Job, JobWorkload, RunJob, SweepJob};
    vec![
        (
            "sweep gcc",
            Job::Sweep(SweepJob {
                benchmark: Benchmark::Gcc,
                len,
                seed: 9,
            }),
        ),
        (
            "run bursty",
            Job::Run(RunJob {
                workload: JobWorkload::Profile(Box::new(sharing_trace::bursty_profile())),
                slices: 2,
                banks: 4,
                len,
                seed: 11,
            }),
        ),
        (
            "run phaseshift",
            Job::Run(RunJob {
                workload: JobWorkload::Profile(Box::new(sharing_trace::phase_shift_profile())),
                slices: 4,
                banks: 8,
                len,
                seed: 11,
            }),
        ),
        (
            "dc example",
            Job::Dc(Box::new(DcJob {
                scenario: Scenario::example_bursty(),
                seed: 7,
                mode: None,
            })),
        ),
    ]
}

/// After a kill, waits until the coordinator's health probes agree with
/// the fleet. This pins the dispatch picture at every mix step, so a
/// replay never races a probe into seeing (and counting) a dispatch to
/// a dead-but-not-yet-noticed worker.
fn wait_for_healthy(client: &mut sharing_server::Client, expect: usize) -> Result<(), CliError> {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        let stats = client
            .stats()
            .map_err(|e| CliError::Server(format!("chaos: stats: {e}")))?;
        let healthy = stats
            .get("workers_healthy")
            .and_then(sharing_json::Json::as_int)
            .unwrap_or(-1);
        if healthy == expect as i128 {
            return Ok(());
        }
        if std::time::Instant::now() > deadline {
            return Err(CliError::Server(format!(
                "chaos: coordinator reports {healthy} healthy workers, expected {expect}"
            )));
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
}

/// One pass of the mix: a fresh in-process coordinator over the fleet,
/// the four jobs (killing workers where the armed plan says so when
/// `inject`), a stats snapshot, and a graceful drain under a watchdog.
/// Returns the reply lines (serialized) and the stats snapshot.
fn run_chaos_mix(
    fleet: &mut ChaosFleet,
    len: usize,
    inject: bool,
) -> Result<(Vec<String>, sharing_json::Json), CliError> {
    let cfg = sharing_server::ServerConfig {
        addr: "127.0.0.1:0".into(),
        remote_workers: fleet.addrs.clone(),
        // One extra attempt of slack over the default: the worst chaos
        // chain (drop, partition-refused reconnect, second drop) burns
        // three attempts on one point.
        dispatch_retries: 4,
        ..sharing_server::ServerConfig::default()
    };
    let handle = sharing_server::Server::start(cfg)
        .map_err(|e| CliError::Server(format!("chaos: coordinator: {e}")))?;
    let addr = handle.local_addr().to_string();
    let outcome = (|| {
        let mut client = sharing_server::Client::connect(&addr)
            .map_err(|e| CliError::Server(format!("chaos: {addr}: {e}")))?;
        client
            .hello()
            .map_err(|e| CliError::Server(format!("chaos: {addr}: {e}")))?;
        let mut lines = Vec::new();
        for (step, (label, job)) in chaos_mix(len).into_iter().enumerate() {
            if inject {
                let victim =
                    sharing_chaos::hooks().sigkill_step(step as u64 + 1, fleet.addrs.len());
                if let Some(victim) = victim {
                    fleet.kill(victim);
                    wait_for_healthy(&mut client, fleet.live())?;
                }
            }
            let replies = client
                .submit_all(job)
                .map_err(|e| CliError::Server(format!("chaos: {label}: {e}")))?;
            for r in &replies {
                if r.get("ok").and_then(|v| v.as_bool()) == Some(false) {
                    let msg = sharing_server::ServerError::from_reply(r)
                        .map_or_else(|| "job failed".to_string(), |e| e.to_string());
                    return Err(CliError::Server(format!("chaos: {label}: {msg}")));
                }
                lines.push(sharing_json::to_string(r));
            }
        }
        let stats = client
            .stats()
            .map_err(|e| CliError::Server(format!("chaos: stats: {e}")))?;
        Ok((lines, stats))
    })();
    // Drain the coordinator even when the mix failed; a drain that hangs
    // is an invariant violation of its own, hence the watchdog.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.stop();
        let _ = tx.send(());
    });
    if rx.recv_timeout(std::time::Duration::from_secs(60)).is_err() {
        return Err(CliError::Server(
            "chaos: invariant drain-terminates violated: coordinator stuck after 60s".to_string(),
        ));
    }
    outcome
}

/// Checks the sweep portion of a pass: exactly 72 distinct shapes and
/// one `sweep_done` marker — no point lost, none double-completed.
fn check_sweep_complete(lines: &[String]) -> Result<(), CliError> {
    use sharing_json::Json;
    let mut shapes = std::collections::HashSet::new();
    let mut done = 0usize;
    for line in lines {
        let v = Json::parse(line)
            .map_err(|e| CliError::Server(format!("chaos: unparseable reply line: {e}")))?;
        match v.get("type").and_then(Json::as_str) {
            Some("sweep_point") => {
                let shape = v
                    .get("shape")
                    .ok_or_else(|| CliError::Server("chaos: sweep point lacks a shape".into()))?;
                let s = shape.get("slices").and_then(Json::as_int).unwrap_or(-1);
                let b = shape.get("l2_banks").and_then(Json::as_int).unwrap_or(-1);
                if !shapes.insert((s, b)) {
                    return Err(CliError::Server(format!(
                        "chaos: invariant sweep-complete violated: shape {s}s/{b}b completed twice"
                    )));
                }
            }
            Some("sweep_done") => done += 1,
            _ => {}
        }
    }
    if shapes.len() != 72 || done != 1 {
        return Err(CliError::Server(format!(
            "chaos: invariant sweep-complete violated: {} unique shapes (want 72), {done} \
             sweep_done markers (want 1)",
            shapes.len()
        )));
    }
    Ok(())
}

/// Checks a pass's metrics: every submitted job completed, none
/// rejected or errored.
fn check_jobs_accounted(label: &str, stats: &sharing_json::Json) -> Result<(), CliError> {
    let stat = |key: &str| {
        stats
            .get(key)
            .and_then(sharing_json::Json::as_int)
            .unwrap_or(-1)
    };
    let (submitted, completed) = (stat("jobs_submitted"), stat("jobs_completed"));
    let (rejected, errors) = (stat("jobs_rejected"), stat("errors"));
    if submitted != 4 || completed != 4 || rejected != 0 || errors != 0 {
        return Err(CliError::Server(format!(
            "chaos: invariant jobs-accounted violated ({label}): submitted {submitted} \
             completed {completed} rejected {rejected} errors {errors} (want 4/4/0/0)"
        )));
    }
    Ok(())
}

/// Runs `ssim chaos`: spawn the fleet, run the mix fault-free, replay
/// it under the armed plan, and check every invariant.
fn execute_chaos(args: &ChaosArgs) -> Result<String, CliError> {
    let plan = match &args.plan_path {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::Server(format!("chaos: plan {path}: {e}")))?;
            sharing_chaos::FaultPlan::parse(&text)
                .map_err(|e| CliError::Server(format!("chaos: plan {path}: {e}")))?
        }
        None => sharing_chaos::FaultPlan::smoke(args.seed),
    };
    let hooks = sharing_chaos::hooks();
    hooks.disarm();
    let mut fleet = ChaosFleet::spawn(args.workers, args.base_port)?;
    let mut out = format!(
        "chaos: plan seed {} ({} rule(s)), {} worker daemon(s), len {}\n",
        plan.seed,
        plan.rules.len(),
        args.workers,
        args.len
    );
    let (baseline, base_stats) = run_chaos_mix(&mut fleet, args.len, false)?;
    let _ = writeln!(out, "chaos: baseline mix: {} reply lines", baseline.len());
    hooks.arm(plan);
    let chaos_pass = run_chaos_mix(&mut fleet, args.len, true);
    let schedule = hooks.schedule();
    let schedule_text = hooks.schedule_lines();
    hooks.disarm();
    let (chaos_lines, chaos_stats) = chaos_pass?;
    fleet.shutdown();

    let mut by_kind: Vec<(String, usize)> = Vec::new();
    for inj in &schedule {
        let name = inj.kind.to_string();
        match by_kind.iter_mut().find(|(k, _)| *k == name) {
            Some((_, c)) => *c += 1,
            None => by_kind.push((name, 1)),
        }
    }
    let breakdown = by_kind
        .iter()
        .map(|(k, c)| format!("{k} {c}"))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(
        out,
        "chaos: chaos mix: {} reply lines, {} fault(s) injected ({breakdown})",
        chaos_lines.len(),
        schedule.len()
    );

    if chaos_lines != baseline {
        let first = baseline
            .iter()
            .zip(&chaos_lines)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| baseline.len().min(chaos_lines.len()));
        return Err(CliError::Server(format!(
            "chaos: invariant results-identical violated: {} baseline vs {} chaos lines, first \
             difference at line {first}",
            baseline.len(),
            chaos_lines.len()
        )));
    }
    let _ = writeln!(
        out,
        "chaos: invariant results-identical: OK ({} lines byte-identical)",
        chaos_lines.len()
    );
    check_sweep_complete(&chaos_lines)?;
    let _ = writeln!(
        out,
        "chaos: invariant sweep-complete: OK (72 unique shapes)"
    );
    check_jobs_accounted("baseline", &base_stats)?;
    check_jobs_accounted("chaos", &chaos_stats)?;
    let retries = chaos_stats
        .get("dispatch_retries")
        .and_then(sharing_json::Json::as_int)
        .unwrap_or(0);
    let _ = writeln!(
        out,
        "chaos: invariant jobs-accounted: OK (4 jobs per pass, {retries} dispatch retries under \
         chaos)"
    );
    let _ = writeln!(out, "chaos: invariant drain-terminates: OK (both passes)");
    if let Some(path) = &args.schedule_out {
        std::fs::write(path, &schedule_text)
            .map_err(|e| CliError::Server(format!("chaos: schedule {path}: {e}")))?;
        let _ = writeln!(
            out,
            "chaos: wrote schedule {path} ({} line(s))",
            schedule.len()
        );
    }
    out.push_str("chaos: all invariants held\n");
    Ok(out)
}

/// Executes a parsed command, returning its stdout payload.
///
/// # Errors
///
/// Returns a [`CliError`] on config problems; simulation itself is total.
pub fn execute(cmd: &Command) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(usage()),
        Command::List => {
            let mut out = String::from("available benchmarks (paper §5.2 suite):\n");
            for b in ALL_BENCHMARKS {
                let kind = if b.is_parsec() {
                    "PARSEC, 4 threads"
                } else {
                    "single-thread"
                };
                out.push_str(&format!("  {:<12} {kind}\n", b.name()));
            }
            out.push_str("\nextra seeded profiles (run/submit/chaos mixes):\n");
            for name in EXTRA_PROFILES {
                let p = extra_profile(name).expect("registered extra profile");
                let kind = if p.threads > 1 {
                    format!("{} threads", p.threads)
                } else {
                    "single-thread".to_string()
                };
                out.push_str(&format!("  {name:<12} {kind}\n"));
            }
            Ok(out)
        }
        Command::EmitConfig => {
            let cfg = SimConfig::builder()
                .build()
                .map_err(|e| CliError::BadSimConfig(e.to_string()))?;
            Ok(sharing_json::to_string_pretty(&cfg))
        }
        Command::Run(args) => {
            let obs = args.trace_out.as_ref().map(|_| TraceBuffer::new());
            let cfg = {
                let _g = obs.as_ref().map(|o| o.span("load-config", "ssim", 0));
                load_config(args)?
            };
            let result = run_workload(
                &args.workload,
                cfg,
                args.len,
                args.seed,
                obs.as_ref(),
                args.threads,
            )?;
            let mut out = if args.json {
                sharing_json::to_string_pretty(&result)
            } else {
                let s = &result.stalls;
                format!(
                    "{}\nstall cycles: rob {} | window {} | lsq {} | mshr {} | store-buffer {} \
                     | freelist {} | mispredict {} | icache {}\nnetwork: {} operand msgs \
                     ({} remote operands, {} LRF copy hits), {} LS-sort msgs, {} rename bcasts",
                    result.summary(),
                    s.rob_full,
                    s.window_full,
                    s.lsq_full,
                    s.mshr_full,
                    s.store_buffer_full,
                    s.freelist_empty,
                    s.mispredict,
                    s.icache,
                    result.operand_net.messages,
                    result.remote_operand_requests,
                    result.lrf_copy_hits,
                    result.ls_sort_messages,
                    result.rename_broadcasts,
                )
            };
            if let (Some(path), Some(buf)) = (&args.trace_out, &obs) {
                save_trace(buf, path)?;
                if args.json {
                    // Keep stdout pure JSON for machine consumers.
                    eprintln!("ssim: wrote trace {path} ({} spans)", buf.len());
                } else {
                    let _ = write!(out, "\nwrote trace {path} ({} spans)", buf.len());
                }
            }
            Ok(out)
        }
        Command::Dc(args) => execute_dc(args),
        Command::Chaos(args) => execute_chaos(args),
        Command::Profile(args) => execute_profile(args),
        Command::TracePack(args) => execute_trace_pack(args),
        Command::Serve(args) => {
            let mut cfg = sharing_server::ServerConfig {
                addr: args.addr.clone(),
                queue_capacity: args.queue,
                cache_capacity: args.cache,
                cache_path: args.cache_file.clone(),
                trace_path: args.trace_out.clone(),
                remote_workers: args.workers_remote.clone(),
                dispatch_retries: args.retries,
                job_timeout_ms: args.job_timeout_ms,
                http_addr: args.http.clone(),
                ..sharing_server::ServerConfig::default()
            };
            if let Some(w) = args.workers {
                cfg.workers = w;
            }
            // The pidfile is claimed before the sockets bind, so two
            // daemons racing on one pidfile cannot both come up; its
            // guard removes the file when this arm returns.
            let _pidfile = match &args.pidfile {
                Some(path) => Some(
                    sharing_http::Pidfile::create(path)
                        .map_err(|e| CliError::Server(format!("pidfile {path}: {e}")))?,
                ),
                None => None,
            };
            sharing_http::install_termination_handler()
                .map_err(|e| CliError::Server(format!("signal handlers: {e}")))?;
            // A daemon launched with SSIM_CHAOS_PLAN set arms itself, so
            // whole fleets can run under one plan without code changes.
            match sharing_chaos::hooks().arm_from_env() {
                Ok(true) => eprintln!(
                    "ssim serve: chaos plan armed from ${}",
                    sharing_chaos::PLAN_ENV
                ),
                Ok(false) => {}
                Err(e) => return Err(CliError::Server(e)),
            }
            let handle =
                sharing_server::Server::start(cfg).map_err(|e| CliError::Server(e.to_string()))?;
            if args.workers_remote.is_empty() {
                eprintln!(
                    "ssim serve: listening on {} (stop with `ssim submit --shutdown`)",
                    handle.local_addr()
                );
            } else {
                eprintln!(
                    "ssim serve: coordinating {} worker(s) on {} (stop with `ssim submit \
                     --shutdown`)",
                    args.workers_remote.len(),
                    handle.local_addr()
                );
            }
            if let Some(http) = handle.http_addr() {
                eprintln!("ssim serve: http listening on {http}");
            }
            // Poll rather than block in join(): a client `shutdown`
            // flips is_stopped(), SIGTERM/SIGINT flips the termination
            // flag, and either way the same graceful drain runs.
            while !handle.is_stopped() && !sharing_http::termination_requested() {
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            if sharing_http::termination_requested() {
                eprintln!("ssim serve: termination signal received, draining");
            }
            handle.shutdown();
            handle.join();
            sharing_chaos::hooks().write_schedule_from_env();
            Ok("ssim serve: drained and stopped".to_string())
        }
        Command::Submit(args) => {
            if let Some(url) = &args.url {
                return http_submit(url, args);
            }
            let mut client = sharing_server::Client::connect(&args.addr)
                .map_err(|e| CliError::Server(format!("{}: {e}", args.addr)))?;
            let reply = match &args.action {
                SubmitAction::Ping => {
                    let up = client.ping().map_err(|e| CliError::Server(e.to_string()))?;
                    return if up {
                        Ok(format!("{}: pong", args.addr))
                    } else {
                        Err(CliError::Server(format!("{}: unexpected reply", args.addr)))
                    };
                }
                SubmitAction::Hello => {
                    let proto = client
                        .hello()
                        .map_err(|e| CliError::Server(e.to_string()))?;
                    return Ok(format!(
                        "{}: speaking protocol v{proto} (client v{})",
                        args.addr,
                        sharing_server::PROTO_VERSION
                    ));
                }
                SubmitAction::Stats => client
                    .stats()
                    .map_err(|e| CliError::Server(e.to_string()))?,
                SubmitAction::Metrics => {
                    // Prometheus text exposition goes out verbatim so it
                    // can be piped straight to a scrape file.
                    return client
                        .metrics()
                        .map_err(|e| CliError::Server(e.to_string()));
                }
                SubmitAction::Shutdown => client
                    .shutdown()
                    .map_err(|e| CliError::Server(e.to_string()))?,
                SubmitAction::Run { .. } | SubmitAction::Dc { .. } => {
                    submit_final(&mut client, submit_job(&args.action)?, args.trace)?
                }
            };
            if reply.get("ok").and_then(|v| v.as_bool()) == Some(false) {
                let msg = sharing_server::ServerError::from_reply(&reply)
                    .map_or_else(|| "request failed".to_string(), |e| e.to_string());
                return Err(CliError::Server(msg));
            }
            Ok(sharing_json::to_string_pretty(&reply))
        }
        Command::Sweep(args) => {
            // With --daemon, all 72 points come from a running ssimd (and
            // its shared result cache); otherwise they are simulated
            // in-process: the trace is generated once (shared through the
            // process-wide TraceCache) and the grid runs on a `--jobs`-
            // sized worker pool. Results are collected by point index, so
            // the rendered table is byte-identical no matter how many
            // workers ran — or whether the points came from a daemon.
            let obs = args.trace_out.as_ref().map(|_| TraceBuffer::new());
            let remote = match &args.daemon {
                Some(addr) => {
                    let _g = obs.as_ref().map(|o| {
                        o.span(format!("sweep {} via {addr}", args.benchmark), "sweep", 0)
                    });
                    Some(sweep_via_daemon(addr, args)?)
                }
                None => None,
            };
            let grid: Vec<VCoreShape> = VCoreShape::sweep_grid().collect();
            let cols = grid.iter().filter(|shape| shape.slices == 1).count();
            let ipcs: Vec<f64> = match &remote {
                Some(points) => grid
                    .iter()
                    .map(|shape| {
                        let (s, b) = (shape.slices, shape.l2_banks);
                        points.0.get(&(s, b)).copied().ok_or_else(|| {
                            CliError::Server(format!("daemon sweep missing shape {s}s/{b}b"))
                        })
                    })
                    .collect::<Result<_, _>>()?,
                None => {
                    let jobs = sharing_core::par::resolve_jobs(args.jobs);
                    let workload = Workload::Benchmark(args.benchmark);
                    sharing_core::par::map_indexed(jobs, &grid, |_, shape| {
                        let (s, b) = (shape.slices, shape.l2_banks);
                        let cfg = SimConfig::with_shape(s, b)
                            .map_err(|e| CliError::BadSimConfig(e.to_string()))?;
                        let t0 = std::time::Instant::now();
                        let mut guard = obs
                            .as_ref()
                            .map(|o| o.span(format!("point {s}s/{b}b"), "sweep", 0));
                        let r = run_workload(&workload, cfg, args.len, args.seed, None, 1)?;
                        if let Some(g) = guard.as_mut() {
                            use sharing_json::Json;
                            let dt = t0.elapsed().as_secs_f64().max(1e-9);
                            g.add_arg("slices", Json::Int(s as i128));
                            g.add_arg("l2_banks", Json::Int(b as i128));
                            g.add_arg("ipc", Json::Float(r.ipc()));
                            g.add_arg("cycles", Json::Int(i128::from(r.cycles)));
                            g.add_arg("cycles_per_sec", Json::Float(r.cycles as f64 / dt));
                        }
                        Ok(r.ipc())
                    })
                    .into_iter()
                    .collect::<Result<_, _>>()?
                }
            };
            let mut out = format!(
                "{}: IPC over the paper's configuration grid (len {}, seed {})\n\n",
                args.benchmark, args.len, args.seed
            );
            out.push_str("slices\\banks");
            for shape in &grid[..cols] {
                out.push_str(&format!("{:>7}", shape.l2_kb()));
            }
            out.push('\n');
            for (shapes, row) in grid.chunks(cols).zip(ipcs.chunks(cols)) {
                out.push_str(&format!("{:>12}", shapes[0].slices));
                for ipc in row {
                    out.push_str(&format!("{ipc:>7.3}"));
                }
                out.push('\n');
            }
            out.push_str("\n(columns are L2 KB: 0, 64, 128, 256, 512, 1024, 2048, 4096, 8192)\n");
            if let Some(path) = &args.csv_out {
                let mut csv = String::from("benchmark,slices,l2_banks,l2_kb,ipc\n");
                for (shape, ipc) in grid.iter().zip(&ipcs) {
                    let _ = writeln!(
                        csv,
                        "{},{},{},{},{ipc:.6}",
                        args.benchmark,
                        shape.slices,
                        shape.l2_banks,
                        shape.l2_kb()
                    );
                }
                std::fs::write(path, csv).map_err(|e| CliError::CsvOut(format!("{path}: {e}")))?;
                let _ = writeln!(out, "wrote csv {path} ({} points)", grid.len());
            }
            if let (Some(addr), Some(points)) = (&args.daemon, &remote) {
                let _ = writeln!(
                    out,
                    "served by ssimd at {addr}: {} of 72 points from its cache",
                    points.1
                );
            }
            if let (Some(path), Some(buf)) = (&args.trace_out, &obs) {
                save_trace(buf, path)?;
                let _ = writeln!(out, "wrote trace {path} ({} spans)", buf.len());
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| (*x).to_string()).collect()
    }

    #[test]
    fn parses_run_with_flags() {
        let cmd = parse(&s(&[
            "run",
            "--benchmark",
            "mcf",
            "--slices",
            "4",
            "--banks",
            "8",
            "--len",
            "1000",
            "--seed",
            "7",
            "--json",
        ]))
        .unwrap();
        match cmd {
            Command::Run(a) => {
                assert_eq!(a.workload, Workload::Benchmark(Benchmark::Mcf));
                assert_eq!(a.slices, 4);
                assert_eq!(a.banks, 8);
                assert_eq!(a.len, 1000);
                assert_eq!(a.seed, 7);
                assert!(a.json);
            }
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn run_requires_benchmark() {
        assert_eq!(
            parse(&s(&["run", "--slices", "2"])),
            Err(CliError::MissingValue(
                "--benchmark, --profile or --asm".to_string()
            ))
        );
    }

    #[test]
    fn rejects_unknown_benchmark_and_flags() {
        assert!(matches!(
            parse(&s(&["run", "--benchmark", "doom"])),
            Err(CliError::UnknownBenchmark(_))
        ));
        assert!(matches!(
            parse(&s(&["run", "--benchmark", "gcc", "--turbo"])),
            Err(CliError::UnknownFlag(_))
        ));
        assert!(matches!(
            parse(&s(&["explode"])),
            Err(CliError::UnknownCommand(_))
        ));
        assert_eq!(parse(&[]), Err(CliError::MissingCommand));
    }

    #[test]
    fn len_is_capped_like_a_daemon_job() {
        let cap = sharing_trace::MAX_TRACE_LEN.to_string();
        let over = (sharing_trace::MAX_TRACE_LEN + 1).to_string();
        for sub in ["run", "sweep", "profile"] {
            assert!(parse(&s(&[sub, "--benchmark", "gcc", "--len", &cap])).is_ok());
            for bad in ["0", over.as_str()] {
                let err = parse(&s(&[sub, "--benchmark", "gcc", "--len", bad])).unwrap_err();
                assert!(matches!(err, CliError::OutOfRange(..)), "{sub}: {err:?}");
                assert!(err.to_string().contains(&cap), "{err}");
            }
        }
    }

    #[test]
    fn help_and_list_and_config_parse() {
        assert_eq!(parse(&s(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse(&s(&["list"])).unwrap(), Command::List);
        assert_eq!(parse(&s(&["config"])).unwrap(), Command::EmitConfig);
    }

    #[test]
    fn list_names_every_benchmark() {
        let out = execute(&Command::List).unwrap();
        for b in ALL_BENCHMARKS {
            assert!(out.contains(b.name()), "missing {b}");
        }
    }

    #[test]
    fn list_names_every_extra_profile() {
        let out = execute(&Command::List).unwrap();
        for name in EXTRA_PROFILES {
            assert!(out.contains(name), "missing extra profile {name}");
        }
    }

    #[test]
    fn run_benchmark_resolves_extra_profiles() {
        let cmd = parse(&s(&["run", "--benchmark", "bursty"])).unwrap();
        match cmd {
            Command::Run(a) => assert_eq!(a.workload, Workload::Extra("bursty".to_string())),
            other => panic!("expected run, got {other:?}"),
        }
        // A made-up name still fails cleanly after both lookups miss.
        assert!(matches!(
            parse(&s(&["run", "--benchmark", "quiescent"])),
            Err(CliError::UnknownBenchmark(_))
        ));
    }

    #[test]
    fn parses_chaos_flags() {
        let cmd = parse(&s(&[
            "chaos",
            "--seed",
            "42",
            "--workers",
            "3",
            "--base-port",
            "7100",
            "--len",
            "500",
            "--schedule-out",
            "sched.txt",
        ]))
        .unwrap();
        match cmd {
            Command::Chaos(a) => {
                assert_eq!(a.plan_path, None);
                assert_eq!(a.seed, 42);
                assert_eq!(a.workers, 3);
                assert_eq!(a.base_port, 7100);
                assert_eq!(a.len, 500);
                assert_eq!(a.schedule_out, Some("sched.txt".to_string()));
            }
            other => panic!("expected chaos, got {other:?}"),
        }
        match parse(&s(&["chaos", "--plan", "plan.json"])).unwrap() {
            Command::Chaos(a) => {
                assert_eq!(a.plan_path, Some("plan.json".to_string()));
                assert_eq!(a.workers, 2, "default fleet size");
            }
            other => panic!("expected chaos, got {other:?}"),
        }
        assert_eq!(
            parse(&s(&["chaos", "--workers", "0"])),
            Err(CliError::BadValue("--workers".to_string(), "0".to_string()))
        );
    }

    #[test]
    fn bursty_profile_runs_end_to_end() {
        let out = execute(&Command::Run(RunArgs {
            workload: Workload::Extra("bursty".to_string()),
            slices: 2,
            banks: 4,
            len: 500,
            seed: 3,
            config_path: None,
            json: true,
            trace_out: None,
            threads: 1,
        }))
        .unwrap();
        let v = sharing_json::Json::parse(&out).unwrap();
        assert!(v.get("cycles").is_some(), "no cycles in {out}");
    }

    #[test]
    fn emitted_config_round_trips_through_run() {
        let json = execute(&Command::EmitConfig).unwrap();
        let dir = std::env::temp_dir().join("ssim-test-config.json");
        std::fs::write(&dir, &json).unwrap();
        let cmd = parse(&s(&[
            "run",
            "--benchmark",
            "hmmer",
            "--len",
            "800",
            "--config",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("IPC"), "report should mention IPC: {out}");
        let _ = std::fs::remove_file(dir);
    }

    #[test]
    fn run_json_output_is_parseable() {
        let cmd = parse(&s(&[
            "run",
            "--benchmark",
            "gobmk",
            "--len",
            "800",
            "--json",
        ]))
        .unwrap();
        let out = execute(&cmd).unwrap();
        let v = sharing_json::Json::parse(&out).unwrap();
        assert_eq!(v.get("instructions").and_then(|x| x.as_int()), Some(800));
    }

    #[test]
    fn threads_flag_leaves_run_output_byte_identical() {
        let cmd = |extra: &[&str]| {
            let mut argv = vec!["run", "--benchmark", "dedup", "--len", "600", "--json"];
            argv.extend_from_slice(extra);
            execute(&parse(&s(&argv)).unwrap()).unwrap()
        };
        let default = cmd(&[]);
        for threads in ["1", "2", "4"] {
            let sharded = cmd(&["--threads", threads]);
            assert_eq!(default, sharded, "--threads {threads} changed the output");
        }
        assert_eq!(
            parse(&s(&["run", "--benchmark", "gcc", "--threads", "0"])),
            Err(CliError::BadValue("--threads".to_string(), "0".to_string()))
        );
    }

    #[test]
    fn retired_engine_flag_is_a_usage_error() {
        // One timing engine remains, so its selector flag is gone (built
        // from parts so the retired spelling appears nowhere else).
        let flag = ["--", "engine"].concat();
        assert_eq!(
            parse(&s(&["run", "--benchmark", "gcc", &flag, "legacy"])),
            Err(CliError::UnknownFlag(flag))
        );
    }

    #[test]
    fn bad_config_file_reports_cleanly() {
        let cmd = Command::Run(RunArgs {
            workload: Workload::Benchmark(Benchmark::Gcc),
            slices: 1,
            banks: 1,
            len: 100,
            seed: 1,
            config_path: Some("/nonexistent/ssim.json".to_string()),
            json: false,
            trace_out: None,
            threads: 1,
        });
        assert!(matches!(execute(&cmd), Err(CliError::BadConfig(_))));
    }

    #[test]
    fn run_trace_out_writes_parseable_chrome_trace() {
        let path = std::env::temp_dir().join("ssim-test-run-trace.json");
        let cmd = parse(&s(&[
            "run",
            "--benchmark",
            "gcc",
            "--len",
            "600",
            "--trace-out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("wrote trace"), "{out}");

        let text = std::fs::read_to_string(&path).unwrap();
        let v = sharing_json::Json::parse(&text).expect("trace must be valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("traceEvents array");
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert!(!spans.is_empty(), "expected at least one span");
        for e in &spans {
            let ts = e.get("ts").and_then(|x| x.as_int()).expect("ts");
            let dur = e.get("dur").and_then(|x| x.as_int()).expect("dur");
            assert!(ts >= 0, "negative ts in {e}");
            assert!(dur >= 0, "negative dur in {e}");
        }
        let names: Vec<&str> = spans
            .iter()
            .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
            .collect();
        assert!(names.iter().any(|n| n.contains("trace-gen")), "{names:?}");
        assert!(names.iter().any(|n| n.contains("simulate")), "{names:?}");

        let _ = std::fs::remove_file(&path);
    }
}

#[cfg(test)]
mod server_tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| (*x).to_string()).collect()
    }

    #[test]
    fn parses_serve_and_submit() {
        let cmd = parse(&s(&[
            "serve",
            "--addr",
            "0.0.0.0:7777",
            "--workers",
            "2",
            "--queue",
            "8",
            "--cache",
            "16",
            "--cache-file",
            "/tmp/ssimd.cache",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve(ServeArgs {
                addr: "0.0.0.0:7777".to_string(),
                workers: Some(2),
                queue: 8,
                cache: 16,
                cache_file: Some("/tmp/ssimd.cache".to_string()),
                trace_out: None,
                workers_remote: vec![],
                retries: 3,
                job_timeout_ms: 30_000,
                http: None,
                pidfile: None,
            })
        );

        // Coordinator mode: `--worker` repeats, retry/timeout knobs parse.
        let cmd = parse(&s(&[
            "serve",
            "--worker",
            "host-a:42014",
            "--worker",
            "host-b:42014",
            "--retries",
            "5",
            "--job-timeout-ms",
            "1500",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(a) => {
                assert_eq!(a.workers_remote, vec!["host-a:42014", "host-b:42014"]);
                assert_eq!(a.retries, 5);
                assert_eq!(a.job_timeout_ms, 1500);
            }
            other => panic!("expected serve, got {other:?}"),
        }

        assert!(matches!(
            parse(&s(&["submit", "--hello"])).unwrap(),
            Command::Submit(SubmitArgs {
                action: SubmitAction::Hello,
                ..
            })
        ));

        let cmd = parse(&s(&["submit", "--benchmark", "mcf", "--slices", "4"])).unwrap();
        match cmd {
            Command::Submit(a) => {
                assert_eq!(
                    a.addr,
                    format!("127.0.0.1:{}", sharing_server::DEFAULT_PORT)
                );
                assert_eq!(
                    a.action,
                    SubmitAction::Run {
                        workload: sharing_trace::Workload::Benchmark(Benchmark::Mcf),
                        slices: 4,
                        banks: 2,
                        len: 60_000,
                        seed: 0xA5_2014,
                    }
                );
            }
            other => panic!("expected submit, got {other:?}"),
        }

        assert!(matches!(
            parse(&s(&["submit", "--stats"])).unwrap(),
            Command::Submit(SubmitArgs {
                action: SubmitAction::Stats,
                ..
            })
        ));
        assert!(matches!(
            parse(&s(&["submit"])),
            Err(CliError::MissingValue(_))
        ));
        assert!(matches!(
            parse(&s(&["submit", "--benchmark", "gcc", "--shutdown"])),
            Err(CliError::ConflictingFlags(_))
        ));
    }

    #[test]
    fn parses_sweep_daemon_and_submit_dc() {
        let cmd = parse(&s(&["sweep", "--benchmark", "mcf", "--daemon", "h:1"])).unwrap();
        assert_eq!(
            cmd,
            Command::Sweep(SweepArgs {
                benchmark: Benchmark::Mcf,
                len: 30_000,
                seed: 0xA5_2014,
                daemon: Some("h:1".to_string()),
                jobs: None,
                csv_out: None,
                trace_out: None,
            })
        );

        let cmd = parse(&s(&[
            "submit", "--dc", "sc.json", "--seed", "9", "--mode", "sharing",
        ]))
        .unwrap();
        match cmd {
            Command::Submit(a) => assert_eq!(
                a.action,
                SubmitAction::Dc {
                    scenario_path: "sc.json".to_string(),
                    seed: 9,
                    mode: Some(BillingMode::Sharing),
                }
            ),
            other => panic!("expected submit, got {other:?}"),
        }
        assert!(matches!(
            parse(&s(&["submit", "--dc", "sc.json", "--ping"])),
            Err(CliError::ConflictingFlags(_))
        ));
        assert!(matches!(
            parse(&s(&["submit", "--dc", "sc.json", "--mode", "weird"])),
            Err(CliError::BadValue(..))
        ));
    }

    #[test]
    fn submit_names_the_extra_profiles_like_the_daemon() {
        for name in ["bursty", "phaseshift"] {
            match parse(&s(&["submit", "--benchmark", name, "--len", "2000"])).unwrap() {
                Command::Submit(a) => assert_eq!(
                    a.action,
                    SubmitAction::Run {
                        workload: sharing_trace::Workload::from_name(name).unwrap(),
                        slices: 1,
                        banks: 2,
                        len: 2_000,
                        seed: 0xA5_2014,
                    }
                ),
                other => panic!("expected submit, got {other:?}"),
            }
        }
        assert!(matches!(
            parse(&s(&["submit", "--benchmark", "nope"])),
            Err(CliError::UnknownBenchmark(_))
        ));
    }

    #[test]
    fn sweep_via_daemon_matches_local_sweep() {
        let handle = sharing_server::Server::start(sharing_server::ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 8,
            cache_capacity: 256,
            ..sharing_server::ServerConfig::default()
        })
        .unwrap();
        let addr = handle.local_addr().to_string();

        let local = execute(&Command::Sweep(SweepArgs {
            benchmark: Benchmark::Hmmer,
            len: 300,
            seed: 5,
            daemon: None,
            jobs: None,
            csv_out: None,
            trace_out: None,
        }))
        .unwrap();
        let remote = execute(&Command::Sweep(SweepArgs {
            benchmark: Benchmark::Hmmer,
            len: 300,
            seed: 5,
            daemon: Some(addr.clone()),
            jobs: None,
            csv_out: None,
            trace_out: None,
        }))
        .unwrap();
        // Same table; the daemon run appends a provenance line.
        assert!(
            remote.starts_with(&local),
            "daemon sweep table must match local:\n{remote}"
        );
        assert!(remote.contains(&format!("served by ssimd at {addr}")));

        // A second remote sweep is fully cache-fed.
        let again = execute(&Command::Sweep(SweepArgs {
            benchmark: Benchmark::Hmmer,
            len: 300,
            seed: 5,
            daemon: Some(addr),
            jobs: None,
            csv_out: None,
            trace_out: None,
        }))
        .unwrap();
        assert!(again.contains("72 of 72 points from its cache"), "{again}");

        handle.stop();
    }

    #[test]
    fn parses_sweep_jobs_and_csv_out() {
        let cmd = parse(&s(&[
            "sweep",
            "--benchmark",
            "gcc",
            "--jobs",
            "4",
            "--csv-out",
            "grid.csv",
        ]))
        .unwrap();
        match cmd {
            Command::Sweep(a) => {
                assert_eq!(a.jobs, Some(4));
                assert_eq!(a.csv_out.as_deref(), Some("grid.csv"));
            }
            other => panic!("expected sweep, got {other:?}"),
        }
        assert!(matches!(
            parse(&s(&["sweep", "--benchmark", "gcc", "--jobs", "x"])),
            Err(CliError::BadValue(..))
        ));
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_sequential() {
        for seed in [5u64, 11] {
            let run = |jobs: usize| {
                execute(&Command::Sweep(SweepArgs {
                    benchmark: Benchmark::Hmmer,
                    len: 300,
                    seed,
                    daemon: None,
                    jobs: Some(jobs),
                    csv_out: None,
                    trace_out: None,
                }))
                .unwrap()
            };
            assert_eq!(run(1), run(4), "seed {seed}: --jobs must not change a byte");
        }
    }

    #[test]
    fn sweep_csv_out_writes_the_grid() {
        let dir = std::env::temp_dir().join(format!("ssim-csv-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grid.csv");
        let out = execute(&Command::Sweep(SweepArgs {
            benchmark: Benchmark::Hmmer,
            len: 300,
            seed: 5,
            daemon: None,
            jobs: Some(2),
            csv_out: Some(path.to_string_lossy().into_owned()),
            trace_out: None,
        }))
        .unwrap();
        assert!(out.contains("wrote csv"), "{out}");
        let csv = std::fs::read_to_string(&path).unwrap();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("benchmark,slices,l2_banks,l2_kb,ipc"));
        let rows: Vec<&str> = lines.collect();
        assert_eq!(rows.len(), 72, "one row per grid point");
        assert!(rows[0].starts_with("hmmer,1,0,0,"), "{}", rows[0]);
        assert!(rows[71].starts_with("hmmer,8,128,8192,"), "{}", rows[71]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn submit_round_trips_against_live_daemon() {
        let handle = sharing_server::Server::start(sharing_server::ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_capacity: 4,
            cache_capacity: 16,
            ..sharing_server::ServerConfig::default()
        })
        .unwrap();
        let addr = handle.local_addr().to_string();

        let out = execute(&Command::Submit(SubmitArgs {
            addr: addr.clone(),
            url: None,
            trace: None,
            action: SubmitAction::Ping,
        }))
        .unwrap();
        assert!(out.ends_with("pong"), "{out}");

        let out = execute(&Command::Submit(SubmitArgs {
            addr: addr.clone(),
            url: None,
            trace: None,
            action: SubmitAction::Hello,
        }))
        .unwrap();
        assert!(
            out.contains(&format!("protocol v{}", sharing_server::PROTO_VERSION)),
            "{out}"
        );

        let out = execute(&Command::Submit(SubmitArgs {
            addr: addr.clone(),
            url: None,
            trace: None,
            action: SubmitAction::Run {
                workload: sharing_trace::Workload::Benchmark(Benchmark::Gcc),
                slices: 2,
                banks: 2,
                len: 500,
                seed: 3,
            },
        }))
        .unwrap();
        let v = sharing_json::Json::parse(&out).unwrap();
        assert_eq!(v.get("ok").and_then(|x| x.as_bool()), Some(true));
        assert_eq!(
            v.get("result")
                .and_then(|r| r.get("instructions"))
                .and_then(|x| x.as_int()),
            Some(500)
        );

        let out = execute(&Command::Submit(SubmitArgs {
            addr: addr.clone(),
            url: None,
            trace: None,
            action: SubmitAction::Stats,
        }))
        .unwrap();
        let v = sharing_json::Json::parse(&out).unwrap();
        assert!(v.get("jobs_completed").and_then(|x| x.as_int()).is_some());

        let out = execute(&Command::Submit(SubmitArgs {
            addr: addr.clone(),
            url: None,
            trace: None,
            action: SubmitAction::Shutdown,
        }))
        .unwrap();
        assert!(out.contains("shutdown"), "{out}");
        handle.join();

        // With the daemon gone, submit reports a clean server error.
        assert!(matches!(
            execute(&Command::Submit(SubmitArgs {
                addr,
                url: None,
                trace: None,
                action: SubmitAction::Ping,
            })),
            Err(CliError::Server(_))
        ));
    }

    #[test]
    fn submit_of_an_extra_profile_replies_as_a_raw_run_line() {
        use std::io::{BufRead, BufReader, Write};
        // cache_capacity 0: both submissions execute, so both replies
        // carry `"cached":false` and the same bytes.
        let handle = sharing_server::Server::start(sharing_server::ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_capacity: 4,
            cache_capacity: 0,
            ..sharing_server::ServerConfig::default()
        })
        .unwrap();
        let addr = handle.local_addr().to_string();
        let cmd = parse(&s(&[
            "submit",
            "--addr",
            &addr,
            "--benchmark",
            "bursty",
            "--len",
            "800",
            "--seed",
            "3",
        ]))
        .unwrap();
        let out = execute(&cmd).unwrap();

        let mut tcp = std::net::TcpStream::connect(&addr).unwrap();
        tcp.write_all(
            b"{\"type\":\"run\",\"benchmark\":\"bursty\",\"slices\":1,\"banks\":2,\
              \"len\":800,\"seed\":3}\n",
        )
        .unwrap();
        let mut raw = String::new();
        BufReader::new(&tcp).read_line(&mut raw).unwrap();
        let raw = sharing_json::Json::parse(raw.trim_end()).unwrap();
        assert_eq!(
            raw.get("ok").and_then(|x| x.as_bool()),
            Some(true),
            "{raw:?}"
        );
        assert_eq!(out, sharing_json::to_string_pretty(&raw));
        handle.stop();
    }
}

#[cfg(test)]
mod dc_tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| (*x).to_string()).collect()
    }

    fn write_small_scenario(name: &str) -> std::path::PathBuf {
        let mut sc = Scenario::example_bursty();
        sc.name = name.to_string();
        sc.chips = 2;
        sc.epochs = 8;
        sc.epoch_cycles = 10_000;
        let path = std::env::temp_dir().join(format!("ssim-test-{name}.json"));
        std::fs::write(&path, sharing_json::to_string_pretty(&sc)).unwrap();
        path
    }

    #[test]
    fn parses_dc_flags_and_requirements() {
        let cmd = parse(&s(&[
            "dc",
            "--scenario",
            "sc.json",
            "--seed",
            "7",
            "--mode",
            "fixed",
            "--out",
            "/tmp/dc",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Dc(DcArgs {
                scenario_path: Some("sc.json".to_string()),
                seed: 7,
                mode: Some(BillingMode::Fixed),
                out_dir: Some("/tmp/dc".to_string()),
                emit_example: false,
                trace_out: None,
            })
        );
        assert!(matches!(parse(&s(&["dc"])), Err(CliError::MissingValue(_))));
        assert!(matches!(
            parse(&s(&["dc", "--scenario", "a", "--emit-example"])),
            Err(CliError::ConflictingFlags(_))
        ));
        assert!(matches!(
            parse(&s(&["dc", "--scenario", "a", "--mode", "spot"])),
            Err(CliError::BadValue(..))
        ));
    }

    #[test]
    fn emit_example_is_a_valid_scenario() {
        let out = execute(&parse(&s(&["dc", "--emit-example"])).unwrap()).unwrap();
        let sc = Scenario::parse(&out).unwrap();
        assert_eq!(sc, Scenario::example_bursty());
        sc.validate().unwrap();
    }

    #[test]
    fn dc_run_is_byte_identical_for_the_same_seed() {
        let scenario = write_small_scenario("cli-determinism");
        let dir_a = std::env::temp_dir().join("ssim-test-dc-out-a");
        let dir_b = std::env::temp_dir().join("ssim-test-dc-out-b");
        let run = |dir: &std::path::Path| {
            execute(&Command::Dc(DcArgs {
                scenario_path: Some(scenario.to_string_lossy().into_owned()),
                seed: 7,
                mode: None,
                out_dir: Some(dir.to_string_lossy().into_owned()),
                emit_example: false,
                trace_out: None,
            }))
            .unwrap()
        };
        let out_a = run(&dir_a);
        let out_b = run(&dir_b);
        // stdout differs only in the artifact paths; compare up to them.
        let head = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("wrote "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(head(&out_a), head(&out_b));
        for stem in ["cli-determinism-sharing", "cli-determinism-fixed"] {
            for ext in ["csv", "log"] {
                let a = std::fs::read(dir_a.join(format!("{stem}.{ext}"))).unwrap();
                let b = std::fs::read(dir_b.join(format!("{stem}.{ext}"))).unwrap();
                assert_eq!(a, b, "{stem}.{ext} must be byte-identical across runs");
                assert!(!a.is_empty());
            }
        }
        assert!(out_a.contains("utility gain"), "{out_a}");
        assert!(out_a.contains("event-log hash"), "{out_a}");

        let _ = std::fs::remove_file(&scenario);
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn dc_single_mode_and_submit_dc_against_live_daemon() {
        let scenario = write_small_scenario("cli-submit");
        let out = execute(&Command::Dc(DcArgs {
            scenario_path: Some(scenario.to_string_lossy().into_owned()),
            seed: 3,
            mode: Some(BillingMode::Sharing),
            out_dir: None,
            emit_example: false,
            trace_out: None,
        }))
        .unwrap();
        assert!(out.contains("[sharing]"), "{out}");
        assert!(!out.contains("[fixed]"), "{out}");

        let handle = sharing_server::Server::start(sharing_server::ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_capacity: 4,
            cache_capacity: 16,
            ..sharing_server::ServerConfig::default()
        })
        .unwrap();
        let reply = execute(&Command::Submit(SubmitArgs {
            addr: handle.local_addr().to_string(),
            url: None,
            trace: None,
            action: SubmitAction::Dc {
                scenario_path: scenario.to_string_lossy().into_owned(),
                seed: 3,
                mode: None,
            },
        }))
        .unwrap();
        let v = sharing_json::Json::parse(&reply).unwrap();
        assert_eq!(v.get("ok").and_then(|x| x.as_bool()), Some(true));
        assert_eq!(
            v.get("result")
                .and_then(|r| r.get("scenario"))
                .and_then(|x| x.as_str()),
            Some("cli-submit")
        );
        handle.stop();

        let _ = std::fs::remove_file(&scenario);
    }

    #[test]
    fn missing_scenario_file_reports_cleanly() {
        let cmd = Command::Dc(DcArgs {
            scenario_path: Some("/nonexistent/scenario.json".to_string()),
            seed: 1,
            mode: None,
            out_dir: None,
            emit_example: false,
            trace_out: None,
        });
        assert!(matches!(execute(&cmd), Err(CliError::BadScenario(_))));
    }

    #[test]
    fn dc_trace_out_leaves_artifacts_byte_identical() {
        let scenario = write_small_scenario("cli-trace");
        let dir_plain = std::env::temp_dir().join("ssim-test-dc-trace-plain");
        let dir_traced = std::env::temp_dir().join("ssim-test-dc-trace-traced");
        let trace = std::env::temp_dir().join("ssim-test-dc.trace.json");
        let run = |dir: &std::path::Path, trace_out: Option<String>| {
            execute(&Command::Dc(DcArgs {
                scenario_path: Some(scenario.to_string_lossy().into_owned()),
                seed: 2014,
                mode: None,
                out_dir: Some(dir.to_string_lossy().into_owned()),
                emit_example: false,
                trace_out,
            }))
            .unwrap()
        };
        let plain = run(&dir_plain, None);
        let traced = run(&dir_traced, Some(trace.to_string_lossy().into_owned()));

        // Tracing must not perturb any simulator output: same stdout
        // (minus artifact paths and the trace notice) and byte-identical
        // CSV/log artifacts.
        let head = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("wrote "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(head(&plain), head(&traced));
        for stem in ["cli-trace-sharing", "cli-trace-fixed"] {
            for ext in ["csv", "log"] {
                let a = std::fs::read(dir_plain.join(format!("{stem}.{ext}"))).unwrap();
                let b = std::fs::read(dir_traced.join(format!("{stem}.{ext}"))).unwrap();
                assert_eq!(a, b, "{stem}.{ext} must be byte-identical with tracing on");
            }
        }

        // The trace itself is valid Chrome JSON with one span per epoch
        // phase, per billing mode, on the logical clock.
        let text = std::fs::read_to_string(&trace).unwrap();
        let v = sharing_json::Json::parse(&text).expect("trace must be valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        for phase in ["auction", "placement", "billing"] {
            let n = events
                .iter()
                .filter(|e| e.get("name").and_then(|x| x.as_str()) == Some(phase))
                .count();
            assert_eq!(n, 2 * 8, "want one `{phase}` span per epoch per mode");
        }

        let _ = std::fs::remove_file(&scenario);
        let _ = std::fs::remove_file(&trace);
        let _ = std::fs::remove_dir_all(&dir_plain);
        let _ = std::fs::remove_dir_all(&dir_traced);
    }
}

#[cfg(test)]
mod profile_tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| (*x).to_string()).collect()
    }

    #[test]
    fn profile_flag_parses_and_runs() {
        let profile = WorkloadProfile::builder("custom")
            .chains(3)
            .mem_frac(0.25)
            .build();
        let path = std::env::temp_dir().join("ssim-test-profile.json");
        std::fs::write(&path, sharing_json::to_string(&profile)).unwrap();
        let cmd = parse(&s(&[
            "run",
            "--profile",
            path.to_str().unwrap(),
            "--len",
            "600",
            "--json",
        ]))
        .unwrap();
        let out = execute(&cmd).unwrap();
        let v = sharing_json::Json::parse(&out).unwrap();
        assert_eq!(v.get("instructions").and_then(|x| x.as_int()), Some(600));
        assert_eq!(v.get("workload").and_then(|x| x.as_str()), Some("custom"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn threaded_profile_runs_alike_in_cli_and_daemon() {
        use sharing_server::{Job, JobWorkload, RunJob};
        let mut profile = sharing_trace::bursty_profile();
        profile.threads = 2;
        let path = std::env::temp_dir().join(format!(
            "ssim-test-threaded-profile-{}.json",
            std::process::id()
        ));
        std::fs::write(&path, sharing_json::to_string(&profile)).unwrap();
        let cmd = parse(&s(&[
            "run",
            "--profile",
            path.to_str().unwrap(),
            "--slices",
            "2",
            "--banks",
            "4",
            "--len",
            "600",
            "--seed",
            "3",
            "--json",
        ]))
        .unwrap();
        let local = sharing_json::Json::parse(&execute(&cmd).unwrap()).unwrap();
        let _ = std::fs::remove_file(path);
        // Both threads ran: a VM sums its VCores' instructions.
        assert_eq!(
            local.get("instructions").and_then(|x| x.as_int()),
            Some(1200)
        );

        let handle = sharing_server::Server::start(sharing_server::ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..sharing_server::ServerConfig::default()
        })
        .unwrap();
        let mut client = sharing_server::Client::connect(handle.local_addr()).unwrap();
        let reply = client
            .submit(Job::Run(RunJob {
                workload: JobWorkload::Profile(Box::new(profile)),
                slices: 2,
                banks: 4,
                len: 600,
                seed: 3,
            }))
            .unwrap();
        handle.stop();
        assert_eq!(reply.get("result"), Some(&local), "{reply}");
    }

    /// 64 threads one instruction past their share of
    /// `MAX_JOB_INSTRUCTIONS` are refused before any trace is built.
    #[test]
    fn run_refuses_a_profile_past_the_job_instruction_cap() {
        let mut profile = WorkloadProfile::builder("wide").build();
        profile.threads = sharing_trace::MAX_PROFILE_THREADS;
        let len = sharing_trace::MAX_JOB_INSTRUCTIONS / profile.threads + 1;
        let path = std::env::temp_dir().join(format!(
            "ssim-test-wide-profile-{}.json",
            std::process::id()
        ));
        std::fs::write(&path, sharing_json::to_string(&profile)).unwrap();
        let cmd = parse(&s(&[
            "run",
            "--profile",
            path.to_str().unwrap(),
            "--len",
            &len.to_string(),
        ]))
        .unwrap();
        let err = execute(&cmd).expect_err("past the job cap");
        let _ = std::fs::remove_file(path);
        match err {
            CliError::BadProfile(e) => assert!(e.contains("MAX_JOB_INSTRUCTIONS"), "{e}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_profile_reports_cleanly() {
        let path = std::env::temp_dir().join("ssim-test-bad-profile.json");
        std::fs::write(&path, "{not json").unwrap();
        let cmd = parse(&s(&["run", "--profile", path.to_str().unwrap()])).unwrap();
        assert!(matches!(execute(&cmd), Err(CliError::BadProfile(_))));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn invalid_profile_parameters_rejected() {
        type Break = fn(&mut WorkloadProfile);
        let breaks: [Break; 2] = [
            |p| p.chains = 0,
            // One VCore past the coherence directory's width.
            |p| p.threads = sharing_trace::MAX_PROFILE_THREADS + 1,
        ];
        let path = std::env::temp_dir().join("ssim-test-invalid-profile.json");
        for (i, make_invalid) in breaks.into_iter().enumerate() {
            let mut profile = WorkloadProfile::builder("broken").build();
            make_invalid(&mut profile);
            std::fs::write(&path, sharing_json::to_string(&profile)).unwrap();
            let cmd = parse(&s(&["run", "--profile", path.to_str().unwrap()])).unwrap();
            assert!(matches!(execute(&cmd), Err(CliError::BadProfile(_))), "{i}");
        }
        let _ = std::fs::remove_file(path);
    }
}

#[cfg(test)]
mod observability_tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| (*x).to_string()).collect()
    }

    #[test]
    fn parses_profile_flags() {
        let cmd = parse(&s(&[
            "profile",
            "--benchmark",
            "mcf",
            "--slices",
            "4",
            "--banks",
            "8",
            "--len",
            "900",
            "--seed",
            "6",
            "--json",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Profile(ProfileArgs {
                workload: Workload::Benchmark(Benchmark::Mcf),
                slices: 4,
                banks: 8,
                len: 900,
                seed: 6,
                config_path: None,
                json: true,
            })
        );
        assert_eq!(
            parse(&s(&["profile"])),
            Err(CliError::MissingValue("--benchmark".to_string()))
        );
        assert!(matches!(
            parse(&s(&["profile", "--benchmark", "gcc", "--trace-out", "x"])),
            Err(CliError::UnknownFlag(_))
        ));
    }

    #[test]
    fn parses_trace_pack_and_submit_trace() {
        assert_eq!(
            parse(&s(&["trace-pack", "in.jsonl", "out.json"])).unwrap(),
            Command::TracePack(TracePackArgs {
                input: "in.jsonl".to_string(),
                output: "out.json".to_string(),
            })
        );
        assert!(matches!(
            parse(&s(&["trace-pack", "in.jsonl"])),
            Err(CliError::MissingValue(_))
        ));
        assert!(matches!(
            parse(&s(&["trace-pack", "a", "b", "c"])),
            Err(CliError::UnknownFlag(_))
        ));

        match parse(&s(&["submit", "--benchmark", "gcc", "--trace", "42"])).unwrap() {
            Command::Submit(a) => assert_eq!(a.trace, Some(42)),
            other => panic!("expected submit, got {other:?}"),
        }
        // A trace id is meaningless on control requests.
        assert!(matches!(
            parse(&s(&["submit", "--ping", "--trace", "7"])),
            Err(CliError::ConflictingFlags(_))
        ));
    }

    #[test]
    fn profile_conserves_cycles_and_is_byte_identical() {
        let cmd = parse(&s(&[
            "profile",
            "--benchmark",
            "gcc",
            "--slices",
            "2",
            "--len",
            "800",
            "--seed",
            "5",
        ]))
        .unwrap();
        let a = execute(&cmd).unwrap();
        let b = execute(&cmd).unwrap();
        assert_eq!(a, b, "same seed must give byte-identical profiles");
        assert!(a.contains("conserved true"), "{a}");
        for bucket in sharing_core::profile::BUCKET_NAMES {
            assert!(a.contains(bucket), "missing bucket {bucket}:\n{a}");
        }
    }

    #[test]
    fn profile_json_buckets_sum_to_total_cycles() {
        let cmd = parse(&s(&[
            "profile",
            "--benchmark",
            "mcf",
            "--len",
            "700",
            "--json",
        ]))
        .unwrap();
        let out = execute(&cmd).unwrap();
        let v = sharing_json::Json::parse(&out).unwrap();
        let cycles = v
            .get("result")
            .and_then(|r| r.get("cycles"))
            .and_then(|x| x.as_int())
            .unwrap();
        let profile: sharing_core::profile::CycleProfile =
            sharing_json::from_str(&sharing_json::to_string(v.get("profile").unwrap())).unwrap();
        assert_eq!(i128::from(profile.cycles), cycles);
        assert!(profile.conserved(), "{profile:?}");
    }

    #[test]
    fn profile_rejects_threaded_workloads() {
        let parsec = ALL_BENCHMARKS
            .iter()
            .find(|b| b.is_parsec())
            .expect("suite has PARSEC benchmarks");
        let cmd = Command::Profile(ProfileArgs {
            workload: Workload::Benchmark(*parsec),
            slices: 1,
            banks: 2,
            len: 400,
            seed: 1,
            config_path: None,
            json: false,
        });
        assert!(matches!(execute(&cmd), Err(CliError::ConflictingFlags(_))));
    }

    #[test]
    fn trace_pack_rewraps_streamed_jsonl_and_skips_torn_tail() {
        let dir = std::env::temp_dir();
        let jsonl = dir.join(format!("ssim-test-pack-{}.jsonl", std::process::id()));
        let packed = dir.join(format!("ssim-test-pack-{}.json", std::process::id()));
        std::fs::write(
            &jsonl,
            "{\"name\":\"a\",\"cat\":\"test\",\"ph\":\"X\",\"ts\":0,\"dur\":5,\"pid\":1,\"tid\":0}\n\
             {\"name\":\"b\",\"cat\":\"test\",\"ph\":\"X\",\"ts\":5,\"dur\":3,\"pid\":1,\"tid\":0}\n\
             {\"name\":\"torn",
        )
        .unwrap();
        let msg = execute(&Command::TracePack(TracePackArgs {
            input: jsonl.to_string_lossy().into_owned(),
            output: packed.to_string_lossy().into_owned(),
        }))
        .unwrap();
        assert!(msg.contains("2 span(s) packed, 1 skipped"), "{msg}");
        let doc = std::fs::read_to_string(&packed).unwrap();
        let v = sharing_json::Json::parse(&doc).expect("packed doc must be valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        for name in ["a", "b"] {
            assert!(
                events
                    .iter()
                    .any(|e| e.get("name").and_then(|n| n.as_str()) == Some(name)),
                "missing span {name}"
            );
        }
        let _ = std::fs::remove_file(&jsonl);
        let _ = std::fs::remove_file(&packed);
    }

    #[test]
    fn traced_submit_lands_spans_in_the_streaming_sink() {
        let path = std::env::temp_dir().join(format!(
            "ssim-test-traced-{}.trace.jsonl",
            std::process::id()
        ));
        let handle = sharing_server::Server::start(sharing_server::ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_capacity: 4,
            cache_capacity: 16,
            trace_path: Some(path.to_string_lossy().into_owned()),
            ..sharing_server::ServerConfig::default()
        })
        .unwrap();
        let out = execute(&Command::Submit(SubmitArgs {
            addr: handle.local_addr().to_string(),
            url: None,
            trace: Some(777),
            action: SubmitAction::Run {
                workload: sharing_trace::Workload::Benchmark(Benchmark::Gcc),
                slices: 1,
                banks: 2,
                len: 400,
                seed: 3,
            },
        }))
        .unwrap();
        let v = sharing_json::Json::parse(&out).unwrap();
        assert_eq!(v.get("ok").and_then(|x| x.as_bool()), Some(true));
        handle.stop();

        // The streamed sink holds the job's spans, tagged with the id.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"trace\":777"), "no trace id in:\n{text}");
        let _ = std::fs::remove_file(&path);
    }
}

#[cfg(test)]
mod asm_tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| (*x).to_string()).collect()
    }

    #[test]
    fn asm_workload_runs_end_to_end() {
        let path = std::env::temp_dir().join("ssim-test-kernel.s");
        std::fs::write(
            &path,
            "alu r1, r1\nst r1, [0x40]\nld r2, [0x40]\nalu r3, r2\nbr.nt 0x0, r3\n",
        )
        .unwrap();
        let cmd = parse(&s(&[
            "run",
            "--asm",
            path.to_str().unwrap(),
            "--len",
            "500",
            "--slices",
            "2",
            "--json",
        ]))
        .unwrap();
        let out = execute(&cmd).unwrap();
        let v = sharing_json::Json::parse(&out).unwrap();
        assert_eq!(v.get("instructions").and_then(|x| x.as_int()), Some(500));
        assert_eq!(
            v.get("workload").and_then(|x| x.as_str()),
            Some("ssim-test-kernel")
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bad_asm_reports_cleanly() {
        let path = std::env::temp_dir().join("ssim-test-bad.s");
        std::fs::write(&path, "explode r1").unwrap();
        let cmd = parse(&s(&["run", "--asm", path.to_str().unwrap()])).unwrap();
        let e = execute(&cmd).unwrap_err();
        assert!(matches!(e, CliError::BadAsm(_)), "{e}");
        assert!(e.to_string().contains("explode"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn empty_asm_rejected() {
        let path = std::env::temp_dir().join("ssim-test-empty.s");
        std::fs::write(&path, "# nothing here\n").unwrap();
        let cmd = parse(&s(&["run", "--asm", path.to_str().unwrap()])).unwrap();
        assert!(matches!(execute(&cmd), Err(CliError::BadAsm(_))));
        let _ = std::fs::remove_file(path);
    }
}
