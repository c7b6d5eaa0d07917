//! The process-global injection handle the fleet seams call into.
//!
//! Seams (dispatch exchanges, connects, queue admission, cache reload,
//! HTTP accept/read) ask the [`ChaosHooks`] singleton what to do. When
//! no plan is armed the answer is a single relaxed atomic load.
//!
//! Determinism contract: each rule owns a call counter per armed plan.
//! A seam call that matches a rule bumps that counter and asks
//! [`FaultPlan::fires`], which is pure in `(seed, rule, n)`. Two runs
//! that present the same sequence of matching calls therefore inject
//! at the same positions, no matter how threads interleave — and the
//! injection log ([`ChaosHooks::schedule`]) is sorted by `(rule, n)` so
//! it diffs cleanly across runs.

use crate::plan::{FaultKind, FaultPlan};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Environment variable holding an inline fault-plan JSON; a daemon
/// that calls [`ChaosHooks::arm_from_env`] arms itself from it.
pub const PLAN_ENV: &str = "SSIM_CHAOS_PLAN";

/// Environment variable naming a file the injection schedule should be
/// written to when the run finishes (see [`ChaosHooks::write_schedule`]).
pub const SCHEDULE_ENV: &str = "SSIM_CHAOS_SCHEDULE";

/// What an I/O seam should do right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFault {
    /// No fault — proceed normally.
    Pass,
    /// Tear the connection down (dispatch: forget the worker conn;
    /// HTTP: close the socket without replying).
    Drop,
    /// Sleep this long first, then proceed — the peer is slow, not dead.
    Delay(std::time::Duration),
}

/// One injected fault, as recorded in the schedule log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Injection {
    /// Index of the rule that fired (position in `FaultPlan::rules`).
    pub rule: usize,
    /// The 1-indexed matching-call count at which it fired.
    pub n: u64,
    /// The fault kind injected.
    pub kind: FaultKind,
    /// The rule's target pattern (stable across runs, unlike the seam
    /// context, which may hold an ephemeral address).
    pub target: String,
    /// The seam context the fault landed on (worker address, `queue`,
    /// `cache`, `http`, or `step:<k>` for driver-injected kills).
    pub ctx: String,
}

impl Injection {
    /// One stable, diffable line: `rule=1 n=3 kind=partition target=*`.
    ///
    /// Deliberately excludes `ctx`: the context can hold an ephemeral
    /// worker address or a thread-timing-dependent victim, while
    /// `(rule, n, kind, target)` is pure in the plan and the sequence
    /// of matching calls — so two runs of the same plan over the same
    /// workload produce byte-identical schedule files.
    #[must_use]
    pub fn line(&self) -> String {
        format!(
            "rule={} n={} kind={} target={}",
            self.rule, self.n, self.kind, self.target
        )
    }
}

/// Counter bumped once per injection regardless of kind.
const TOTAL_COUNTER: &str = "chaos_injections_total";

/// Per-plan armed state: the plan, one call counter and one window
/// deadline per rule, and the injection log.
struct Armed {
    plan: FaultPlan,
    counters: Vec<AtomicU64>,
    windows: Vec<Mutex<Option<Instant>>>,
    log: Mutex<Vec<Injection>>,
}

impl Armed {
    fn new(plan: FaultPlan) -> Armed {
        let n = plan.rules.len();
        Armed {
            plan,
            counters: (0..n).map(|_| AtomicU64::new(0)).collect(),
            windows: (0..n).map(|_| Mutex::new(None)).collect(),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Bumps rule `i`'s matching-call counter, returning the
    /// 1-indexed call number.
    fn bump(&self, i: usize) -> u64 {
        self.counters[i].fetch_add(1, Ordering::Relaxed) + 1
    }

    fn record(&self, i: usize, n: u64, ctx: &str) {
        let rule = &self.plan.rules[i];
        sharing_obs::counter(rule.kind.counter_name()).inc();
        sharing_obs::counter(TOTAL_COUNTER).inc();
        self.log.lock().unwrap().push(Injection {
            rule: i,
            n,
            kind: rule.kind,
            target: rule.target.clone(),
            ctx: ctx.to_string(),
        });
    }

    /// Whether rule `i`'s window is open right now.
    fn window_open(&self, i: usize) -> bool {
        let mut w = self.windows[i].lock().unwrap();
        match *w {
            Some(deadline) if Instant::now() < deadline => true,
            Some(_) => {
                *w = None;
                false
            }
            None => false,
        }
    }

    fn open_window(&self, i: usize) {
        let deadline = Instant::now() + self.plan.rules[i].duration();
        *self.windows[i].lock().unwrap() = Some(deadline);
    }
}

/// The process-global chaos handle. Obtain it with [`hooks()`];
/// there is exactly one per process, like the sharing-obs registry.
pub struct ChaosHooks {
    on: AtomicBool,
    state: Mutex<Option<Arc<Armed>>>,
}

static HOOKS: ChaosHooks = ChaosHooks {
    on: AtomicBool::new(false),
    state: Mutex::new(None),
};

/// The process-global [`ChaosHooks`] singleton.
#[must_use]
pub fn hooks() -> &'static ChaosHooks {
    &HOOKS
}

impl ChaosHooks {
    /// Arms a plan: all seams start consulting it. Rule counters
    /// start from zero, so re-arming the same plan replays the
    /// same schedule.
    pub fn arm(&self, plan: FaultPlan) {
        *self.state.lock().unwrap() = Some(Arc::new(Armed::new(plan)));
        self.on.store(true, Ordering::Release);
    }

    /// Disarms: seams go back to the single-atomic-load fast path.
    pub fn disarm(&self) {
        self.on.store(false, Ordering::Release);
        *self.state.lock().unwrap() = None;
    }

    /// Whether a plan is currently armed.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.on.load(Ordering::Acquire)
    }

    /// Arms from the [`PLAN_ENV`] environment variable if set.
    /// Returns `Ok(true)` if a plan was armed, `Ok(false)` if the
    /// variable is absent.
    ///
    /// # Errors
    ///
    /// Returns the parse/validation message for a malformed plan.
    pub fn arm_from_env(&self) -> Result<bool, String> {
        match std::env::var(PLAN_ENV) {
            Ok(text) => {
                let plan = FaultPlan::parse(&text).map_err(|e| format!("{PLAN_ENV}: {e}"))?;
                self.arm(plan);
                Ok(true)
            }
            Err(_) => Ok(false),
        }
    }

    fn armed(&self) -> Option<Arc<Armed>> {
        if !self.on.load(Ordering::Acquire) {
            return None;
        }
        self.state.lock().unwrap().clone()
    }

    /// Number of faults injected since the plan was armed.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.armed()
            .map_or(0, |a| a.log.lock().unwrap().len() as u64)
    }

    /// The injection log, sorted by `(rule, n)` so it is stable
    /// across thread interleavings and diffs cleanly between runs.
    #[must_use]
    pub fn schedule(&self) -> Vec<Injection> {
        let Some(armed) = self.armed() else {
            return Vec::new();
        };
        let mut log = armed.log.lock().unwrap().clone();
        log.sort_by_key(|i| (i.rule, i.n));
        log
    }

    /// The schedule as diffable text, one [`Injection::line`] per row.
    #[must_use]
    pub fn schedule_lines(&self) -> String {
        let mut out = String::new();
        for inj in self.schedule() {
            out.push_str(&inj.line());
            out.push('\n');
        }
        out
    }

    /// Writes the schedule to `path` (used by the CI smoke to diff
    /// two runs of the same plan).
    ///
    /// # Errors
    ///
    /// Propagates the underlying file write error.
    pub fn write_schedule(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.schedule_lines())
    }

    /// Writes the schedule to the [`SCHEDULE_ENV`] path if that
    /// variable is set. Errors are reported to stderr, not fatal.
    pub fn write_schedule_from_env(&self) {
        if let Ok(path) = std::env::var(SCHEDULE_ENV) {
            if let Err(e) = self.write_schedule(&path) {
                eprintln!("chaos: writing schedule to {path}: {e}");
            }
        }
    }

    /// Evaluates the I/O-fault kinds in `kinds` against context
    /// `ctx`. First firing rule wins; matching rules before it
    /// still consume a call number, keeping their streams pure.
    fn eval_io(&self, ctx: &str, kinds: &[FaultKind]) -> IoFault {
        let Some(armed) = self.armed() else {
            return IoFault::Pass;
        };
        for (i, rule) in armed.plan.rules.iter().enumerate() {
            if !kinds.contains(&rule.kind) || !rule.matches(ctx) {
                continue;
            }
            let n = armed.bump(i);
            if armed.plan.fires(i, n) {
                armed.record(i, n, ctx);
                return match rule.kind {
                    FaultKind::DropConn => IoFault::Drop,
                    FaultKind::SlowRead | FaultKind::SlowWrite => IoFault::Delay(rule.duration()),
                    _ => IoFault::Pass,
                };
            }
        }
        IoFault::Pass
    }

    /// Windowed kinds (partition, queue-full storm): every matching
    /// call consumes a call number; a firing call records an
    /// injection and (re)opens the window; calls during an open
    /// window are refused without a new log entry.
    fn eval_window(&self, ctx: &str, kind: FaultKind) -> bool {
        let Some(armed) = self.armed() else {
            return false;
        };
        for (i, rule) in armed.plan.rules.iter().enumerate() {
            if rule.kind != kind || !rule.matches(ctx) {
                continue;
            }
            let n = armed.bump(i);
            if armed.plan.fires(i, n) {
                armed.record(i, n, ctx);
                armed.open_window(i);
                return true;
            }
            if armed.window_open(i) {
                return true;
            }
        }
        false
    }

    /// Dispatch seam: called once per worker exchange with the
    /// worker address as context. `Drop` means forget the
    /// connection; `Delay` means the worker is slow this exchange.
    #[must_use]
    pub fn on_dispatch_exchange(&self, worker_addr: &str) -> IoFault {
        self.eval_io(
            worker_addr,
            &[
                FaultKind::DropConn,
                FaultKind::SlowRead,
                FaultKind::SlowWrite,
            ],
        )
    }

    /// Connect seam (`WorkerPool::register`): returns `true` if
    /// this connect attempt must be refused — either because a
    /// partition rule fires on it or a partition window is open.
    #[must_use]
    pub fn connect_fault(&self, worker_addr: &str) -> bool {
        self.eval_window(worker_addr, FaultKind::Partition)
    }

    /// Passive partition check for the health loop: `true` while a
    /// partition window is open for this address. Does not consume
    /// a call number, so time-driven probes cannot perturb the
    /// schedule.
    #[must_use]
    pub fn partitioned(&self, worker_addr: &str) -> bool {
        let Some(armed) = self.armed() else {
            return false;
        };
        armed.plan.rules.iter().enumerate().any(|(i, rule)| {
            rule.kind == FaultKind::Partition && rule.matches(worker_addr) && armed.window_open(i)
        })
    }

    /// Queue-admission seam (context `"queue"`): `true` means
    /// answer `queue_full` regardless of actual depth.
    #[must_use]
    pub fn admission_fault(&self) -> bool {
        self.eval_window("queue", FaultKind::QueueFullStorm)
    }

    /// Cache-reload seam (context `"cache"`): if a
    /// `corrupt_cache_file` rule fires, mangles the file at `path`
    /// in place — a deterministic bit-flip or truncation drawn
    /// from the rule's decision RNG — and returns `true`.
    #[must_use]
    pub fn mangle_cache_file(&self, path: &str) -> bool {
        let Some(armed) = self.armed() else {
            return false;
        };
        for (i, rule) in armed.plan.rules.iter().enumerate() {
            if rule.kind != FaultKind::CorruptCacheFile || !rule.matches("cache") {
                continue;
            }
            let n = armed.bump(i);
            if !armed.plan.fires(i, n) {
                continue;
            }
            let Ok(mut bytes) = std::fs::read(path) else {
                continue; // no file to corrupt; the call still counted
            };
            if bytes.is_empty() {
                continue;
            }
            let mut rng = armed.plan.decision_rng(i, n);
            if rng.bool(0.5) {
                let keep = rng.below(bytes.len() as u64) as usize;
                bytes.truncate(keep);
            } else {
                let idx = rng.below(bytes.len() as u64) as usize;
                let bit = rng.below(8) as u8;
                bytes[idx] ^= 1 << bit;
            }
            if std::fs::write(path, &bytes).is_ok() {
                armed.record(i, n, "cache");
                return true;
            }
        }
        false
    }

    /// HTTP accept seam (context `"http"`): `Drop` means close the
    /// just-accepted connection without serving it.
    #[must_use]
    pub fn on_http_accept(&self) -> IoFault {
        self.eval_io("http", &[FaultKind::DropConn])
    }

    /// HTTP read seam (context `"http"`): `Delay` stalls the read,
    /// `Drop` closes mid-request.
    #[must_use]
    pub fn on_http_read(&self) -> IoFault {
        self.eval_io("http", &[FaultKind::SlowRead, FaultKind::DropConn])
    }

    /// Driver seam: called by `ssim chaos` before mix step `step`
    /// (1-indexed) with the worker count. If a `sigkill_worker`
    /// rule fires, returns the victim's worker index — parsed from
    /// a `worker:<k>` target, else `n % workers`.
    #[must_use]
    pub fn sigkill_step(&self, step: u64, workers: usize) -> Option<usize> {
        let armed = self.armed()?;
        if workers == 0 {
            return None;
        }
        for (i, rule) in armed.plan.rules.iter().enumerate() {
            if rule.kind != FaultKind::SigkillWorker {
                continue;
            }
            let n = armed.bump(i);
            if !armed.plan.fires(i, n) {
                continue;
            }
            let victim = rule
                .target
                .strip_prefix("worker:")
                .and_then(|k| k.parse::<usize>().ok())
                .unwrap_or((n % workers as u64) as usize)
                % workers;
            armed.record(i, n, &format!("step:{step}"));
            return Some(victim);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultRule, DEFAULT_DURATION_MS};

    /// The global handle is shared across tests in this binary, so each
    /// test that touches it holds this lock.
    fn gate() -> std::sync::MutexGuard<'static, ()> {
        use std::sync::{Mutex, OnceLock};
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs `f` with `plan` armed under [`gate`], disarming when done.
    fn with_plan<R>(plan: FaultPlan, f: impl FnOnce(&ChaosHooks) -> R) -> R {
        let _gate = gate();
        let h = hooks();
        h.arm(plan);
        let out = f(h);
        h.disarm();
        out
    }

    #[test]
    fn disarmed_hooks_pass_everything() {
        let _gate = gate();
        let h = hooks();
        assert!(!h.is_armed());
        assert_eq!(h.on_dispatch_exchange("w"), IoFault::Pass);
        assert!(!h.connect_fault("w"));
        assert!(!h.admission_fault());
        assert_eq!(h.injected(), 0);
    }

    #[test]
    fn nth_drop_fires_on_schedule_and_logs() {
        let plan = FaultPlan::new(1).with_rule(FaultRule::nth("*", FaultKind::DropConn, 3));
        with_plan(plan, |h| {
            let faults: Vec<IoFault> = (0..9).map(|_| h.on_dispatch_exchange("w1")).collect();
            let drops = faults.iter().filter(|&&f| f == IoFault::Drop).count();
            assert_eq!(drops, 3, "nth=3 over 9 calls");
            assert_eq!(faults[2], IoFault::Drop);
            assert_eq!(faults[5], IoFault::Drop);
            assert_eq!(faults[8], IoFault::Drop);
            let sched = h.schedule();
            assert_eq!(sched.len(), 3);
            assert_eq!(sched.iter().map(|i| i.n).collect::<Vec<_>>(), vec![3, 6, 9]);
            assert!(sched[0].line().contains("kind=drop_conn"));
        });
    }

    #[test]
    fn slow_faults_carry_the_rule_duration() {
        let plan =
            FaultPlan::new(2).with_rule(FaultRule::nth("*", FaultKind::SlowRead, 2).lasting_ms(80));
        with_plan(plan, |h| {
            assert_eq!(h.on_dispatch_exchange("w"), IoFault::Pass);
            assert_eq!(
                h.on_dispatch_exchange("w"),
                IoFault::Delay(std::time::Duration::from_millis(80))
            );
        });
    }

    #[test]
    fn partition_window_blocks_connects_then_expires() {
        let plan = FaultPlan::new(3)
            .with_rule(FaultRule::nth("*", FaultKind::Partition, 2).lasting_ms(60));
        with_plan(plan, |h| {
            assert!(!h.connect_fault("w"), "call 1 passes");
            assert!(h.connect_fault("w"), "call 2 fires");
            assert!(h.partitioned("w"), "window open");
            assert!(h.connect_fault("w"), "call 3 refused inside the window");
            assert_eq!(h.injected(), 1, "window refusals are not new injections");
            std::thread::sleep(std::time::Duration::from_millis(90));
            assert!(!h.partitioned("w"), "window expired");
            assert!(h.connect_fault("w"), "call 4 fires again (nth=2)");
            assert_eq!(h.injected(), 2);
        });
    }

    #[test]
    fn targeted_rules_ignore_other_contexts() {
        let plan = FaultPlan::new(4).with_rule(FaultRule::nth("w1", FaultKind::DropConn, 1));
        with_plan(plan, |h| {
            assert_eq!(h.on_dispatch_exchange("w2"), IoFault::Pass);
            assert_eq!(h.on_dispatch_exchange("w1"), IoFault::Drop);
        });
    }

    #[test]
    fn rearming_replays_the_same_schedule() {
        let plan =
            FaultPlan::new(5).with_rule(FaultRule::probability("*", FaultKind::DropConn, 0.4));
        let run = |h: &ChaosHooks| {
            (0..40)
                .map(|_| h.on_dispatch_exchange("w") == IoFault::Drop)
                .collect::<Vec<_>>()
        };
        let (a, lines_a) = with_plan(plan.clone(), |h| (run(h), h.schedule_lines()));
        let (b, lines_b) = with_plan(plan, |h| (run(h), h.schedule_lines()));
        assert_eq!(a, b, "same plan, same call sequence, same faults");
        assert_eq!(lines_a, lines_b, "schedules diff clean");
    }

    #[test]
    fn cache_mangling_is_deterministic() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("chaos-hooks-mangle-{}.bin", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        let original: Vec<u8> = (0..=255).collect();
        let plan =
            FaultPlan::new(6).with_rule(FaultRule::nth("cache", FaultKind::CorruptCacheFile, 1));
        let mangle_once = |plan: FaultPlan| {
            std::fs::write(&path, &original).unwrap();
            with_plan(plan, |h| {
                assert!(h.mangle_cache_file(&path));
                std::fs::read(&path).unwrap()
            })
        };
        let a = mangle_once(plan.clone());
        let b = mangle_once(plan);
        assert_ne!(a, original, "the file was actually corrupted");
        assert_eq!(a, b, "same plan mangles the same bytes");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sigkill_targets_parse_worker_index() {
        let plan =
            FaultPlan::new(7).with_rule(FaultRule::nth("worker:1", FaultKind::SigkillWorker, 2));
        with_plan(plan, |h| {
            assert_eq!(h.sigkill_step(1, 3), None);
            assert_eq!(h.sigkill_step(2, 3), Some(1));
            assert_eq!(h.sigkill_step(3, 3), None);
            assert_eq!(h.sigkill_step(4, 3), Some(1));
            let sched = h.schedule();
            assert_eq!(sched.len(), 2);
            assert_eq!(sched[1].ctx, "step:4");
        });
    }

    #[test]
    fn queue_storm_refuses_admission_for_a_window() {
        let plan = FaultPlan::new(8).with_rule(
            FaultRule::nth("queue", FaultKind::QueueFullStorm, 1).lasting_ms(DEFAULT_DURATION_MS),
        );
        with_plan(plan, |h| {
            assert!(h.admission_fault(), "nth=1 fires immediately");
            assert!(h.admission_fault(), "window still open");
        });
    }
}
