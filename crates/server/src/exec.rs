//! Job execution: the bridge from protocol jobs to the simulator.
//!
//! Everything here is deterministic — same job, same bytes out — which is
//! the contract the result cache relies on.

use crate::protocol::{DcJob, RunJob};
use sharing_core::{run_workload, SimConfig, SimResult};
use sharing_dc::{BillingMode, DcSim};
use sharing_json::{Json, ToJson};
use sharing_trace::{TraceCache, TraceSpec};

/// Runs one job on a fresh simulator through
/// [`sharing_core::run_workload`].
///
/// Traces come from the process-wide [`TraceCache`]: a daemon serving
/// repeated jobs for the same `(workload, len, seed)` generates the trace
/// once and every worker thread shares the same `Arc`.
///
/// # Errors
///
/// Returns a human-readable message for invalid shapes or profiles;
/// simulation itself is total.
pub fn simulate(job: &RunJob) -> Result<SimResult, String> {
    let cfg = SimConfig::with_shape(job.slices, job.banks).map_err(|e| e.to_string())?;
    let spec = TraceSpec::new(job.len, job.seed);
    run_workload(&job.workload, cfg, &spec, TraceCache::global(), 1, None)
}

/// Runs a datacenter-scenario job and serializes its totals: one
/// `Totals` object per mode run, under `"sharing"` / `"fixed"` keys,
/// plus the scenario name and seed.
///
/// Both modes run on the calling worker, one after the other, not side
/// by side as [`DcSim::run_comparison`] runs them: the daemon already
/// keeps a worker per CPU busy, and a second thread per `dc` job only
/// contends with the other workers. The totals are the same bytes.
///
/// # Errors
///
/// Returns the scenario validation message; simulation itself is total.
pub fn run_dc(job: &DcJob) -> Result<String, String> {
    let sim = DcSim::new(job.scenario.clone())?;
    let mut pairs: Vec<(&str, Json)> = vec![
        ("scenario", Json::Str(job.scenario.name.clone())),
        ("seed", Json::Int(i128::from(job.seed))),
    ];
    match job.mode {
        Some(mode) => {
            let totals = sim.run(mode, job.seed).totals();
            pairs.push((mode.name(), totals.to_json()));
        }
        None => {
            for mode in [BillingMode::Sharing, BillingMode::Fixed] {
                pairs.push((mode.name(), sim.run(mode, job.seed).totals().to_json()));
            }
        }
    }
    Ok(Json::obj(pairs).to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::JobWorkload;
    use sharing_trace::Benchmark;

    fn job(len: usize, seed: u64) -> RunJob {
        RunJob {
            workload: JobWorkload::Benchmark(Benchmark::Gcc),
            slices: 2,
            banks: 2,
            len,
            seed,
        }
    }

    #[test]
    fn simulate_is_deterministic() {
        let a = sharing_json::to_string(&simulate(&job(600, 3)).unwrap());
        let b = sharing_json::to_string(&simulate(&job(600, 3)).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn bad_shape_is_an_error_not_a_panic() {
        let mut j = job(100, 1);
        j.slices = 0;
        assert!(simulate(&j).is_err());
        j.slices = 999;
        assert!(simulate(&j).is_err());
    }

    fn dc_job(mode: Option<sharing_dc::BillingMode>) -> DcJob {
        let mut sc = sharing_dc::Scenario::example_bursty();
        sc.chips = 2;
        sc.epochs = 8;
        sc.epoch_cycles = 10_000;
        DcJob {
            scenario: sc,
            seed: 5,
            mode,
        }
    }

    #[test]
    fn dc_single_mode_reports_only_that_mode() {
        let payload = run_dc(&dc_job(Some(sharing_dc::BillingMode::Sharing))).unwrap();
        let v = Json::parse(&payload).unwrap();
        assert!(v.get("sharing").is_some());
        assert!(v.get("fixed").is_none());
    }
}
