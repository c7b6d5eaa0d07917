//! The one way to run a [`Workload`]: every front end (the `ssim` CLI,
//! ssimd's executor, the market's suite surfaces) calls
//! [`run_workload`], so they all report comparable numbers.

use crate::config::SimConfig;
use crate::multi::VmSimulator;
use crate::sim::{RunOptions, Simulator};
use crate::stats::SimResult;
use sharing_obs::TraceBuffer;
use sharing_trace::{TraceCache, TraceSpec, Workload};

/// Simulates `workload` at `cfg` by the paper's rule (§5.3): a threaded
/// workload (the four-thread PARSEC benchmarks, or a profile with more
/// than one thread) runs as a VM of VCores over a shared coherent L2,
/// advanced by `threads` host workers; anything else runs on one VCore.
/// Traces come from `traces`.
///
/// With `obs` set, the run records a `trace-gen` span and a
/// `simulate <name>` span; a single-VCore run also records its
/// logical-cycle span.
///
/// # Errors
///
/// Propagates profile validation errors from trace generation.
///
/// # Panics
///
/// Panics if `cfg` is invalid; callers build it through the validating
/// [`SimConfig`] constructors.
pub fn run_workload(
    workload: &Workload,
    cfg: SimConfig,
    spec: &TraceSpec,
    traces: &TraceCache,
    threads: usize,
    obs: Option<&TraceBuffer>,
) -> Result<SimResult, String> {
    let span = |name: String| obs.map(|o| o.span(name, "ssim", 0));
    if workload.is_threaded() {
        let trace = {
            let _g = span("trace-gen".into());
            traces.threaded(workload, spec)?
        };
        let _g = span(format!("simulate {}", workload.name()));
        Ok(VmSimulator::new(cfg)
            .expect("validated config")
            .with_threads(threads)
            .run(&trace))
    } else {
        let trace = {
            let _g = span("trace-gen".into());
            traces.single(workload, spec)?
        };
        let sim = Simulator::new(cfg).expect("validated config");
        let _g = span(format!("simulate {}", workload.name()));
        let mut opts = RunOptions::new();
        if let Some(o) = obs {
            opts = opts.trace_to(o);
        }
        Ok(sim.run_with(&trace, opts).result)
    }
}
