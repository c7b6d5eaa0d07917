//! Phase-adaptive Virtual Cores: resize the core as the program's phases
//! change (paper §5.10).
//!
//! gcc is split into ten phases; a meta-program (the paper's suggested
//! client-side agent) schedules each phase's VCore shape to maximize
//! `perf³/area` — the objective of a customer who pays per Slice and per
//! bank — accounting for the 10 000-cycle cache / 500-cycle Slice
//! reconfiguration costs. The study then *executes* the schedule and the
//! best single static shape on a live
//! [`ReconfigurableVCore`](sharing_arch::core::ReconfigurableVCore) and
//! reports the executed gain beside the cold-run estimate.
//!
//! ```text
//! cargo run --release --example phase_adaptive
//! ```

use sharing_arch::area::AreaModel;
use sharing_arch::core::{ReconfigCosts, VCoreShape};
use sharing_arch::market::phases::run_study_with;
use sharing_arch::trace::TraceSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Phases long enough that a 10 000-cycle cache reconfiguration can pay
    // for itself, as in the paper's full-length phases.
    let spec = TraceSpec::new(60_000, 7);
    let candidates: Vec<VCoreShape> = [
        (1, 1),
        (1, 4),
        (1, 16),
        (2, 2),
        (2, 8),
        (2, 16),
        (3, 8),
        (4, 16),
    ]
    .into_iter()
    .map(|(s, b)| VCoreShape::new(s, b))
    .collect::<Result<_, _>>()?;

    // The meta-program: profile each phase on the candidate shapes, solve
    // for the reconfiguration-aware optimal schedule, and execute it.
    println!(
        "profiling 10 gcc phases on {} candidate shapes…",
        candidates.len()
    );
    let study = run_study_with(
        &spec,
        10,
        &candidates,
        ReconfigCosts::paper(),
        &AreaModel::paper(),
    );
    let row = study
        .rows
        .iter()
        .find(|r| r.k == 3)
        .expect("k=3 row exists");

    println!("\nchosen schedule (perf³/area, reconfiguration-aware):");
    for (phase, shape) in row.per_phase.iter().enumerate() {
        println!("  phase {:>2}: {shape}", phase + 1);
    }
    println!(
        "static best single shape: {}\n\
         dynamic metric gain: {:+.1}% estimated from cold phases, {:+.1}% executed on a live VCore \
         (paper's Table 7: up to 19.4%)",
        row.static_best,
        100.0 * row.gain,
        100.0 * row.live_gain
    );
    Ok(())
}
