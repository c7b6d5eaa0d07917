//! Phase-adaptive Virtual Cores: resize the core as the program's phases
//! change (paper §5.10).
//!
//! gcc is split into ten phases; a meta-program (the paper's suggested
//! client-side agent) schedules each phase's VCore shape to maximize
//! `perf³/area` — the objective of a customer who pays per Slice and per
//! bank — accounting for the 10 000-cycle cache / 500-cycle Slice
//! reconfiguration costs. The schedule is then *executed* with
//! [`run_phased_with`] and compared against the best single static shape.
//!
//! ```text
//! cargo run --release --example phase_adaptive
//! ```

use sharing_arch::area::AreaModel;
use sharing_arch::core::{run_phased_with, ReconfigCosts, SimConfig, VCoreShape};
use sharing_arch::market::phases::run_study_with;
use sharing_arch::trace::{gcc_phase_trace, TraceSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Phases long enough that a 10 000-cycle cache reconfiguration can pay
    // for itself, as in the paper's full-length phases.
    let spec = TraceSpec::new(60_000, 7);
    let area = AreaModel::paper();
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

    // The meta-program: profile each phase on the candidate shapes and
    // solve for the reconfiguration-aware optimal schedule.
    println!(
        "profiling 10 gcc phases on {} candidate shapes…",
        candidates.len()
    );
    let study = run_study_with(&spec, 10, &candidates, ReconfigCosts::paper(), &area);
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
        "static best single shape: {}   dynamic metric gain: {:+.1}%",
        row.static_best,
        100.0 * row.gain
    );

    // Execute both schedules end-to-end through the simulator.
    let dynamic_schedule: Vec<_> = (1..=10)
        .map(|p| {
            let shape = row.per_phase[p - 1];
            let cfg = SimConfig::with_shape(shape.slices, shape.l2_banks)
                .expect("schedule shapes are valid");
            (gcc_phase_trace(p, &spec), cfg)
        })
        .collect();
    let static_schedule: Vec<_> = (1..=10)
        .map(|p| {
            let cfg = SimConfig::with_shape(row.static_best.slices, row.static_best.l2_banks)
                .expect("static shape is valid");
            (gcc_phase_trace(p, &spec), cfg)
        })
        .collect();
    let dynamic = run_phased_with(&dynamic_schedule, ReconfigCosts::paper())?;
    let fixed = run_phased_with(&static_schedule, ReconfigCosts::paper())?;

    let avg_area = |shapes: &[VCoreShape]| -> f64 {
        shapes
            .iter()
            .map(|s| area.vcore_mm2(s.slices, s.l2_banks))
            .sum::<f64>()
            / shapes.len() as f64
    };
    let dyn_area = avg_area(&row.per_phase);
    let static_area = area.vcore_mm2(row.static_best.slices, row.static_best.l2_banks);

    println!(
        "\nexecuted: dynamic {} cycles on {:.2} mm² (average)  |  static {} cycles on {:.2} mm²",
        dynamic.cycles, dyn_area, fixed.cycles, static_area
    );
    println!(
        "the dynamic schedule trades {:+.1}% cycles for {:+.1}% silicon — the per-area \
         efficiency win the paper's Table 7 reports (gains up to 19.4%)",
        100.0 * (dynamic.cycles as f64 / fixed.cycles as f64 - 1.0),
        100.0 * (dyn_area / static_area - 1.0),
    );
    Ok(())
}
