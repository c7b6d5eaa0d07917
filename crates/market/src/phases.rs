//! Dynamic program phases (paper §5.10, Table 7).
//!
//! The paper splits gcc into ten segments, finds each segment's optimal
//! VCore shape under three `perf^k/area` metrics, and compares a
//! dynamically reconfigured VCore (paying 10 000 cycles when the cache
//! configuration changes, 500 when only Slices change) against the best
//! *single* static shape for the whole program. Gains reach 19.4 % for
//! `performance³/area`.

use sharing_area::AreaModel;
use sharing_core::{par, ReconfigCosts, SimConfig, Simulator, VCoreShape};
use sharing_trace::{gcc_phase_trace, TraceSpec};
use std::collections::BTreeMap;

/// Per-phase measurements for one metric exponent.
#[derive(Clone, Debug)]
pub struct PhaseRow {
    /// Metric exponent `k` in `perf^k/area`.
    pub k: u32,
    /// Optimal shape per phase.
    pub per_phase: Vec<VCoreShape>,
    /// The single static shape with the best whole-program metric.
    pub static_best: VCoreShape,
    /// Dynamic-over-static gain (e.g. `0.15` = 15 %), reconfiguration
    /// costs included.
    pub gain: f64,
}

/// The Table 7 study result.
#[derive(Clone, Debug)]
pub struct PhaseStudy {
    /// Number of phases (the paper uses 10).
    pub phases: usize,
    /// One row per metric exponent (1, 2, 3).
    pub rows: Vec<PhaseRow>,
}

/// Cycles each phase takes at each candidate shape, measured once and
/// shared by all three metrics.
type PhaseCycles = Vec<BTreeMap<VCoreShape, (u64, u64)>>; // (cycles, insts)

fn measure_phases(spec: &TraceSpec, phases: usize, shapes: &[VCoreShape]) -> PhaseCycles {
    let tasks: Vec<(usize, VCoreShape)> = (1..=phases)
        .flat_map(|p| shapes.iter().map(move |&s| (p, s)))
        .collect();
    let measured = par::map_indexed(par::resolve_jobs(None), &tasks, |_, &(p, shape)| {
        let trace = gcc_phase_trace(p, spec);
        let cfg = SimConfig::with_shape(shape.slices, shape.l2_banks)
            .expect("candidate shapes are valid");
        let r = Simulator::new(cfg)
            .expect("valid config")
            .run_with(&trace, sharing_core::RunOptions::new())
            .result;
        (r.cycles, r.instructions)
    });
    let mut out: PhaseCycles = vec![BTreeMap::new(); phases];
    for (&(p, shape), v) in tasks.iter().zip(measured) {
        out[p - 1].insert(shape, v);
    }
    out
}

fn metric(perf: f64, k: u32, shape: VCoreShape, area: &AreaModel) -> f64 {
    perf.powi(k as i32) / area.vcore_mm2(shape.slices, shape.l2_banks)
}

/// Runs the phase study on gcc's ten phases.
///
/// `shapes` is the candidate configuration set (defaults to the full sweep
/// grid via [`run_study`]); `spec.len` is the per-phase trace length.
#[must_use]
pub fn run_study_with(
    spec: &TraceSpec,
    phases: usize,
    shapes: &[VCoreShape],
    costs: ReconfigCosts,
    area: &AreaModel,
) -> PhaseStudy {
    assert!(phases >= 1 && !shapes.is_empty());
    let measured = measure_phases(spec, phases, shapes);
    let rows = [1u32, 2, 3]
        .into_iter()
        .map(|k| {
            // Dynamic: the reconfiguration-aware optimal schedule, by
            // dynamic programming over (phase, shape). Each phase's score
            // is ln(perf^k/area) with the transition's reconfiguration
            // cycles charged against that phase's performance — exactly
            // the accounting of the paper's Table 7.
            let score =
                |phase: &BTreeMap<VCoreShape, (u64, u64)>, shape: VCoreShape, reconfig: u64| {
                    let (cycles, insts) = phase[&shape];
                    let perf = insts as f64 / (cycles + reconfig) as f64;
                    metric(perf, k, shape, area).ln()
                };
            // value[s] = best log-sum ending at shape s; back[phase][s].
            let mut value: Vec<f64> = shapes.iter().map(|&s| score(&measured[0], s, 0)).collect();
            let mut back: Vec<Vec<usize>> = Vec::with_capacity(phases);
            for phase in &measured[1..] {
                let mut next_value = vec![f64::NEG_INFINITY; shapes.len()];
                let mut choice = vec![0usize; shapes.len()];
                for (si, &s) in shapes.iter().enumerate() {
                    for (pi, &p) in shapes.iter().enumerate() {
                        let cand = value[pi] + score(phase, s, costs.cost(p, s));
                        if cand > next_value[si] {
                            next_value[si] = cand;
                            choice[si] = pi;
                        }
                    }
                }
                back.push(choice);
                value = next_value;
            }
            let (mut best_idx, &best_log) = value
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| a.total_cmp(b))
                .expect("shapes measured");
            let dyn_gme = (best_log / phases as f64).exp();
            let mut per_phase = vec![shapes[best_idx]];
            for choice in back.iter().rev() {
                best_idx = choice[best_idx];
                per_phase.push(shapes[best_idx]);
            }
            per_phase.reverse();

            // Static: one shape for every phase, no reconfiguration.
            let (static_best, static_gme) = shapes
                .iter()
                .map(|&shape| {
                    let log_sum: f64 = measured
                        .iter()
                        .map(|phase| {
                            let (cycles, insts) = phase[&shape];
                            metric(insts as f64 / cycles as f64, k, shape, area).ln()
                        })
                        .sum();
                    (shape, (log_sum / phases as f64).exp())
                })
                .max_by(|(_, a), (_, b)| a.total_cmp(b))
                .expect("shapes measured");

            PhaseRow {
                k,
                per_phase,
                static_best,
                gain: dyn_gme / static_gme - 1.0,
            }
        })
        .collect();
    PhaseStudy { phases, rows }
}

/// Runs the paper's Table 7 configuration: ten gcc phases over the full
/// sweep grid with the paper's reconfiguration costs.
#[must_use]
pub fn run_study(spec: &TraceSpec) -> PhaseStudy {
    let shapes: Vec<VCoreShape> = VCoreShape::sweep_grid().collect();
    run_study_with(
        spec,
        10,
        &shapes,
        ReconfigCosts::paper(),
        &AreaModel::paper(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_shapes() -> Vec<VCoreShape> {
        [(1, 0), (1, 2), (2, 2), (4, 8), (5, 16)]
            .into_iter()
            .map(|(s, b)| VCoreShape::new(s, b).unwrap())
            .collect()
    }

    #[test]
    fn study_produces_three_rows_over_all_phases() {
        let spec = TraceSpec::new(4_000, 9);
        let study = run_study_with(
            &spec,
            3,
            &small_shapes(),
            ReconfigCosts::paper(),
            &AreaModel::paper(),
        );
        assert_eq!(study.rows.len(), 3);
        for row in &study.rows {
            assert_eq!(row.per_phase.len(), 3);
            assert!(row.gain > -1.0, "gain is a ratio-minus-one");
        }
        assert_eq!(study.rows[0].k, 1);
        assert_eq!(study.rows[2].k, 3);
    }

    #[test]
    fn dynamic_beats_or_matches_static_without_reconfig_costs() {
        // With free reconfiguration the per-phase optimum can only beat a
        // single static choice.
        let spec = TraceSpec::new(4_000, 9);
        let free = ReconfigCosts {
            slice_only: 0,
            cache_change: 0,
        };
        let study = run_study_with(&spec, 3, &small_shapes(), free, &AreaModel::paper());
        for row in &study.rows {
            assert!(
                row.gain >= -1e-9,
                "k={} gain {} should be non-negative",
                row.k,
                row.gain
            );
        }
    }

    #[test]
    fn higher_metric_exponent_prefers_bigger_phase_configs() {
        let spec = TraceSpec::new(4_000, 9);
        let study = run_study_with(
            &spec,
            3,
            &small_shapes(),
            ReconfigCosts::paper(),
            &AreaModel::paper(),
        );
        let avg = |row: &PhaseRow| {
            row.per_phase.iter().map(|s| s.slices).sum::<usize>() as f64
                / row.per_phase.len() as f64
        };
        assert!(avg(&study.rows[2]) >= avg(&study.rows[0]));
    }
}
