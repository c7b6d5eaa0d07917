//! Dynamic program phases (paper §5.10, Table 7).
//!
//! The paper splits gcc into ten segments, finds each segment's optimal
//! VCore shape under three `perf^k/area` metrics, and compares a
//! dynamically reconfigured VCore (paying 10 000 cycles when the cache
//! configuration changes, 500 when only Slices change) against the best
//! *single* static shape for the whole program. Gains reach 19.4 % for
//! `performance³/area`.
//!
//! The schedules are chosen from cold per-phase runs, then executed on a
//! live [`ReconfigurableVCore`], so each row reports both the estimate
//! and the executed gain.

use sharing_area::AreaModel;
use sharing_core::{par, ReconfigCosts, ReconfigurableVCore, SimConfig, Simulator, VCoreShape};
use sharing_trace::{gcc_phase_trace, Trace, TraceSpec};
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
    /// costs included, estimated from runs that start every phase cold.
    pub gain: f64,
    /// The same gain with `per_phase` and `static_best` executed on a live
    /// [`ReconfigurableVCore`]: caches stay warm across phases wherever
    /// the bank set does, and each phase's cycles come from the
    /// continuous clock, including the reconfiguration that entered it.
    pub live_gain: f64,
}

/// The Table 7 study result.
#[derive(Clone, Debug)]
pub struct PhaseStudy {
    /// Number of phases (the paper uses 10).
    pub phases: usize,
    /// One row per metric exponent (1, 2, 3).
    pub rows: Vec<PhaseRow>,
}

/// One phase's `(cycles, instructions)`.
type PhaseRun = (u64, u64);

/// Each phase's run at each candidate shape, measured once from a cold
/// start and shared by all three metrics.
type PhaseCycles = Vec<BTreeMap<VCoreShape, PhaseRun>>;

fn cfg(shape: VCoreShape) -> SimConfig {
    SimConfig::with_shape(shape.slices, shape.l2_banks).expect("candidate shapes are valid")
}

fn measure_phases(traces: &[Trace], shapes: &[VCoreShape]) -> PhaseCycles {
    let tasks: Vec<(usize, VCoreShape)> = (0..traces.len())
        .flat_map(|p| shapes.iter().map(move |&s| (p, s)))
        .collect();
    let measured = par::map_indexed(par::resolve_jobs(None), &tasks, |_, &(p, shape)| {
        let r = Simulator::new(cfg(shape))
            .expect("valid config")
            .run_with(&traces[p], sharing_core::RunOptions::new())
            .result;
        (r.cycles, r.instructions)
    });
    let mut out: PhaseCycles = vec![BTreeMap::new(); traces.len()];
    for (&(p, shape), v) in tasks.iter().zip(measured) {
        out[p].insert(shape, v);
    }
    out
}

/// Executes `schedule` (one shape per phase) on one live VCore. Returns
/// each phase's run on the continuous clock, with the reconfiguration
/// into a phase charged to that phase, and the reconfiguration cycles
/// paid in all.
fn replay(traces: &[Trace], schedule: &[VCoreShape], costs: ReconfigCosts) -> (Vec<PhaseRun>, u64) {
    let mut vcore = ReconfigurableVCore::new(cfg(schedule[0]))
        .expect("valid config")
        .with_costs(costs);
    let runs = traces
        .iter()
        .zip(schedule)
        .map(|(trace, &shape)| {
            let start = vcore.cycles();
            vcore
                .reconfigure(shape)
                .expect("candidate shapes are valid");
            vcore.run(trace);
            (vcore.cycles() - start, trace.len() as u64)
        })
        .collect();
    (runs, vcore.reconfig_cycles())
}

fn metric(perf: f64, k: u32, shape: VCoreShape, area: &AreaModel) -> f64 {
    perf.powi(k as i32) / area.vcore_mm2(shape.slices, shape.l2_banks)
}

/// Geometric mean over phases of `perf^k/area` for `schedule` run as
/// `runs`.
fn schedule_gme(k: u32, schedule: &[VCoreShape], runs: &[PhaseRun], area: &AreaModel) -> f64 {
    let log_sum: f64 = schedule
        .iter()
        .zip(runs)
        .map(|(&shape, &(cycles, insts))| metric(insts as f64 / cycles as f64, k, shape, area).ln())
        .sum();
    (log_sum / runs.len() as f64).exp()
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
    let jobs = par::resolve_jobs(None);
    let numbers: Vec<usize> = (1..=phases).collect();
    let traces = par::map_indexed(jobs, &numbers, |_, &p| gcc_phase_trace(p, spec));
    let measured = measure_phases(&traces, shapes);
    let rows = [1u32, 2, 3]
        .into_iter()
        .map(|k| {
            // Dynamic: the reconfiguration-aware optimal schedule, by
            // dynamic programming over (phase, shape). Each phase's score
            // is ln(perf^k/area) with the transition's reconfiguration
            // cycles charged against that phase's performance — exactly
            // the accounting of the paper's Table 7.
            let score =
                |phase: &BTreeMap<VCoreShape, PhaseRun>, shape: VCoreShape, reconfig: u64| {
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
                    let runs: Vec<PhaseRun> = measured.iter().map(|phase| phase[&shape]).collect();
                    (shape, schedule_gme(k, &vec![shape; phases], &runs, area))
                })
                .max_by(|(_, a), (_, b)| a.total_cmp(b))
                .expect("shapes measured");

            // Both schedules executed on a live VCore.
            let schedules = [per_phase.clone(), vec![static_best; phases]];
            let live = par::map_indexed(jobs, &schedules, |_, schedule| {
                schedule_gme(k, schedule, &replay(&traces, schedule, costs).0, area)
            });

            PhaseRow {
                k,
                per_phase,
                static_best,
                gain: dyn_gme / static_gme - 1.0,
                live_gain: live[0] / live[1] - 1.0,
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
    fn live_dynamic_replay_charges_exactly_the_schedule_cost() {
        // Over all ten phases the optima drift, so the schedules pay for
        // both kinds of reconfiguration.
        let spec = TraceSpec::new(4_000, 9);
        let costs = ReconfigCosts::paper();
        let study = run_study_with(&spec, 10, &small_shapes(), costs, &AreaModel::paper());
        let traces: Vec<Trace> = (1..=10).map(|p| gcc_phase_trace(p, &spec)).collect();
        let mut charged = Vec::new();
        for row in &study.rows {
            let (runs, paid) = replay(&traces, &row.per_phase, costs);
            assert_eq!(paid, costs.schedule_cost(&row.per_phase), "k={}", row.k);
            assert_eq!(runs.len(), 10);
            charged.push(paid);
        }
        assert!(
            charged.iter().any(|&c| c >= costs.cache_change),
            "{charged:?}"
        );
        assert!(
            charged.iter().any(|&c| c % costs.cache_change != 0),
            "{charged:?}"
        );
    }

    #[test]
    fn one_candidate_shape_gains_nothing() {
        let spec = TraceSpec::new(4_000, 9);
        let only = [VCoreShape::new(2, 2).unwrap()];
        let study = run_study_with(&spec, 3, &only, ReconfigCosts::paper(), &AreaModel::paper());
        for row in &study.rows {
            assert_eq!(row.per_phase, vec![only[0]; 3]);
            assert_eq!(row.static_best, only[0]);
            assert_eq!(row.gain, 0.0, "k={}", row.k);
            assert_eq!(row.live_gain, 0.0, "k={}", row.k);
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
