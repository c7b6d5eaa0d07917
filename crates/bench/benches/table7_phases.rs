//! Table 7: optimal VCore configurations for gcc's ten program phases,
//! and the dynamic-over-static gain with reconfiguration costs, both as
//! estimated from cold phases and as executed on a live VCore.

use sharing_bench::{render_table, run_experiment};
use sharing_market::phases;
use sharing_trace::TraceSpec;

fn main() {
    run_experiment(
        "table7_phases",
        "Table 7 (gcc phase-optimal configs; dynamic vs static gain)",
        || {
            // Long phases so the 10 000-cycle reconfiguration amortizes the
            // way it does over the paper's full-length phases.
            let spec = TraceSpec::new(60_000, 0xA5_2014);
            let study = phases::run_study(&spec);
            let mut rows = Vec::new();
            for row in &study.rows {
                let mut cache_row = vec![format!("perf^{}/area L2(KB)", row.k)];
                let mut slice_row = vec![format!("perf^{}/area slices", row.k)];
                for shape in &row.per_phase {
                    cache_row.push(shape.l2_kb().to_string());
                    slice_row.push(shape.slices.to_string());
                }
                cache_row.push(format!(
                    "static {}KB/{}s",
                    row.static_best.l2_kb(),
                    row.static_best.slices
                ));
                slice_row.push(format!(
                    "gain {:+.1}% cold, {:+.1}% live",
                    100.0 * row.gain,
                    100.0 * row.live_gain
                ));
                rows.push(cache_row);
                rows.push(slice_row);
            }
            let headers = [
                "metric", "ph1", "ph2", "ph3", "ph4", "ph5", "ph6", "ph7", "ph8", "ph9", "ph10",
                "summary",
            ];
            println!("{}", render_table(&headers, &rows));
            println!(
                "paper: per-phase optima drift from large (1MB/5s) to small (64-128KB/1-2s) \
                 configurations; dynamic gains 9.1% / 15.1% / 19.4% for k=1/2/3 with \
                 10000-cycle cache and 500-cycle slice reconfiguration costs"
            );
        },
    );
}
