#!/usr/bin/env bash
# Times a cold (sequential and parallel) and warm full-suite sweep and
# writes BENCH_sweep.json, seeding the perf trajectory for the sharing
# architecture's Equation 3 grid. Everything runs offline.
#
# Each run also appends one line to BENCH_history.jsonl (git SHA,
# timestamp, trace length, jobs, cycles/sec) so the perf trajectory
# across commits is greppable instead of being overwritten in place.
#
# Usage: scripts/bench_sweep.sh [OUT.json]
# Knobs: SSIM_BENCH_LEN (trace length, default: the standard 60000)
#        SSIM_BENCH_JOBS (workers, default: all cores)
#        SSIM_BENCH_HISTORY (history file, default BENCH_history.jsonl)
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_sweep.json}"
LEN="${SSIM_BENCH_LEN:-60000}"
JOBS="${SSIM_BENCH_JOBS:-$(nproc)}"
HISTORY="${SSIM_BENCH_HISTORY:-BENCH_history.jsonl}"

cargo build --release --offline -p sharing-market --example bench_sweep
cargo run --release --offline -p sharing-market --example bench_sweep -- \
  --len "$LEN" --jobs "$JOBS" --out "$OUT"
cat "$OUT"

# One compact history line per run. The report is pretty-printed JSON
# with one "key": value pair per line, so grab scalars by key.
field() { grep -o "\"$1\": *[0-9.e+-]*" "$OUT" | head -n1 | sed 's/.*: *//'; }
SHA="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
STAMP="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
printf '{"sha":"%s","utc":"%s","trace_len":%s,"jobs":%s,"cold_parallel_secs":%s,"cycles_per_sec_cold_parallel":%s,"cycles_per_sec_cold_sequential":%s,"event_cycles_per_sec":%s,"sharded_vm_cycles_per_sec":%s,"sharded_speedup_vs_single_worker":%s}\n' \
  "$SHA" "$STAMP" \
  "$(field trace_len)" "$(field jobs)" \
  "$(field cold_parallel_secs)" \
  "$(field cycles_per_sec_cold_parallel)" \
  "$(field cycles_per_sec_cold_sequential)" \
  "$(field cycles_per_sec)" \
  "$(field vm_cycles_per_sec_sharded)" \
  "$(field speedup_vs_single_worker)" \
  >> "$HISTORY"
echo "bench: appended $SHA to $HISTORY"
