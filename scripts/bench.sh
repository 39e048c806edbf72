#!/usr/bin/env bash
# Runs the `kernels` bench harness and appends one JSON line per benchmark to
# BENCH_kernels.json, tagged with the git revision and the thread count so
# the perf trajectory across PRs (and across AHW_THREADS values) is
# comparable.
#
# Usage: scripts/bench.sh [output.json] [name-filter...]
#
# Knobs (all optional):
#   AHW_THREADS          worker count the kernels run with (default: auto)
#   AHW_BENCH_SAMPLES    samples per benchmark        (default here: 5)
#   AHW_BENCH_WARMUP_MS  warm-up/calibration window   (default here: 150)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_kernels.json}"
shift || true

# rows measured on a modified tree are tagged <rev>-dirty, so before/after
# recordings on top of the same commit stay distinguishable
rev="$(git rev-parse --short HEAD)"
git diff --quiet HEAD || rev="$rev-dirty"
threads="${AHW_THREADS:-$(nproc)}"
export AHW_BENCH_SAMPLES="${AHW_BENCH_SAMPLES:-5}"
export AHW_BENCH_WARMUP_MS="${AHW_BENCH_WARMUP_MS:-150}"

echo "bench: rev=$rev threads=$threads -> $out" >&2
cargo bench --offline -q -p ahw-bench --bench kernels -- "$@" \
    | grep '^{' \
    | sed "s/^{/{\"rev\":\"$rev\",\"threads\":$threads,/" \
    | tee -a "$out"

# Telemetry-overhead delta: the flagship GEMM once with telemetry disabled
# and once with spans + metrics recording (AHW_METRICS=1 turns the gate on
# and also appends the harness's metrics-snapshot line), tagged so overhead
# regressions are visible next to the plain numbers.
for t in off on; do
    if [ "$t" = on ]; then export AHW_METRICS=1; else unset AHW_METRICS; fi
    echo "bench: telemetry=$t matmul/256 -> $out" >&2
    cargo bench --offline -q -p ahw-bench --bench kernels -- matmul/256 \
        | grep '^{' \
        | sed "s/^{/{\"rev\":\"$rev\",\"threads\":$threads,\"telemetry\":\"$t\",/" \
        | tee -a "$out"
done
unset AHW_METRICS

# Attack-path workload: the sharded PGD evaluation loop (the sweep shape the
# paper measures), run with metrics on so the workspace-arena counters land
# in the harness's metrics-snapshot line next to the timing.
export AHW_METRICS=1
echo "bench: attacks/pgd_eval -> $out" >&2
cargo bench --offline -q -p ahw-bench --bench kernels -- attacks/pgd_eval \
    | grep '^{' \
    | sed "s/^{/{\"rev\":\"$rev\",\"threads\":$threads,\"telemetry\":\"on\",/" \
    | tee -a "$out"
unset AHW_METRICS

# Injection workload: the activation-sized store->flip->load round trip.
# Metrics on, so the snapshot line carries the sparse-event telemetry
# (sram.injector.skip_draws vs bit_flips shows RNG work is O(flips), and
# words_stored the traffic) next to the timing.
export AHW_METRICS=1
echo "bench: sram/inject -> $out" >&2
cargo bench --offline -q -p ahw-bench --bench kernels -- sram/inject \
    | grep '^{' \
    | sed "s/^{/{\"rev\":\"$rev\",\"threads\":$threads,\"telemetry\":\"on\",/" \
    | tee -a "$out"
unset AHW_METRICS

# Selection-search workload: one miniature Fig. 4 search (candidate sweep +
# combination phase), at 1 worker and at 4 so the candidate-level parallelism
# of the search pipeline shows up as its own rows. Metrics stay on — the
# snapshot line carries core.search.candidates_done / core.search.resumed
# next to the timing.
export AHW_METRICS=1
for t in 1 4; do
    echo "bench: selection/fig4_probe threads=$t -> $out" >&2
    AHW_THREADS=$t cargo bench --offline -q -p ahw-bench --bench kernels -- selection/fig4_probe \
        | grep '^{' \
        | sed "s/^{/{\"rev\":\"$rev\",\"threads\":$t,\"telemetry\":\"on\",/" \
        | tee -a "$out"
done
unset AHW_METRICS

# Machine-roof calibration: peak compute GFLOP/s and stream GB/s at this
# thread count, appended as a "calibration/roofline" row (no median_ns, so
# the regression watchdog skips it). ahw_report and the /report endpoint
# use the newest row to score kernels against this machine's roof.
echo "bench: calibration/roofline -> $out" >&2
cargo run --offline -q -p ahw-bench --bin ahw_bench -- --calibrate \
    | sed "s/^{/{\"rev\":\"$rev\",/" \
    | tee -a "$out"

# Regression watchdog (report mode): compare the newest row per (workload,
# threads, telemetry) key against the best of its baseline window,
# including the rows just appended. Report-only here — scripts/verify.sh
# gates on it with AHW_VERIFY_COMPARE=1.
echo "bench: history comparison (report) -> $out" >&2
cargo run --offline -q -p ahw-bench --bin ahw_bench -- \
    --compare --file "$out" --report >&2
