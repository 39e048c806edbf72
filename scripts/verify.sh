#!/usr/bin/env sh
# Tier-1 verification: the workspace must build and test clean with no
# network access and no external crates, pass clippy at -D warnings on
# every target (tests, benches, examples), build its rustdoc without
# warnings, reproduce the end-to-end benchmark's golden digests, and the
# kernel bench must run under a multi-threaded pool.
set -eu
cd "$(dirname "$0")/.."
cargo fmt --check
cargo build --release --offline
cargo test -q --workspace --offline
# benchmark/ is a workspace of its own, so the root build and tests never
# compile it; test it explicitly so a public-API change cannot break the
# benchmark unnoticed.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
# The benchmark's goldens: one pass of every workload at seeds 0 and 1 on
# the release build. The benchmark exits nonzero on a golden mismatch,
# `correct: false` or a failed op, so a change that moves result bits fails
# here. Where this host's ISA has no recorded golden, a second run must
# reproduce the first run's digest instead.
bench_out="$(mktemp)"
bench() {
    cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
        --workload "$1" --seed "$2" --seconds 0 >"$bench_out"
}
for workload in fig4_search sram_pgd xbar_pgd xbar_map; do
    for seed in 0 1; do
        bench "$workload" "$seed"
        golden="$(grep -o '"golden": "[^"]*"' "$bench_out")"
        if [ "$golden" = '"golden": "not recorded"' ]; then
            digest="$(grep -o '"digest": "[0-9a-f]*"' "$bench_out")"
            bench "$workload" "$seed"
            if ! grep -q "$digest" "$bench_out"; then
                echo "verify: benchmark $workload seed $seed is not deterministic" >&2
                exit 1
            fi
        fi
        echo "verify: benchmark $workload seed $seed: $golden" >&2
    done
done
rm -f "$bench_out"
cargo clippy --workspace --all-targets --offline -- -D warnings
# Rustdoc: every intra-doc link must resolve (deleted or private items
# break links silently otherwise).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
# The planned execution engine's core contract: a steady-state PGD craft
# performs zero heap allocations (counting global allocator).
cargo test -q --offline --test workspace_alloc
# Smoke: kernel bench on a 2-thread pool (tiny effort; output is JSON lines).
AHW_THREADS=2 AHW_BENCH_SAMPLES=1 AHW_BENCH_WARMUP_MS=20 \
    cargo bench --offline -q -p ahw-bench --bench kernels -- matmul/32
# Smoke: the conv rows on a 2-thread pool. The bench calls the layer at top
# level, so its column panels run in parallel over the pool — which the
# attack shards (nested pool tasks, run inline) never exercise.
AHW_THREADS=2 AHW_BENCH_SAMPLES=1 AHW_BENCH_WARMUP_MS=20 \
    cargo bench --offline -q -p ahw-bench --bench kernels -- conv2d/
# Smoke: the training rows on a 2-thread pool. A `Train` pass at top level
# runs the folded weight-gradient kernel and batch norm's per-channel
# reductions split over the pool, which no attack shard exercises.
AHW_THREADS=2 AHW_BENCH_SAMPLES=1 AHW_BENCH_WARMUP_MS=20 \
    cargo bench --offline -q -p ahw-bench --bench kernels -- train/
# Smoke: the attack-path workload on a 2-thread pool exercises the planned
# engine (plan-cache checkout, workspace reuse, sharded evaluation).
AHW_THREADS=2 AHW_BENCH_SAMPLES=1 AHW_BENCH_WARMUP_MS=20 \
    cargo bench --offline -q -p ahw-bench --bench kernels -- attacks/pgd_eval
# Smoke: the Fig. 4 selection search on a 2-thread pool exercises the
# pool-parallel candidate sweep end to end (per-candidate plan checkout,
# deterministic argmax, journal-less memoization).
AHW_THREADS=2 AHW_BENCH_SAMPLES=1 AHW_BENCH_WARMUP_MS=20 \
    cargo bench --offline -q -p ahw-bench --bench kernels -- selection/fig4_probe
# Smoke: the sparse-event bit-error injector on a 2-thread pool exercises
# the fused quantize/hash pass and the geometric-skip flip loop (results
# must be thread-count-invariant; the determinism tests pin that).
AHW_THREADS=2 AHW_BENCH_SAMPLES=1 AHW_BENCH_WARMUP_MS=20 \
    cargo bench --offline -q -p ahw-bench --bench kernels -- sram/inject

# Bench-regression watchdog over the committed history: always print the
# report; fail the build on a confirmed regression only when opted in with
# AHW_VERIFY_COMPARE=1 (fresh rows land via scripts/bench.sh, which runs
# the report mode itself).
if [ "${AHW_VERIFY_COMPARE:-0}" != "0" ]; then
    target/release/ahw_bench --compare
else
    target/release/ahw_bench --compare --report
fi

# Smoke: the live telemetry endpoint. Start a real experiment with the
# metrics server on an OS-assigned port (in a scratch directory so its
# journal/cache never touch the repo), recover the bound port from stderr,
# scrape /healthz and /metrics with the std-TcpStream client, and require
# span-latency p99 series from four different crates before killing it.
# A fixed roofline override is injected so the run-report smoke below also
# exercises the %-of-roof scoring path.
repo="$(pwd)"
tmp="$(mktemp -d)"
( cd "$tmp" && exec env AHW_METRICS_ADDR=127.0.0.1:0 AHW_THREADS=2 \
    AHW_ROOF_GFLOPS=50 AHW_ROOF_GBPS=20 \
    "$repo/target/release/exp_table1" --tiny ) \
    >"$tmp/stdout.log" 2>"$tmp/stderr.log" &
exp_pid=$!
addr=""
i=0
while [ $i -lt 100 ]; do
    addr="$(sed -n 's#.*metrics server listening on http://##p' "$tmp/stderr.log" | head -n 1)"
    [ -n "$addr" ] && break
    if ! kill -0 "$exp_pid" 2>/dev/null; then break; fi
    i=$((i + 1))
    sleep 0.2
done
if [ -z "$addr" ]; then
    echo "verify: metrics server never reported its address" >&2
    cat "$tmp/stderr.log" >&2
    kill "$exp_pid" 2>/dev/null || true
    exit 1
fi
target/release/ahw_bench --scrape "$addr" /healthz >/dev/null
ok=""
i=0
while [ $i -lt 240 ]; do
    if target/release/ahw_bench --scrape "$addr" /metrics >"$tmp/metrics.txt" 2>/dev/null \
        && grep -q '^nn_[a-z0-9_]*_dur_ns_p99 ' "$tmp/metrics.txt" \
        && grep -q '^tensor_[a-z0-9_]*_dur_ns_p99 ' "$tmp/metrics.txt" \
        && grep -q '^attacks_[a-z0-9_]*_dur_ns_p99 ' "$tmp/metrics.txt" \
        && grep -q '^sram_[a-z0-9_]*_dur_ns_p99 ' "$tmp/metrics.txt"; then
        ok=1
        break
    fi
    if ! kill -0 "$exp_pid" 2>/dev/null; then break; fi
    i=$((i + 1))
    sleep 0.5
done
# Smoke: the live run report. While the experiment is still running, pull
# the full report off /report.md via ahw_report and require the profiling
# sections the ISSUE promises: a span tree with a self-time column, the
# worker-utilization summary, and roofline scoring against the injected
# roof.
report_ok=""
if [ -n "$ok" ]; then
    if target/release/ahw_report --scrape "$addr" --out "$tmp/report.md" \
        && grep -q 'self_ms' "$tmp/report.md" \
        && grep -q '^## Worker utilization' "$tmp/report.md" \
        && grep -q '^## Roofline' "$tmp/report.md" \
        && grep -q '%roof' "$tmp/report.md" \
        && grep -q '<h2>Roofline</h2>' "$tmp/report.html"; then
        report_ok=1
    fi
fi
# Smoke: the offline report round-trip. Save the live trace and snapshot,
# re-render them with ahw_report offline (re-parsed by
# ahw_telemetry::json) against the committed bench history, and require
# the same profiling sections plus the bench trend.
offline_ok=""
if [ -n "$report_ok" ]; then
    if target/release/ahw_bench --scrape "$addr" /trace.json >"$tmp/trace.json" 2>/dev/null \
        && target/release/ahw_bench --scrape "$addr" /snapshot.json >"$tmp/snapshot.json" 2>/dev/null \
        && target/release/ahw_report --trace "$tmp/trace.json" --snapshot "$tmp/snapshot.json" \
            --bench BENCH_kernels.json --out "$tmp/offline.md" 2>/dev/null \
        && grep -q 'self_ms' "$tmp/offline.md" \
        && grep -q '^## Worker utilization' "$tmp/offline.md" \
        && grep -q '^## Roofline' "$tmp/offline.md" \
        && grep -q '^## Bench trend' "$tmp/offline.md"; then
        offline_ok=1
    fi
fi
kill "$exp_pid" 2>/dev/null || true
wait "$exp_pid" 2>/dev/null || true
if [ -z "$ok" ]; then
    echo "verify: live /metrics never exposed span-latency p99 series from 4 crates" >&2
    head -n 60 "$tmp/metrics.txt" 2>/dev/null >&2 || true
    exit 1
fi
if [ -z "$report_ok" ]; then
    echo "verify: live run report missing span-tree/utilization/roofline sections" >&2
    head -n 60 "$tmp/report.md" 2>/dev/null >&2 || true
    exit 1
fi
if [ -z "$offline_ok" ]; then
    echo "verify: offline run report from saved trace/snapshot missing sections" >&2
    head -n 60 "$tmp/offline.md" 2>/dev/null >&2 || true
    exit 1
fi
echo "verify: live /metrics scrape OK ($addr, span p99 series from nn/tensor/attacks/sram)" >&2
echo "verify: live run report OK (span tree + utilization + roofline via ahw_report --scrape)" >&2
echo "verify: offline run report OK (saved trace + snapshot + bench trend via ahw_report)" >&2
rm -rf "$tmp"
