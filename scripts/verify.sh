#!/usr/bin/env sh
# Tier-1 verification: the workspace must build and test clean with no
# network access and no external crates, pass clippy at -D warnings on
# every target (tests, benches, examples), build its rustdoc without
# warnings, reproduce the end-to-end benchmark's golden digests and every
# `exp_* --tiny` stdout, and the kernel bench must run under a
# multi-threaded pool and through an A/B session.
set -eu
cd "$(dirname "$0")/.."
repo="$(pwd)"
cargo fmt --check
# The root package alone is only the library: build the experiment and
# tooling binaries this script runs explicitly.
cargo build --release --offline -p adversarial-hw -p ahw-bench
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
        isa="$(grep -o '"isa": "[^"]*"' "$bench_out" | cut -d'"' -f4)"
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
# The experiments' stdout, pinned like the benchmark's goldens: every
# `exp_* --tiny` runs, in run_experiments.sh's order, in a fresh scratch
# directory with an empty model cache at AHW_THREADS=2, and its stdout
# digest must match the one scripts/exp_tiny_digests.txt records for this
# ISA (the one the benchmark reported above). Where none is recorded, a
# second run (warm cache, AHW_THREADS=1) must reproduce the first.
exp_dir="$(mktemp -d)"
exp() {
    (cd "$exp_dir" && AHW_CACHE="$exp_dir/cache" AHW_THREADS=$2 \
        "$repo/target/release/$1" --tiny) >"$exp_dir/stdout" 2>"$exp_dir/stderr" || {
        cat "$exp_dir/stderr" >&2
        echo "verify: $1 --tiny failed" >&2
        exit 1
    }
    sha256sum <"$exp_dir/stdout" | cut -d' ' -f1
}
for bin in exp_fig2 exp_table1 exp_table2 exp_fig5 exp_fig6 exp_table3 exp_fig7 \
    exp_fig8a exp_fig8bc exp_ablations; do
    digest="$(exp "$bin" 2)"
    want="$(awk -v isa="$isa" -v bin="$bin" '$1 == isa && $2 == bin { print $3 }' \
        scripts/exp_tiny_digests.txt)"
    status=match
    if [ -z "$want" ]; then
        want="$(exp "$bin" 1)"
        status="not recorded, reproduced"
    fi
    if [ "$digest" != "$want" ]; then
        echo "verify: $bin --tiny stdout $digest, expected $want ($isa)" >&2
        exit 1
    fi
    echo "verify: $bin --tiny stdout: $status" >&2
done
rm -rf "$exp_dir"
# Smoke: the kernel bench on a 2-thread pool (tiny effort), run as one
# A/B pair against HEAD through scripts/ab.sh and the speed judge; a
# kernel run that fails fails the build. The conv and training rows call
# their layer at top level, so column panels, the folded weight-gradient
# kernel and batch norm's per-channel reductions run split over the pool,
# which the attack shards (nested pool tasks, run inline) never exercise;
# the attack-path, Fig. 4 search and injector rows run the planned engine,
# the pool-parallel candidate sweep and the sparse-event flip loop. The
# builds stay in target/ab, so later runs build incrementally.
AB_WORK=target/ab AHW_THREADS=2 AHW_BENCH_SAMPLES=1 AHW_BENCH_WARMUP_MS=20 \
    scripts/ab.sh kernels \
    "matmul/32 conv2d/ train/ attacks/pgd_eval selection/fig4_probe sram/inject" 1 HEAD
# The judge's verdicts are printed, and AHW_VERIFY_COMPARE=1 fails the
# build on a `worse` one. At one pair of one-sample runs they are noise:
# the base IQR is 0, so `unresolved` cannot fire and any excursion past
# the 10 % kernel bound reads `worse`, even with no code change. Judge a
# speed change with a full scripts/ab.sh session instead.
if [ "${AHW_VERIFY_COMPARE:-0}" != "0" ] \
    && ! target/release/ahw_bench --compare --file target/ab/session >/dev/null; then
    echo "verify: the kernel A/B smoke judged a row worse (AHW_VERIFY_COMPARE=1)" >&2
    exit 1
fi

# Smoke: the live telemetry endpoint. Start a real experiment with the
# metrics server on an OS-assigned port (in a scratch directory so its
# journal/cache never touch the repo), recover the bound port from stderr,
# scrape /healthz and /metrics with the std-TcpStream client, and require
# span-latency p99 series from four different crates before killing it.
# A fixed roofline override is injected so the run-report smoke below also
# exercises the %-of-roof scoring path.
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
# ahw_telemetry::json, the roof from the committed bench history), and
# require the same profiling sections.
offline_ok=""
if [ -n "$report_ok" ]; then
    if target/release/ahw_bench --scrape "$addr" /trace.json >"$tmp/trace.json" 2>/dev/null \
        && target/release/ahw_bench --scrape "$addr" /snapshot.json >"$tmp/snapshot.json" 2>/dev/null \
        && target/release/ahw_report --trace "$tmp/trace.json" --snapshot "$tmp/snapshot.json" \
            --bench BENCH_kernels.json --out "$tmp/offline.md" 2>/dev/null \
        && grep -q 'self_ms' "$tmp/offline.md" \
        && grep -q '^## Worker utilization' "$tmp/offline.md" \
        && grep -q '^## Roofline' "$tmp/offline.md"; then
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
echo "verify: offline run report OK (saved trace + snapshot via ahw_report)" >&2
rm -rf "$tmp"
