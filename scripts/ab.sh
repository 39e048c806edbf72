#!/usr/bin/env sh
# Interleaved A/B runs: a committed base tree (default HEAD~1) against the
# working tree, built the same way and run alternately, so host drift lands
# on both sides alike. The working tree's `ahw_bench --compare` judges the
# session (crates/bench/src/compare.rs has the rule).
#
# Usage: scripts/ab.sh WORKLOAD ARG PAIRS [BASE]
#
# WORKLOAD is a benchmark workload (ARG is its seed; each run lasts the
# benchmark's default length) or `kernels`, the kernel bench (ARG is one
# operand of space-separated name filters, e.g. "matmul/ conv2d/"; each run
# starts in the bench's package directory, as under `cargo bench`, and is
# followed by that side's `ahw_bench --calibrate`). AHW_THREADS and the
# kernel bench's AHW_BENCH_SAMPLES / AHW_BENCH_WARMUP_MS apply to both sides.
#
# Each pair runs both sides once; odd pairs run the base first, even pairs
# the working tree. Every run prints one session line,
# {"rev","side","pair","output"}, whose output holds each JSON line the run
# printed. The judge then prints, per benchmark metric or kernel row, each
# side's median and quartiles, the pairs the working tree won and the
# verdict (gain / worse / unresolved / same), then each side's median host
# evidence, never judged. Exits 1 if any run was invalid (a benchmark run
# not `golden: match`, `correct: true`, `failed: 0`). To record a session,
# append its session lines to BENCH_kernels.json.
#
# Nothing is written inside the repository: the base checkout, both cargo
# target directories and the session live in a scratch directory.
#
# AB_WORK (optional) names a scratch directory to build in and keep, so a
# later call rebuilds incrementally; the session is left in
# $AB_WORK/session (default: a fresh temporary directory, removed on exit).
set -eu

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 WORKLOAD ARG PAIRS [BASE]" >&2
    exit 2
fi
workload=$1
arg=$2
pairs=$3
base=${4:-HEAD~1}
repo=$(cd "$(dirname "$0")/.." && pwd)

if [ -n "${AB_WORK:-}" ]; then
    mkdir -p "$AB_WORK"
    work=$(cd "$AB_WORK" && pwd)
else
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
    trap 'exit 130' INT TERM
fi

rev_base=$(git -C "$repo" rev-parse --short "$base")
rev_work=$(git -C "$repo" rev-parse --short HEAD)
git -C "$repo" diff --quiet HEAD || rev_work=$rev_work-dirty
rm -rf "$work/base"
mkdir -p "$work/base"
git -C "$repo" archive "$base" | tar -x -C "$work/base"

# Build from inside each checkout so both pick up their own
# .cargo/config.toml, into target directories outside the repository, and
# copy the binaries out so an edit during the session changes neither side.
build() {
    dir=$1
    side=$2
    target=$work/target-$side
    if [ "$workload" = kernels ]; then
        (cd "$dir" && CARGO_TARGET_DIR=$target cargo bench --offline -p ahw-bench \
            --bench kernels --no-run) 2>"$work/build.log" || {
            cat "$work/build.log" >&2
            exit 1
        }
        # cargo may print the path relative to the directory it ran in
        exe=$(sed -n 's/^ *Executable benches\/kernels.rs (\(.*\))$/\1/p' "$work/build.log")
        (cd "$dir" && cp "$exe" "$work/kernels-$side")
    else
        (cd "$dir" && CARGO_TARGET_DIR=$target cargo build --release --offline -q \
            --manifest-path benchmark/Cargo.toml)
        cp "$target/release/ahw-benchmark" "$work/bench-$side"
    fi
    if [ "$workload" = kernels ] || [ "$side" = work ]; then
        (cd "$dir" && CARGO_TARGET_DIR=$target cargo build --release --offline -q \
            -p ahw-bench --bin ahw_bench)
        cp "$target/release/ahw_bench" "$work/ahw_bench-$side"
    fi
}

echo "ab: building base $rev_base and the working tree in $work" >&2
build "$work/base" base
build "$repo" work

# One run, printed as one session line.
run() {
    side=$1
    pair=$2
    if [ "$side" = base ]; then dir=$work/base rev=$rev_base; else dir=$repo rev=$rev_work; fi
    if [ "$workload" = kernels ]; then
        # the filters are meant to split into separate operands
        # shellcheck disable=SC2086
        (cd "$dir/crates/bench" && "$work/kernels-$side" --bench $arg \
            && "$work/ahw_bench-$side" --calibrate) \
            >"$work/run.out" 2>"$work/run.err" || {
            cat "$work/run.err" >&2
            echo "ab: $side run of pair $pair failed" >&2
            exit 1
        }
    else
        (cd "$dir" && "$work/bench-$side" --workload "$workload" --seed "$arg") \
            >"$work/run.out" 2>"$work/run.err" || true
    fi
    printf '{"rev":"%s","side":"%s","pair":%d,"output":[%s]}\n' \
        "$rev" "$side" "$pair" "$(paste -s -d, "$work/run.out")"
}

: >"$work/session"
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then order="base work"; else order="work base"; fi
    for side in $order; do
        run "$side" "$i" >>"$work/session"
        tail -n 1 "$work/session"
    done
    i=$((i + 1))
done

echo "ab: judging $workload $arg" >&2
cd "$repo"
"$work/ahw_bench-work" --compare --file "$work/session" --report
