#!/usr/bin/env sh
# Interleaved A/B runs of one benchmark workload: a committed base tree
# (default HEAD~1) against the working tree, built the same way and run
# alternately, so host drift lands on both sides alike.
#
# Usage: scripts/ab.sh WORKLOAD SEED PAIRS [BASE]
#
# Each pair runs both sides once; odd pairs run the base first, even pairs
# the working tree. Every run prints its golden check, `correct`, `failed`
# and the benchmark's end-to-end metrics; the summary prints each side's
# median and quartiles per metric and how many pairs the working tree won
# (every end-to-end metric is lower-is-better), then one verdict per metric
# by the benchmark's own rule, with the metric's `bound` read from
# BENCHMARK.json:
#   gain        the working tree won at least 9 in 10 pairs and its median
#               is below the base median by more than the base IQR
#   worse       the working-tree median is above the base median by more
#               than the bound
#   unresolved  the base IQR is wider than the bound
#   same        otherwise
# Under the verdicts it prints each side's median of the host evidence the
# benchmark's context line carries (`host.fma_gflops`, `host.stream_gbps`,
# `host.steal_frac`), so a shift in the host between the two sides shows
# next to the verdicts; they are never judged.
# Exits 1 if any run was not `golden: match`, `correct: true`, `failed: 0`.
#
# Both sides run for the benchmark's own default length, so A/B runs time
# the same section the benchmark does.
#
# Nothing is written inside the repository: the base checkout, both cargo
# target directories and the run logs live in a scratch directory.
#
# AB_WORK (optional) names a scratch directory to build in and keep, so a
# later call rebuilds incrementally (default: a fresh temporary directory,
# removed on exit).
set -eu

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 WORKLOAD SEED PAIRS [BASE]" >&2
    exit 2
fi
workload=$1
seed=$2
pairs=$3
base=${4:-HEAD~1}
repo=$(cd "$(dirname "$0")/.." && pwd)

if [ -n "${AB_WORK:-}" ]; then
    work=$AB_WORK
    mkdir -p "$work"
else
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
    trap 'exit 130' INT TERM
fi

rev=$(git -C "$repo" rev-parse --short "$base")
rm -rf "$work/base"
mkdir -p "$work/base"
git -C "$repo" archive "$base" | tar -x -C "$work/base"

# Build from inside each checkout so both pick up their own
# .cargo/config.toml, into target directories outside the repository.
build() {
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release --offline -q \
        --manifest-path benchmark/Cargo.toml)
}
echo "ab: building base $rev and the working tree in $work" >&2
build "$work/base" "$work/target-base"
build "$repo" "$work/target-work"
for side in base work; do
    cp "$work/target-$side/release/ahw-benchmark" "$work/bench-$side"
done

# One run: prints a row `side pair golden correct failed name=value...`,
# the host evidence last.
run() {
    side=$1
    pair=$2
    if [ "$side" = base ]; then dir=$work/base; else dir=$repo; fi
    (cd "$dir" && "$work/bench-$side" --workload "$workload" --seed "$seed") \
        >"$work/run.out" 2>"$work/run.err" || true
    awk -v side="$side" -v pair="$pair" '
        function field(line, re,    s) {
            if (!match(line, re)) return "?"
            s = substr(line, RSTART, RLENGTH)
            sub(/^"[a-z_.]*": *"?/, "", s)
            sub(/"$/, "", s)
            return s
        }
        /"context"/ {
            golden = field($0, "\"golden\": \"[^\"]*\"")
            host = ""
            n = split("fma_gflops stream_gbps steal_frac", evidence, " ")
            for (i = 1; i <= n; i++) {
                name = "host." evidence[i]
                host = host " " name "=" field($0, "\"" name "\": \"[^\"]*\"")
            }
        }
        /"metrics"/ {
            correct = field($0, "\"correct\": [a-z]*")
            failed = field($0, "\"failed\": [0-9]*")
            rest = $0
            metrics = ""
            while (match(rest, /"[a-z0-9_]*": \{"value": [^,}]*/)) {
                m = substr(rest, RSTART, RLENGTH)
                rest = substr(rest, RSTART + RLENGTH)
                name = m
                sub(/^"/, "", name)
                sub(/".*/, "", name)
                value = m
                sub(/.*"value": */, "", value)
                metrics = metrics " " name "=" value
            }
        }
        END {
            if (golden == "") golden = "?"
            if (correct == "") correct = "?"
            if (failed == "") failed = "?"
            print side, pair, golden, correct, failed metrics host
        }' "$work/run.out"
}

: >"$work/rows"
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then order="base work"; else order="work base"; fi
    for side in $order; do
        run "$side" "$i" | tee -a "$work/rows"
    done
    i=$((i + 1))
done

# `name=bound` per end-to-end metric, the bound a fraction of the base
# median.
bounds=$(awk '/"bound"/ {
    if (!match($0, /"name": *"[^"]*"/)) next
    name = substr($0, RSTART, RLENGTH)
    sub(/^"name": *"/, "", name)
    sub(/"$/, "", name)
    if (!match($0, /"bound": *[0-9.]+/)) next
    bound = substr($0, RSTART, RLENGTH)
    sub(/^"bound": */, "", bound)
    printf "%s=%s ", name, bound
}' "$repo/BENCHMARK.json")

awk -v workload="$workload" -v seed="$seed" -v rev="$rev" -v bounds="$bounds" '
    BEGIN {
        nb = split(bounds, entry, " ")
        for (i = 1; i <= nb; i++) {
            split(entry[i], kv, "=")
            bound[kv[1]] = kv[2]
        }
    }
    # the verdict on metric m, followed by the numbers it rests on
    function judge(m, won, pairs, base, q1, q3, work,    v, iqr) {
        if (!(m in bound) || base <= 0) return "-          (no bound or base median)"
        iqr = q3 - q1
        if (won * 10 >= 9 * pairs && base - work > iqr) v = "gain"
        else if (work - base > bound[m] * base) v = "worse"
        else if (iqr > bound[m] * base) v = "unresolved"
        else v = "same"
        return sprintf("%-10s (%+.1f%%, IQR %.1f%%, bound %.0f%%, won %d/%d)", v,
            100 * (work - base) / base, 100 * iqr / base, 100 * bound[m], won, pairs)
    }
    # quantile q of the n values in v[1..n] (sorted in place)
    function quantile(v, n, q,    i, j, t, h, lo) {
        for (i = 2; i <= n; i++) {
            t = v[i]
            for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
            v[j + 1] = t
        }
        h = (n - 1) * q + 1
        lo = int(h)
        if (lo >= n) return v[n]
        return v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    {
        side = $1
        pair = $2
        if ($3 != "match" || $4 != "true" || $5 != "0") bad++
        for (f = 6; f <= NF; f++) {
            split($f, kv, "=")
            if (kv[1] ~ /^host\./) {
                if (!(kv[1] in hseen)) {
                    hseen[kv[1]] = 1
                    hnames[++nhost] = kv[1]
                }
                hval[side, kv[1], pair] = kv[2]
                continue
            }
            if (!(kv[1] in seen)) {
                seen[kv[1]] = 1
                names[++nnames] = kv[1]
            }
            val[side, kv[1], pair] = kv[2]
        }
        if (pair > npairs) npairs = pair
    }
    END {
        printf "\nab: %s seed %s, base %s vs working tree, %d pairs\n", workload, seed, rev, npairs
        printf "%-12s %12s %12s %12s %12s %12s %12s %8s\n", "metric", "base_p50", "base_q1", "base_q3", "work_p50", "work_q1", "work_q3", "work_won"
        for (k = 1; k <= nnames; k++) {
            m = names[k]
            won = 0
            for (p = 1; p <= npairs; p++)
                if ((("work", m, p) in val) && (("base", m, p) in val) \
                    && val["work", m, p] + 0 < val["base", m, p] + 0) won++
            for (s = 1; s <= 2; s++) {
                side = (s == 1) ? "base" : "work"
                n = 0
                for (p = 1; p <= npairs; p++)
                    if ((side, m, p) in val) v[++n] = val[side, m, p] + 0
                med[side] = n ? quantile(v, n, 0.5) : "nan"
                q1[side] = n ? quantile(v, n, 0.25) : "nan"
                q3[side] = n ? quantile(v, n, 0.75) : "nan"
            }
            printf "%-12s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %5d/%d\n", m, med["base"], q1["base"], q3["base"], med["work"], q1["work"], q3["work"], won, npairs
            verdict[m] = judge(m, won, npairs, med["base"], q1["base"], q3["base"], med["work"])
        }
        printf "\n%-12s %-10s %s\n", "metric", "verdict", "(median change, base IQR and bound as % of the base median)"
        for (k = 1; k <= nnames; k++) printf "%-12s %s\n", names[k], verdict[names[k]]
        printf "\n%-16s %12s %12s   %s\n", "host evidence", "base_p50", "work_p50", "(medians; not judged)"
        for (k = 1; k <= nhost; k++) {
            m = hnames[k]
            for (s = 1; s <= 2; s++) {
                side = (s == 1) ? "base" : "work"
                n = 0
                for (p = 1; p <= npairs; p++)
                    if (((side, m, p) in hval) && hval[side, m, p] != "?") v[++n] = hval[side, m, p] + 0
                med[side] = n ? sprintf("%12.6g", quantile(v, n, 0.5)) : sprintf("%12s", "?")
            }
            printf "%-16s %s %s\n", m, med["base"], med["work"]
        }
        if (bad) {
            printf "ab: %d run(s) not golden match / correct / failed 0\n", bad
            exit 1
        }
    }' "$work/rows"
