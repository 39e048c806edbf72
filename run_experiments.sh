#!/bin/sh
# Regenerates every paper table/figure at the default scale.
# Outputs land in results/. Every output depends only on its binary's
# arguments; the order only decides how much comes from the model cache
# and the search journal (exp_fig5 replays the table runs' Fig. 4 search).
set -e
BIN=target/release
# Propagate the worker-count knob explicitly (only when actually set — an
# exported empty string would parse as "serial") and record the effective
# configuration the pool resolved, so logs show what the run really used.
if [ -n "${AHW_THREADS:-}" ]; then export AHW_THREADS; fi
$BIN/ahw_info
$BIN/exp_fig2          | tee results/fig2.txt
$BIN/exp_table1 "$@"   | tee results/table1.txt
$BIN/exp_table2 "$@"   | tee results/table2.txt
$BIN/exp_fig5   "$@"   | tee results/fig5.txt
$BIN/exp_fig6   "$@"   | tee results/fig6.txt
$BIN/exp_table3 "$@"   | tee results/table3.txt
$BIN/exp_fig7   "$@"   | tee results/fig7.txt
$BIN/exp_fig8a  "$@"   | tee results/fig8a.txt
$BIN/exp_fig8bc "$@"   | tee results/fig8bc.txt
$BIN/exp_ablations "$@" | tee results/ablations.txt
echo "all experiments complete"
