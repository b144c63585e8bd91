#!/usr/bin/env bash
# Print the paper's tables and figures at --quick sizes, without the
# host wall-clock "took" lines, so the output is pure virtual time.
# BENCH_figures_quick.txt is this script's committed output; CI diffs a
# fresh run against it.
#
# Run from the repository root:
#   scripts/figures_quick.sh > BENCH_figures_quick.txt
set -euo pipefail

dune build bench/main.exe
_build/default/bench/main.exe --quick table1 fig2 fig3 table4 fig10 fig11 fig12 \
  fig13 fig14 fig15 fig16 fig17 ext chaos |
  grep -v 'took .* of host time'
