#!/usr/bin/env bash
# Byte-identity matrix over the seeded CLI and bench runs.  Each
# configuration runs under several variants -- a plain re-run, or other
# host domain counts -- and every variant's output is diffed against the
# first.  Virtual output must not depend on the
# host, so any difference is a determinism bug.
#
# Run from the repository root:  scripts/identity_matrix.sh
set -euo pipefail

dune build bench/main.exe bin/alloystack_cli.exe
bench=_build/default/bench/main.exe
cli=_build/default/bin/alloystack_cli.exe
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# same NAME FILE... : diff every FILE against the first one.
same() {
  local name=$1 first=$2
  shift 2
  for f in "$@"; do diff "$first" "$f"; done
  echo "identical: $name"
}

# Two identically seeded chaos batches; "took" lines are host wall clock.
for v in a b; do "$bench" chaos | grep -v took > "$out/chaos-$v.txt"; done
same "bench chaos" "$out"/chaos-{a,b}.txt

# --domains is a host scheduling knob only.
"$cli" serve -n 120 --domains 1 > "$out/serve-1.txt"
"$cli" serve -n 120 --domains 4 > "$out/serve-4.txt"
same "serve -n 120" "$out"/serve-{1,4}.txt

# The streamed 10^5-request leg with 1-in-64 sampled observability.
scale=(serve -n 100000 --qps 800 --sample-every 64)
"$cli" "${scale[@]}" --domains 1 > "$out/scale-1.txt"
"$cli" "${scale[@]}" --domains 4 > "$out/scale-4.txt"
same "serve -n 100000" "$out"/scale-{1,4}.txt

# A 10^4-virtual-second soak with a burn-rate SLO monitor.  The CLI
# exits non-zero if live heap words trend upward.  Its summary (minus
# wall-clock and export-path lines), the CSV timeseries and the
# Prometheus snapshot replay across a re-run; the exports also replay
# at 4 domains.
soak() { # soak TAG [FLAG...]
  local tag=$1
  shift
  "$cli" serve --soak --duration 10000 --qps 10 --sample-every 64 --slo steady:40:0.999 \
    --csv-out "$out/soak-$tag.csv" --prom-out "$out/soak-$tag.prom" "$@"
}
soak a | grep -vE "wall|timeseries:|prometheus:" > "$out/soak-a.txt"
soak b | grep -vE "wall|timeseries:|prometheus:" > "$out/soak-b.txt"
soak d4 --domains 4 > /dev/null
same "soak stdout" "$out"/soak-{a,b}.txt
same "soak csv" "$out"/soak-{a,b,d4}.csv
same "soak prometheus" "$out"/soak-{a,b,d4}.prom

# Tail attribution over a seeded open loop with spans on.
for v in a b; do "$cli" explain --tails -n 400 --qps 800 > "$out/tails-$v.txt"; done
same "explain --tails" "$out"/tails-{a,b}.txt
