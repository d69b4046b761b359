#!/bin/sh
# Records one trajectory point of the source tree SRC (a clean copy of
# one revision from git archive, in a directory named after the commit)
# as bench/trajectory/BENCH_prN.json of this repository.  Run it from the
# repository root:
#
#   sh bench/trajectory/record.sh SRC N
#
# In SRC it builds the tree, runs the quick bench suite, and runs each
# benchmark/ workload untraced three times (--seed 1 --seconds 10) for
# the end-to-end metrics, whose medians the point keeps, and traced once
# (--seed 3) for the per-layer metrics.  It takes about four minutes.
# This repository's bench/trajectory/point.exe then merges the results.
# The revision string names the PR, SRC's directory (the commit), the
# CPU model and nproc.  Run nothing else on the machine
# meanwhile: the wall-clock numbers are what the point records.
set -eu
src=$1
n=$2
here=$(pwd)
out="$here/bench/trajectory/BENCH_pr$n.json"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
DUNE_CACHE=disabled dune build --root . --display quiet \
  ./bench/trajectory/point.exe 1>&2
cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1)
revision="pr$n $(basename "$src") | $cpu | nproc $(nproc)"
cd "$src"
DUNE_CACHE=disabled dune build --root . --display quiet \
  ./bench/main.exe ./benchmark/run.exe ./bin/cmvrp_serve.exe 1>&2
./_build/default/bench/main.exe --quick --json "$work/quick.json" \
  --revision "$revision" >/dev/null
for w in serve-hot serve-cold stream-churn fleet-50k; do
  for run in 1 2 3; do
    sh benchmark/run.sh --workload "$w" --seed 1 --seconds 10 --trace 0 \
      | tail -n 1 >>"$work/$w.trace0"
  done
  sh benchmark/run.sh --workload "$w" --seed 3 --trace 1 \
    | tail -n 1 >"$work/$w.trace1"
done
cd "$here"
./_build/default/bench/trajectory/point.exe "$revision" "$work/quick.json" \
  "$work" "$out"
echo "$out"
