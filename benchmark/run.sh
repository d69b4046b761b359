#!/bin/sh
# Builds the benchmark program (run.exe) and the cmvrp_serve daemon from
# source with dune, then runs run.exe with this script's arguments.  Run it from
# the repository root:
#
#   sh benchmark/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr, so run.exe's JSON result stays the last
# line of stdout.  The dune cache is disabled so nothing is written
# outside the repository.
set -eu
DUNE_CACHE=disabled dune build --root . --display quiet \
  ./benchmark/run.exe ./bin/cmvrp_serve.exe 1>&2
exec ./_build/default/benchmark/run.exe "$@"
