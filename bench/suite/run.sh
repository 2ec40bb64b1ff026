#!/bin/sh
# Build hope_bench from source, then run it with the given arguments.
# Run from the repository root, e.g.
#
#   sh bench/suite/run.sh --workload phold-hope --seed 42 --seconds 20 --trace 0
#
# The build's own output goes to stderr, so the last line on stdout is
# the benchmark's result. Dune's shared cache is disabled so that the
# build writes nothing outside the checkout.
set -e
DUNE_CACHE=disabled dune build --root . --display quiet ./bench/suite/hope_bench.exe 1>&2
exec ./_build/default/bench/suite/hope_bench.exe "$@"
