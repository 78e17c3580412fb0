#!/usr/bin/env bash
# Build the benchmark from source, then run it; arguments pass through to
# run.exe.  Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload churn-web --seed 3 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every build artefact inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . ./benchmark/run.exe 1>&2
exec ./_build/default/benchmark/run.exe "$@"
