#!/usr/bin/env bash
# Build driveperf and the end-to-end bench from this checkout, then run
# the bench against that driveperf; all arguments pass through, e.g.
#   bash bench/e2e/run.sh --workload report_seq --seed 1 --seconds 10 --trace 0
# Run it from the repository root.
set -euo pipefail
dune build --root . bin/driveperf.exe bench/e2e/driveperf_bench.exe >&2
exec ./_build/default/bench/e2e/driveperf_bench.exe \
  --driveperf ./_build/default/bin/driveperf.exe "$@"
