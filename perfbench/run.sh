#!/usr/bin/env bash
# Build bosec and the benchmark client from source (release profile, in
# a build directory of their own), then run one benchmark workload:
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 24 --trace 0
#
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout is the result JSON.
set -euo pipefail
mkdir -p .bench_build
build="$PWD/.bench_build/dune"
dune build --root . --build-dir "$build" --profile release --cache=disabled \
  ./bin/bosec.exe ./perfbench/bench.exe 1>&2
exec "$build/default/perfbench/bench.exe" --bosec "$build/default/bin/bosec.exe" "$@"
