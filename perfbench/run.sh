#!/usr/bin/env bash
# Build tmx and the benchmark from source, then run the benchmark:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run it from the repository root.  Build output goes to stderr so the
# last line of stdout stays the result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bin/tmx.ml ]; then
  echo "perfbench: run from the root of a tmx checkout (no dune-project, lib/ or bin/ here)" >&2
  exit 2
fi
dune build --root . ./perfbench/perfbench.exe ./bin/tmx.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
