#!/usr/bin/env bash
# Build flowtrace and the load benchmark from this checkout, then run one
# benchmark pass:
#   bash loadbench/run.sh --workload hot --seed 1 --seconds 10 --trace 0
# Run from the root of a flowtrace checkout.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib/service ] || [ ! -d bin ]; then
  echo "loadbench: run from the root of a flowtrace checkout" >&2
  exit 2
fi
# the shared dune cache lives outside the checkout; build without it
DUNE_CACHE=disabled dune build --root . ./bin/flowtrace.exe ./loadbench/main.exe >&2
exec ./_build/default/loadbench/main.exe --flowtrace "$PWD/_build/default/bin/flowtrace.exe" "$@"
