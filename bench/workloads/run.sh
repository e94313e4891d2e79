#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root;
# every argument goes to run.exe.  The build stays inside this checkout:
# --root pins the dune workspace to it and the shared dune cache is off.
set -euo pipefail
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ]; then
  echo "run.sh: $(pwd) is not a checkout of the repository (no dune-project)" >&2
  exit 2
fi
exec dune exec --root . --cache=disabled --display=quiet bench/workloads/run.exe -- "$@"
