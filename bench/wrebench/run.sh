#!/usr/bin/env bash
# Build wre_server and wrebench from this checkout, then run one workload:
#
#   bash bench/wrebench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Any other wrebench option passes through (see README.md). The build log
# goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/../.."

if [ ! -f dune-project ] || [ ! -f bin/wre_server.ml ] || [ ! -d lib ]; then
  echo "wrebench: run from a full checkout of the repository (dune-project, lib/, bin/)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi

dune build --root . bin/wre_server.exe bench/wrebench/wrebench.exe 1>&2
exec ./_build/default/bench/wrebench/wrebench.exe \
  --server ./_build/default/bin/wre_server.exe --out _wrebench "$@"
