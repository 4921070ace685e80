#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds qserve and the harness from
# source into <checkout>/.bench_build (Go's build cache and temporary files
# included, so nothing is written outside the checkout) and runs the harness
# with the caller's arguments. Builds are incremental: after the first run
# they take ~1 s.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
go build -C "$root" -o "$build/bin/qserve" ./cmd/qserve
go build -C "$here" -o "$build/bin/bench" .
cd "$root"
exec "$build/bin/bench" -qserve "$build/bin/qserve" "$@"
