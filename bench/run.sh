#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source inside
# the checkout and runs it with the arguments given. Everything the build and
# the run write — Go build cache, temp files, durable-plane state directories,
# the binary — stays under .bench_build/ in the checkout (traces go to
# bench/out/). Outside a checkout of the whole repository the build fails
# (bench/go.mod replaces module rmtk with ../) and so does this script.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$build/rmtk-bench" .)

cd "$root"
exec "$build/rmtk-bench" "$@"
