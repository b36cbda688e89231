#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Everything the build leaves behind — the Go build
# cache and the binary — stays under .bench_build/ at the root of the
# checkout, so a run reads and writes nothing outside it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off

go build -C "$here" -o "$build/ac3benchmark" .
exec "$build/ac3benchmark" "$@"
