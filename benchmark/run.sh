#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Run from the
# repository root; every argument goes to the benchmark (see main.go).
# Everything the build and the run leave behind stays under .bench_build:
# the Go caches are pointed there so that nothing outside the checkout is
# written, and the benchmark builds cmd/nvserver there itself.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
(cd benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
