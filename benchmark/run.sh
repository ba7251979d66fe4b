#!/bin/bash
# Builds the benchmark from source and runs it with the given arguments from
# the checkout's root. Everything the build writes (binary, Go build cache,
# module cache, toolchain config) goes under .bench_build, so nothing is
# written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$root/benchmark"
	GOCACHE="$build/gocache" GOTMPDIR="$build" GOPATH="$build/gopath" \
		XDG_CONFIG_HOME="$build/config" GOWORK=off \
		go build -o "$build/colza-benchmark" .
)
cd "$root"
exec "$build/colza-benchmark" "$@"
