#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout
# this script is in, and runs it from there with the given arguments.
# Everything the build and the run write, Go's build cache included, stays
# inside .bench_build/. Go's telemetry is switched off in a config
# directory of the build's own: otherwise the first `go` command in a fresh
# checkout starts an uploader process that it does not wait for, and that
# outlives a run that fails fast.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: the program's source (go.mod, internal/) is not in $PWD" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
bin="$build/benchmark"
if [ ! -x "$bin" ] || [ -n "$(find go.mod benchmark internal -newer "$bin" \( -name '*.go' -o -name '*.ddl' -o -name go.mod \) -print -quit)" ]; then
	go build -o "$bin" ./benchmark >&2
fi
exec "$bin" "$@"
