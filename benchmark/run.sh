#!/usr/bin/env bash
# Builds the benchmark and the server from this checkout's source and runs
# the benchmark with the given arguments. Everything the build and the run
# write — Go's build cache and its telemetry counters included — stays
# under .bench_build/ in the checkout. `go run ./benchmark` works too; it
# only differs in using the user's Go build cache and config directory.
#
# Go's telemetry is switched off in that private config directory before
# the first `go` command: with a fresh directory the go command otherwise
# forks a detached telemetry sidecar that outlives a failed build.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d cmd/urbane-server ]; then
	echo "benchmark/run.sh: no go.mod or cmd/urbane-server here: not a checkout of the program" >&2
	exit 2
fi
mkdir -p .bench_build/gotmp .bench_build/config/go/telemetry
echo off > .bench_build/config/go/telemetry/mode
export GOCACHE="$PWD/.bench_build/gocache" GOMODCACHE="$PWD/.bench_build/gomod" GOTMPDIR="$PWD/.bench_build/gotmp"
export XDG_CONFIG_HOME="$PWD/.bench_build/config"
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
