#!/usr/bin/env bash
# Builds the hwstar wall-clock benchmark from the source tree it sits in and
# runs it. Every build and run artifact stays under .bench_build in the
# directory this is started from (the root of a hwstar checkout):
#
#   bash perfbench/run.sh --workload scan-uniform --seed 1 --seconds 10 --trace 0
#
# The last line of standard output is the JSON result; progress goes to
# standard error.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a hwstar checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -workdir "$build" "$@"
