#!/usr/bin/env bash
# Builds spserver and the benchmark from the checkout it is started in,
# then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload lookup --seed 1 --seconds 16 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the
# checkout: the Go caches, temporary files, binaries, the generated
# graph and the traced run's span file.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/spserver ]; then
	echo "perfbench: run from the root of a checkout that holds the program" >&2
	exit 1
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/run"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off CGO_ENABLED=0
# With telemetry on, a go command may start a detached sidecar process
# that outlives this script; "go telemetry off" itself starts none.
go telemetry off
go build -o "$out/bin/spserver" ./cmd/spserver >&2
go -C perfbench build -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" -spserver "$out/bin/spserver" -dir "$out/run" "$@"
