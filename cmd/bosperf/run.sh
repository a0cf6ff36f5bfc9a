#!/usr/bin/env bash
# Builds bosperf from source into .bench_build/ and runs it with the given
# arguments. Run from the repository root, for example:
#
#   bash cmd/bosperf/run.sh --workload scan_hot --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the run's data all stay under
# .bench_build/ in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off CGO_ENABLED=0
(cd cmd/bosperf && go build -buildvcs=false -o "$out/bosperf" .)
exec "$out/bosperf" -dir "$out" "$@"
