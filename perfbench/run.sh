#!/usr/bin/env bash
# Builds the benchmark driver from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload census-cold --seed 1 --seconds 20 --trace 0
# Run from the repository root. Every build artefact (the binary, the Go
# build cache, temporary files) and the span files of traced runs stay
# under .bench_build/ (or $CARGO_TARGET_DIR when set).
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off \
	GOPROXY=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -spans-dir "$out/spans" "$@"
