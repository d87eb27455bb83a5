#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with the
# given arguments, from the root of a checkout of the repository:
#
#   bash perfbench/run.sh --workload push --seed 1 --seconds 15 --trace 0
#
# Every file the build writes stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	GOPATH="$out/gopath" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --dir "$out" "$@"
