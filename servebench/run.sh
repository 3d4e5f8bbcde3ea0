#!/usr/bin/env bash
# Builds servebench from the sources of the checkout it is run in, then runs
# it with the given arguments. Run from the repository root:
#
#   bash servebench/run.sh --workload chat-sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory (or $CARGO_TARGET_DIR when set): the Go build cache,
# the binary, spans and CPU profiles.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$root/servebench" build -o "$out/servebench" .
exec "$out/servebench" --out "$out/servebench-trace" "$@"
