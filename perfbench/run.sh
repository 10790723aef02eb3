#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it:
#
#   bash perfbench/run.sh --workload reserve5 --seed 1 --seconds 10 --trace 0
#
# Run from the root of the checkout. The Go build cache, temporary
# files, the go command's own config (telemetry) and journals all stay
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out/tmp" "$@"
