#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it with the given
# arguments. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload hot-topic --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run leave behind stays under
# .bench_build/ in the checkout: the Go build cache, the binary and the
# per-run data directories.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of the checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
export TMPDIR="$out/tmp"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
