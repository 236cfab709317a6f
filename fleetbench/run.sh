#!/usr/bin/env bash
# Builds fleetbench from the sources of the checkout it is run in, then
# runs it with the given arguments. Run from the repository root:
#
#   bash fleetbench/run.sh --workload bulk-direct --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): Go's build cache, its
# temporary files and the benchmark's model registries.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/serve" || ! -f "$root/fleetbench/go.mod" ]]; then
	echo "fleetbench: run from the root of a VARADE checkout (no sources found in $root)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out="$root/$out"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS= GOENV=off
(cd "$root/fleetbench" && go build -o "$out/fleetbench" .)
exec "$out/fleetbench" --workdir "$out" "$@"
