#!/bin/sh
# Builds the benchmark harness from this checkout and runs one workload:
#
#   sh bench/run.sh --workload registry-cold --seed 1998 --seconds 15 --trace 0
#
# Every build product, the Go build cache and all scratch files stay under
# .bench_build/ at the root of the checkout. Without the capsim sources next
# to bench/ the build fails and the script exits non-zero without a result.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The go command's cache, module path and configuration (where it keeps
# its telemetry counters) all point into the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
