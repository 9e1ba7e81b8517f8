#!/usr/bin/env bash
# Builds the served-path benchmark from source and runs it, passing every
# argument through:
#
#   bash perfbench/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The benchmark is a module of its own
# (perfbench/go.mod) that takes the xpathviews module from the parent
# directory, so it fails to build, and prints no result, anywhere the
# repository's sources are absent. Build outputs, the Go build cache,
# the compiler's temporary files and the traced run's spans all stay
# under .bench_build/ in the working directory, and the toolchain never
# reaches for the network.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
