#!/usr/bin/env bash
# Builds the benchmark and the sttsimd daemon from this checkout, then runs
# the benchmark with the given flags. Run it from the repository root:
#
#   bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-smoke]
#
# Every build product and cache stays under .bench_build/, and the build
# never reaches the network.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPROXY=off GOFLAGS= GOTOOLCHAIN=local
(cd bench && go build -o "$build/bench" . && go build -o "$build/sttsimd" sttsim/cmd/sttsimd)
exec "$build/bench" -sttsimd "$build/sttsimd" "$@"
