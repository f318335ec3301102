#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json names this
# script as the command. Called from the root of a checkout as
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write — the Go build cache, the binary,
# the toolchain's own files, the deployments' journals and logs — goes under
# .bench_build in the checkout. Without the program under test beside it
# (the module one directory up) the build fails and so does this script.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/home"

(
	cd "$here"
	# HOME keeps the toolchain's telemetry and env files in the checkout;
	# GOTOOLCHAIN and GOPROXY keep it off the network.
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
		GOCACHE="$build/gocache" GOPATH="$build/gopath" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false \
		go build -o "$build/bench" .
)

cd "$root"
exec "$build/bench" "$@"
