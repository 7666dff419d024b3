#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it from the checkout's root:
#
#	bash perfbench/run.sh --workload synth --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and every scratch file stay under
# .bench_build in the checkout. Without the repository's sources next to
# it the build fails and the script exits non-zero without a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"

# Everything the go command writes goes under $build: no network, no
# toolchain switch, no telemetry or config outside the checkout.
(
	export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
	export HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOPATH="$build/home/go"
	export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
	cd "$here"
	go build -buildvcs=false -o "$build/perfbench" .
) >&2

cd "$root"
exec "$build/perfbench" "$@"
