#!/usr/bin/env bash
# Re-derives the exhaustive state count of robust PQ at drop budget 1
# with states keyed on full values. It copies the repository's sources
# to a temporary directory, widens sim.AppendBinary's array key there
# from elements 0-8 (arrayHeadElems) to whole arrays, builds protocheck
# and runs
#
#	protocheck -robust -drops 1 -states 1500000 -mem-budget 64 -json
#
# printing the stored state count (702861; the unwidened tree stores
# 678661). The working tree is never modified. Run from anywhere:
#
#	bash perfbench/widen_key.sh
#
# Set TMPDIR to choose where the copy goes; it is removed at exit.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
work="$(mktemp -d "${TMPDIR:-/tmp}/widen-key.XXXXXX")"
trap 'rm -rf "$work"' EXIT

# Copy the sources only: no VCS data, no build products.
tar -C "$root" --exclude=./.git --exclude=./.bench_build -cf - . | tar -C "$work" -xf -

key="$work/internal/sim/binary.go"
grep -q '^const arrayHeadElems = 9$' "$key" || { echo "widen_key: arrayHeadElems = 9 not found in $key" >&2; exit 1; }
sed -i 's/^const arrayHeadElems = 9$/const arrayHeadElems = 1 << 30/' "$key"

export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
mkdir -p "$work/spill"
(cd "$work" && go build -o "$work/protocheck" ./cmd/protocheck)
# protocheck exits 1 when it finds violations (robust PQ has four at
# drop 1); the JSON report is complete either way.
status=0
(cd "$work" && ./protocheck -robust -drops 1 -states 1500000 -mem-budget 64 -spill "$work/spill" -json) > "$work/out.json" || status=$?
if [ "$status" -gt 1 ]; then
	echo "widen_key: protocheck failed with status $status" >&2
	exit "$status"
fi
states="$(sed -n 's/^ *"states": \([0-9]*\),$/\1/p' "$work/out.json" | head -n 1)"
if [ -z "$states" ]; then
	echo "widen_key: no state count in the report" >&2
	exit 1
fi
echo "robust PQ, drop budget 1, full-value key: $states states"
