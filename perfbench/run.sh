#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs one workload:
#
#   bash perfbench/run.sh --workload cold-50k --seed 1 --seconds 30 --trace 0
#
# Run it from the root of a mube checkout. Everything the Go toolchain writes
# (build cache, module cache, the binary) stays under .bench_build/ there.
# The last line of standard output is the JSON result; see README.md.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench/run.sh: run from the root of a mube checkout (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)

# The checkout may not be a git repository; then a digest of the Go sources
# stands in for the commit.
if [ -d .git ] && commit=$(git rev-parse --short=12 HEAD 2>/dev/null); then
	:
else
	commit="src-$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)"
fi
exec "$out/perfbench" "$@" -commit "$commit"
