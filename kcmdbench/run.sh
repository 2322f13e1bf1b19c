#!/usr/bin/env bash
# Builds the kcmd benchmark from source and runs it; arguments pass
# through, e.g.
#
#   bash kcmdbench/run.sh --workload small --seed 1 --seconds 30 --trace 0
#
# The build, the Go build cache, daemon state, span files and result
# records all stay under .bench_build/kcmdbench at the checkout root.
# Build output goes to standard error; the benchmark's result is the
# last line of standard output.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/kcmdbench"
mkdir -p "$out/tmp"

if ! command -v go >/dev/null 2>&1 && [ -x /usr/local/go/bin/go ]; then
	PATH="$PATH:/usr/local/go/bin"
fi
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/kcmdbench" && go build -o "$out/kcmdbench" .) >&2
cd "$root"
exec "$out/kcmdbench" --out "$out" "$@"
