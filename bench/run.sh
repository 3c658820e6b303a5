#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json "command"): builds bench and
# the netd it drives from source, keeping every build product and cache
# under .bench_build/ in the checkout, then runs bench with the arguments
# given. Build time is outside every metric.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local
(cd bench && go build -o "$build/bench" . && go build -o "$build/netd" eventnet/cmd/netd) >&2
if [ "${1:-}" = compare ]; then
	exec "$build/bench" "$@"
fi
exec "$build/bench" -netd "$build/netd" "$@"
