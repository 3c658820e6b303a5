#!/usr/bin/env bash
# The performance gate (CI's bench-gate job; runs locally the same way):
#
#	scripts/benchgate.sh <base-ref>
#
# measures <base-ref> and the working tree with the committed benchmark and
# exits with `bench compare base head`, so the catalog's own per-metric
# bounds (bench/workloads.go) are the only thresholds there are. The base is
# checked out into a scratch clone under .bench_build/gate/; each side is
# measured with its own bench/ and netd, built from its own source. The two
# sides alternate (base, head, head, base) because the host's speed drifts
# over tens of minutes; a side's sets are concatenated and compare takes the
# median over them. A set is `bench -all`: every workload three times
# untraced and once traced at 20 s, about seven minutes, so a gate run takes
# about 30. A failed correctness check on either side fails the gate too.
# The rows stay in .bench_build/gate/{base,head}.ndjson (ledger format).
set -euo pipefail
base="${1:?usage: scripts/benchgate.sh <base-ref>}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sha="$(git -C "$root" rev-parse --verify "$base^{commit}")"
gate="$root/.bench_build/gate"
rm -rf "$gate"
mkdir -p "$gate"
trap 'rm -rf "$gate/base"' EXIT
git clone --quiet --no-checkout "$root" "$gate/base"
git -C "$gate/base" checkout --quiet --detach "$sha"

for side in base head head base; do
	tree="$root"
	[ "$side" = base ] && tree="$gate/base"
	echo "== benchgate: measuring $side ($tree) ==" >&2
	bash "$tree/bench/run.sh" -all >&2
	cat "$tree/bench/out/sets.ndjson" >>"$gate/$side.ndjson"
done
bash "$root/bench/run.sh" compare "$gate/base.ndjson" "$gate/head.ndjson"
