// Package dataplane is the high-throughput packet-forwarding engine: it
// *compiles* each switch's prioritized flow table (flowtable.Table) into
// one flat, indexed form instead of scanning it rule by rule, and forwards
// traffic through that form on a sharded, deterministic worker engine that
// carries the version-tag and event-digest semantics of Section 4.1 of the
// paper on the fast path.
//
// The layers, bottom up:
//
//   - Schema (schema.go): a per-program Schema interns every header field
//     the program can test or write to a dense integer; the engine's
//     packets become fixed-width []int32 value arrays with a presence
//     bitmap — in-place field writes, no maps or strings on the hop loop,
//     conversion exactly once at delivery and at ingress, where every
//     entry point fills a flat Batch that admit interns (ingress.go).
//   - Compiled table (flat.go): one switch's table, lowered from its
//     rules' Match and Groups maps to (fieldIdx, value) arrays and
//     indexed per in-port by an exact-match hash over the discriminating
//     header fields, with a rank-merged fallback list for
//     wildcard/exclusion rules; each candidate's version guard is checked
//     with its other literals. Lookup is
//     O(1)+verification instead of O(rules). This is the only compiled
//     form; flowtable.Table's linear scan is the reference it is tested
//     against, and what the proof machinery (runtime, sim, the trace
//     oracle) forwards with.
//   - Plan (plan.go): every (configuration, switch) table of an NES
//     compiled against the program's schema, whole, each distinct table
//     once. MergedPair builds a swap's staged-install shape — both
//     programs' rules behind exact version guards — for accounting and
//     tests; the engine forwards through per-configuration plans.
//   - Engine (engine.go; the hop in hop.go, swaps in swap.go, the
//     delivery log in deliveries.go, served mode in serve.go): per-switch
//     forwarding workers fed by ring-buffer queues, processing packets in
//     deterministic bulk-synchronous generations. Switches keep local
//     event views, react to locally detected events immediately, and
//     gossip digests on every emitted packet, so ETS transitions remain
//     event-driven consistent under concurrent load.
//   - LoadGen (loadgen.go): a deterministic line-rate traffic source for
//     the benchmark (bench/), the chaos audit and the package benchmarks.
//
// See docs/DATAPLANE.md for the compilation scheme, the batch/worker
// architecture, and why fast-path tag+digest handling preserves the
// paper's Theorem 1.
package dataplane

import (
	"eventnet/internal/flowtable"
	"eventnet/internal/netkat"
)

// Scan is the reference view of one switch's table: flowtable.Table's
// priority-ordered linear scan, one Match.Matches call per rule. It is
// what Plan.Matcher returns and what the compiled table is compared with.
// The zero value (no table) drops every packet.
type Scan struct{ Table *flowtable.Table }

// Process applies the winning rule's action groups, appending the emitted
// copies to dst (untouched when no rule matches: default drop).
func (s Scan) Process(dst []flowtable.Output, pkt netkat.Packet, inPort int, tag uint32) []flowtable.Output {
	return s.Table.AppendProcess(dst, pkt, inPort, tag)
}
