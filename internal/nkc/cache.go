package nkc

import "fmt"

// CacheStats reports compiler-cache effectiveness for one compilation run.
type CacheStats struct {
	// TableHits/TableMisses count whole-configuration lookups keyed by
	// guard signature: a hit means a state's entire table set was reused
	// from an earlier state with the same projected policy.
	TableHits, TableMisses int64
	// SegmentHits/SegmentMisses count per-segment FDD lookups keyed by
	// (segment shape, truth vector over its state tests): a hit means a
	// link-free strand segment skipped ToFDD entirely because a segment of
	// the same shape was translated under the same truth vector. Only the
	// strands a state visits are looked up (all of them for a compiler's
	// reference state, those testing a flipped guard afterwards), so the
	// misses count distinct projections and the hits count visits.
	SegmentHits, SegmentMisses int64
	// TemplateHits/TemplateMisses count Figure 6 walk lookups, one per
	// visited strand that can raise an event, keyed by (shapes of the
	// strand's segments up to its last state-updating link, truth vector
	// over their state tests): a miss is a Figure 6 walk, a hit reuses the
	// test conjunctions of another strand's, state's or program's walk.
	TemplateHits, TemplateMisses int64
	// Strands is the number of distinct symbolic strand executions
	// performed (the hop-cache population); FDDNodes is the hash-consed
	// node-store size. Both grow monotonically and are bounded by the
	// program's structural variety, not by the number of states compiled —
	// the eviction-free growth bound checked by the cache tests.
	Strands  int64
	FDDNodes int64
	// InternEntries is the total interner population backing the
	// compiler's int-keyed caches: guard signatures, segment keys, and
	// per-context field/action atoms. ArenaBytes is the slab memory
	// reserved by the FDD node arena; ArenaHighWater is the largest
	// arena seen (across cache generations, when a ProgramCache resets
	// wholesale). All three are store sizes, not counters.
	InternEntries  int64
	ArenaBytes     int64
	ArenaHighWater int64
}

// String renders the stats compactly.
func (s CacheStats) String() string {
	return fmt.Sprintf("tables %d/%d hit, segments %d/%d hit, %d strands, %d fdd nodes, %d interned, %dKB arena",
		s.TableHits, s.TableHits+s.TableMisses,
		s.SegmentHits, s.SegmentHits+s.SegmentMisses,
		s.Strands, s.FDDNodes, s.InternEntries, s.ArenaBytes/1024)
}
