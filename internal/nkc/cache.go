package nkc

import "fmt"

// CacheStats reports compiler-cache effectiveness for one compilation run.
type CacheStats struct {
	// TableHits/TableMisses count whole-configuration lookups, one per
	// state, keyed by its spliced hop list: a hit means a state's entire
	// table set was reused from an earlier state, of any program on the
	// FDD context, with the same hops.
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
	// compiler's int-keyed caches: segment shapes, strand prefixes, truth
	// vectors too long to pack inline, and per-context field/action atoms.
	// ArenaBytes is what the FDD node arena's chunks reserve (they double
	// from 64 nodes up to 4096); ArenaHighWater is the largest arena seen
	// across cache generations, when a ProgramCache resets wholesale. All
	// are store sizes, not counters.
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
