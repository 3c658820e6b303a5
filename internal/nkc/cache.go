package nkc

import (
	"fmt"
	"sync"

	"eventnet/internal/flowtable"
)

// CacheStats reports compiler-cache effectiveness for one compilation run
// (summed across a worker pool by internal/ets).
type CacheStats struct {
	// TableHits/TableMisses count whole-configuration lookups keyed by
	// guard signature: a hit means a state's entire table set was reused
	// from an earlier state with the same projected policy.
	TableHits, TableMisses int64
	// SegmentHits/SegmentMisses count per-segment FDD lookups keyed by
	// (segment, guard signature): a hit means a link-free strand segment
	// skipped ToFDD entirely because no guard inside it changed. Only the
	// strands a state visits are looked up (all of them for a compiler's
	// reference state, those testing a flipped guard afterwards), so the
	// misses count distinct projections and the hits count visits.
	SegmentHits, SegmentMisses int64
	// TemplateHits/TemplateMisses count event-edge template lookups, one
	// per visited strand that can raise an event, keyed by (strand prefix
	// up to its last state-updating link, truth vector of its tests): a
	// miss is a Figure 6 walk, a hit reuses another state's or program's.
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

// Add merges per-worker stats into s: hit/miss counters are disjoint
// and sum, while Strands, FDDNodes, InternEntries, and the arena fields
// are per-context *store sizes* — worker contexts duplicate shared
// structure rather than partition it — so merging takes the largest
// store instead of summing duplicates.
func (s *CacheStats) Add(o CacheStats) {
	s.TableHits += o.TableHits
	s.TableMisses += o.TableMisses
	s.SegmentHits += o.SegmentHits
	s.SegmentMisses += o.SegmentMisses
	s.TemplateHits += o.TemplateHits
	s.TemplateMisses += o.TemplateMisses
	if o.Strands > s.Strands {
		s.Strands = o.Strands
	}
	if o.FDDNodes > s.FDDNodes {
		s.FDDNodes = o.FDDNodes
	}
	if o.InternEntries > s.InternEntries {
		s.InternEntries = o.InternEntries
	}
	if o.ArenaBytes > s.ArenaBytes {
		s.ArenaBytes = o.ArenaBytes
	}
	if o.ArenaHighWater > s.ArenaHighWater {
		s.ArenaHighWater = o.ArenaHighWater
	}
}

// String renders the stats compactly.
func (s CacheStats) String() string {
	return fmt.Sprintf("tables %d/%d hit, segments %d/%d hit, %d strands, %d fdd nodes, %d interned, %dKB arena",
		s.TableHits, s.TableHits+s.TableMisses,
		s.SegmentHits, s.SegmentHits+s.SegmentMisses,
		s.Strands, s.FDDNodes, s.InternEntries, s.ArenaBytes/1024)
}

// SharedCache is a concurrency-safe cache of compiled table sets, keyed
// by *interned* guard-signature id: the fork-shared Interner assigns one
// dense id per distinct signature, so cross-worker sharing costs one
// integer map lookup instead of hashing a signature string per state.
// One FDDCtx is single-goroutine by design; a pool of per-worker
// compilers instead shares results at the table level through this
// cache, which is the compiler-pool-safe layer of the incremental
// pipeline: workers publish immutable flowtable.Tables values and race
// only on sync.Map operations. A SharedCache is scoped to one
// (program, topology) pair — internal/ets creates a fresh one per build.
type SharedCache struct {
	tables sync.Map // interned guard-signature id (uint32) -> flowtable.Tables (immutable)
}

// NewSharedCache returns an empty shared cache.
func NewSharedCache() *SharedCache { return &SharedCache{} }

// lookup returns the cached tables for an interned signature id.
func (sc *SharedCache) lookup(sig uint32) (flowtable.Tables, bool) {
	v, ok := sc.tables.Load(sig)
	if !ok {
		return nil, false
	}
	return v.(flowtable.Tables), true
}

// publish stores tables for an interned signature id, returning the
// canonical value (the first publication wins, so concurrent workers
// converge on one shared instance).
func (sc *SharedCache) publish(sig uint32, t flowtable.Tables) flowtable.Tables {
	v, _ := sc.tables.LoadOrStore(sig, t)
	return v.(flowtable.Tables)
}

// Len returns the number of distinct configurations cached.
func (sc *SharedCache) Len() int {
	n := 0
	sc.tables.Range(func(any, any) bool { n++; return true })
	return n
}
