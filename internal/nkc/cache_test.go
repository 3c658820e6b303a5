package nkc

import (
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/stateful"
)

// TestProgramCompilerHitMissAccounting: compiling the same state twice is
// a whole-table hit; compiling a sibling state re-enters ToFDD only for
// segments whose guards flipped.
func TestProgramCompilerHitMissAccounting(t *testing.T) {
	a := apps.Firewall()
	pc, err := NewProgramCompiler(a.Prog.Cmd, a.Topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	s0 := stateful.State{0}
	s1 := stateful.State{1}

	if _, err := pc.Compile(s0); err != nil {
		t.Fatal(err)
	}
	st := pc.Stats()
	if st.TableMisses != 1 || st.TableHits != 0 {
		t.Fatalf("first compile: %+v", st)
	}
	// The first compile does real segment work; structurally repeated
	// segments (the identity segments around links, the shared pt<-2
	// suffix) may already hit, since the memo key is the segment's
	// canonical rendering, not its strand position.
	if st.SegmentMisses == 0 {
		t.Fatalf("first compile touched no segments: %+v", st)
	}

	if _, err := pc.Compile(s0); err != nil {
		t.Fatal(err)
	}
	st2 := pc.Stats()
	if st2.TableHits != 1 || st2.TableMisses != 1 {
		t.Fatalf("recompile of same state not a table hit: %+v", st2)
	}
	if st2.SegmentMisses != st.SegmentMisses {
		t.Fatal("table hit re-entered segment translation")
	}

	if _, err := pc.Compile(s1); err != nil {
		t.Fatal(err)
	}
	st3 := pc.Stats()
	if st3.TableMisses != 2 {
		t.Fatalf("sibling state should miss the table cache: %+v", st3)
	}
	if st3.SegmentHits == 0 {
		t.Fatalf("sibling state reused no segments: %+v", st3)
	}
	// The firewall's guards (state=0, state=1 under negation) both flip
	// between the two states, but guard-free segments (the incoming-path
	// prefix, the port rewrites) must not retranslate. At least as many
	// hits as misses is a conservative floor.
	if st3.SegmentHits < st3.SegmentMisses-st.SegmentMisses {
		t.Fatalf("delta compile retranslated more than it reused: %+v", st3)
	}
}

// TestCacheGrowthBound: the caches are eviction-free, so their only
// soundness risk is unbounded growth. Growth is bounded by the program's
// structural variety, not by the number of states compiled: on
// bandwidth-cap the segment memo, the strand cache, and the node store
// all stop growing after the first few states, and recompiling every
// state adds nothing.
func TestCacheGrowthBound(t *testing.T) {
	const cap = 40
	a := apps.BandwidthCap(cap)
	pc, err := NewProgramCompiler(a.Prog.Cmd, a.Topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	states, _, err := a.Prog.ReachableStates()
	if err != nil {
		t.Fatal(err)
	}
	var sizes []CacheStats
	for _, k := range states {
		if _, err := pc.Compile(k); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, pc.Stats())
	}
	// Growth is bounded by the program's structural variety — the
	// interior counter shape plus the two boundary shapes (initial and
	// cap-exhausted) — so the strand cache and node store sizes are small
	// constants independent of the cap, not O(states).
	last := sizes[len(sizes)-1]
	if last.Strands > 8 {
		t.Fatalf("strand cache grew with the state count: %d entries for %d states", last.Strands, len(states))
	}
	if last.FDDNodes > 64 {
		t.Fatalf("node store grew with the state count: %d nodes for %d states", last.FDDNodes, len(states))
	}
	// And the interior is fully shared: between the second state and the
	// second-to-last (all interior counter states) nothing new appears.
	if interiorBase, interiorLast := sizes[2], sizes[len(sizes)-2]; interiorLast.Strands != interiorBase.Strands ||
		interiorLast.FDDNodes != interiorBase.FDDNodes {
		t.Fatalf("interior states grew the caches: %+v -> %+v", interiorBase, interiorLast)
	}
	// Segment misses grow at most linearly with one new guard-sig per
	// state (each state flips one counter guard), never with the product
	// of states and segments.
	perState := float64(last.SegmentMisses) / float64(len(states))
	if perState > 4 {
		t.Fatalf("segment misses per state = %.1f; delta compilation is not incremental", perState)
	}
	// Recompiling everything is pure hits.
	before := pc.Stats()
	for _, k := range states {
		if _, err := pc.Compile(k); err != nil {
			t.Fatal(err)
		}
	}
	after := pc.Stats()
	if after.SegmentMisses != before.SegmentMisses || after.TableMisses != before.TableMisses ||
		after.Strands != before.Strands || after.FDDNodes != before.FDDNodes {
		t.Fatalf("recompilation grew a cache: before %+v after %+v", before, after)
	}
	if after.TableHits != before.TableHits+int64(len(states)) {
		t.Fatalf("recompilation was not all table hits: before %+v after %+v", before, after)
	}
}
