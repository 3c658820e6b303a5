package ets_test

import (
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/ets"
	"eventnet/internal/flowtable"
	"eventnet/internal/nkc"
)

// assertSameETS compares two builds structurally (states, tables, edges,
// events).
func assertSameETS(t *testing.T, a, b *ets.ETS, ctx string) {
	t.Helper()
	if len(a.Vertices) != len(b.Vertices) || len(a.Edges) != len(b.Edges) || len(a.Events) != len(b.Events) {
		t.Fatalf("%s: shape differs: %d/%d/%d vs %d/%d/%d", ctx,
			len(a.Vertices), len(a.Edges), len(a.Events), len(b.Vertices), len(b.Edges), len(b.Events))
	}
	for i := range a.Vertices {
		if a.Vertices[i].State.Key() != b.Vertices[i].State.Key() {
			t.Fatalf("%s: vertex %d state %v vs %v", ctx, i, a.Vertices[i].State, b.Vertices[i].State)
		}
		if a.Vertices[i].Tables.String() != b.Vertices[i].Tables.String() {
			t.Fatalf("%s: vertex %d tables differ", ctx, i)
		}
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("%s: edge %d differs: %+v vs %+v", ctx, i, a.Edges[i], b.Edges[i])
		}
	}
}

// TestBuildWithProgramCache: the cross-generation compiler cache behind
// live swaps. A cached build is byte-identical to an uncached one; a
// rebuild of the same program compiles nothing; and a *revision* (cap 40
// -> cap 41) compiles as a delta — it re-enters ToFDD for strictly fewer
// segments than a cold build, because the structural segment memo is
// shared across programs.
func TestBuildWithProgramCache(t *testing.T) {
	cache := nkc.NewProgramCache()
	a := apps.BandwidthCap(40)

	cached, s1, err := ets.BuildWithOptions(a.Prog, a.Topo, ets.Options{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := ets.BuildWithOptions(a.Prog, a.Topo, ets.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertSameETS(t, plain, cached, "cached vs uncached")
	if s1.Cache.TableMisses == 0 {
		t.Fatalf("first cached build did no work: %+v", s1.Cache)
	}

	// Same program again: the swap-back path. Nothing recompiles.
	again, s2, err := ets.BuildWithOptions(a.Prog, a.Topo, ets.Options{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	assertSameETS(t, plain, again, "rebuild")
	if s2.Cache.TableMisses != 0 || s2.Cache.SegmentMisses != 0 {
		t.Fatalf("rebuild recompiled: %+v", s2.Cache)
	}

	// A revision: cap 41 shares every counter segment up to 40 with the
	// cached program, so warm segment misses are strictly fewer than cold.
	b := apps.BandwidthCap(41)
	if warm, s3, err := ets.BuildWithOptions(b.Prog, b.Topo, ets.Options{Workers: 1, Cache: cache}); err != nil {
		t.Fatal(err)
	} else {
		cold := nkc.NewProgramCache()
		alone, s4, err := ets.BuildWithOptions(b.Prog, b.Topo, ets.Options{Workers: 1, Cache: cold})
		if err != nil {
			t.Fatal(err)
		}
		if s3.Cache.SegmentMisses >= s4.Cache.SegmentMisses {
			t.Fatalf("revision did not compile as a delta: warm %d misses, cold %d", s3.Cache.SegmentMisses, s4.Cache.SegmentMisses)
		}
		// The revision holds the very tables the cached program compiled
		// for the switches they agree on; what it holds must still be what
		// it compiles to alone.
		assertSameETS(t, alone, warm, "revision after its predecessor vs alone")
		held := map[*flowtable.Table]bool{}
		for _, v := range cached.Vertices {
			for _, tbl := range v.Tables {
				held[tbl] = true
			}
		}
		shared := 0
		for _, v := range warm.Vertices {
			for _, tbl := range v.Tables {
				if held[tbl] {
					shared++
				}
			}
		}
		if shared == 0 {
			t.Fatal("the revision shares no table with its predecessor; the comparison above is vacuous")
		}
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d programs, want 2", cache.Len())
	}

	// Multi-worker cached builds stay deterministic.
	multi, _, err := ets.BuildWithOptions(a.Prog, a.Topo, ets.Options{Workers: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	assertSameETS(t, plain, multi, "cached 4-worker")
}
