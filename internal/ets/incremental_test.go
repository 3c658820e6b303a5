package ets

import (
	"reflect"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/nkc"
	"eventnet/internal/stateful"
)

// incrementalApps are the correctness set for the incremental engine: the
// five paper applications, the ring, and the scale workloads.
func incrementalApps() []apps.App {
	out := apps.All()
	out = append(out, apps.Ring(3), apps.WalledGarden(), apps.DistributedFirewall(), apps.IDSFatTree(4), apps.BandwidthCap(40))
	return out
}

// TestIncrementalMatchesFromScratch is the acceptance property for the
// delta path: on every reachable state of every application, the tables
// the incremental engine produced are byte-identical to those of a fresh
// one-state compiler walking the projected policy in full (nkc.Compile).
// That is sparse walk against full walk of one skeleton; the independent
// oracle is the relational property nkc.TestCompileFDDMatchesDNFOnApps,
// which holds delta-walked tables against CompileDNF and netkat.Eval.
func TestIncrementalMatchesFromScratch(t *testing.T) {
	for _, a := range incrementalApps() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			e, err := Build(a.Prog, a.Topo)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range e.Vertices {
				pc, err := nkc.NewProgramCompiler(stateful.Lift(stateful.Project(a.Prog.Cmd, v.State)), a.Topo, nil)
				if err != nil {
					t.Fatalf("state %v: from-scratch compiler: %v", v.State, err)
				}
				scratch, err := pc.Compile(nil)
				if err != nil {
					t.Fatalf("state %v: from-scratch compile: %v", v.State, err)
				}
				if got, want := v.Tables.String(), scratch.String(); got != want {
					t.Fatalf("state %v: incremental tables differ from a fresh full walk\nincremental:\n%s\nscratch:\n%s", v.State, got, want)
				}
			}
		})
	}
}

// TestIncrementalMatchesDNFRuleCounts: the incremental path agrees in
// exact rule count with the DNF oracle on the paper's five applications.
func TestIncrementalMatchesDNFRuleCounts(t *testing.T) {
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			e, err := Build(a.Prog, a.Topo)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range e.Vertices {
				pol := stateful.Project(a.Prog.Cmd, v.State)
				dnf, err := nkc.CompileDNF(pol, a.Topo)
				if err != nil {
					t.Fatalf("state %v: DNF compile: %v", v.State, err)
				}
				if got, want := v.Tables.TotalRules(), dnf.TotalRules(); got != want {
					t.Fatalf("state %v: %d rules incremental vs %d DNF", v.State, got, want)
				}
			}
		})
	}
}

// TestBuildDeterministic: building twice gives the same ETS — vertex
// numbering, tables, edges, and renamed events (no map iteration order
// reaches the output).
func TestBuildDeterministic(t *testing.T) {
	for _, a := range incrementalApps() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			ref, err := Build(a.Prog, a.Topo)
			if err != nil {
				t.Fatal(err)
			}
			e, err := Build(a.Prog, a.Topo)
			if err != nil {
				t.Fatal(err)
			}
			if e.String() != ref.String() {
				t.Fatalf("second build differs from the first\n%s\nvs\n%s", e.String(), ref.String())
			}
			if len(e.Vertices) != len(ref.Vertices) {
				t.Fatal("vertex count")
			}
			for i := range e.Vertices {
				if e.Vertices[i].Tables.String() != ref.Vertices[i].Tables.String() {
					t.Fatalf("tables of vertex %d differ", i)
				}
			}
		})
	}
}

// TestBuildStats: the stats of a build account exactly for the explored
// graph. On a fresh compiler every table miss assembles one table map and
// every hit hands out an earlier one, so the misses are the vertices'
// distinct maps; the cap chain's states below the cap differ in their
// guard truth values but not in their hops.
func TestBuildStats(t *testing.T) {
	a := apps.BandwidthCap(10)
	e, stats, err := BuildWithOptions(a.Prog, a.Topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.States != len(e.Vertices) || stats.Edges != len(e.Edges) || stats.Events != len(e.Events) {
		t.Fatalf("stats %v disagree with ETS shape %d/%d/%d", stats, len(e.Vertices), len(e.Edges), len(e.Events))
	}
	maps := map[uintptr]bool{}
	for _, v := range e.Vertices {
		maps[reflect.ValueOf(v.Tables).Pointer()] = true
	}
	if stats.Cache.TableMisses != int64(len(maps)) {
		t.Fatalf("%d table misses for %d distinct table maps", stats.Cache.TableMisses, len(maps))
	}
	if stats.Cache.TableHits+stats.Cache.TableMisses != int64(stats.States) {
		t.Fatalf("table lookups %d+%d do not cover %d states",
			stats.Cache.TableHits, stats.Cache.TableMisses, stats.States)
	}
}
