package nkc

import (
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/flowtable"
	"eventnet/internal/stateful"
)

// compileAllApps is the correctness set for the interned compile path:
// the five paper applications, the ring, and the scale-family workloads
// at test-sized parameters (same shapes as the cap-2000 and 125-switch
// benchmarks, smaller counters).
func compileAllApps() []apps.App {
	out := apps.All()
	out = append(out, apps.Ring(3), apps.IDSFatTree(4), apps.BandwidthCap(40))
	return out
}

// TestCompileAllDeterministicAcrossWorkers: CompileAll's worker count is
// accepted and ignored (bench/ names it), so the tables are the same
// whatever is passed. The test and the parameter go together.
func TestCompileAllDeterministicAcrossWorkers(t *testing.T) {
	for _, a := range compileAllApps() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			states, _, err := a.Prog.ReachableStates()
			if err != nil {
				t.Fatal(err)
			}
			var ref []flowtable.Tables
			for _, workers := range []int{1, 8} {
				pc, err := NewProgramCompiler(a.Prog.Cmd, a.Topo, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := pc.CompileAll(states, workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if ref == nil {
					ref = got
				}
				for i := range states {
					if got[i].String() != ref[i].String() {
						t.Fatalf("workers=%d: state %v tables differ\ngot:\n%s\nwant:\n%s",
							workers, states[i], got[i].String(), ref[i].String())
					}
				}
			}
		})
	}
}

// TestProgramCacheMatchesScratchAndDNF pins the full interned path — a
// ProgramCache's persistent FDD context, arena, dense interners, and
// structural segment memo, shared across two builds of the same program —
// to a full walk and to the oracle: on every reachable state of every
// application the cached compiler's tables are byte-equal to those of a
// fresh one-state compiler (Compile of the projection: a full walk, no
// cross-state or cross-build sharing) and, on the five paper
// applications, rule-count-equal to CompileDNF. (Off the paper set the
// diagrams can be strictly more compact — ring-3's hash-consed paths
// merge a rule the DNF normal form keeps — so the count oracle matches
// the scope of TestIncrementalMatchesDNFRuleCounts.)
func TestProgramCacheMatchesScratchAndDNF(t *testing.T) {
	paperApps := map[string]bool{}
	for _, a := range apps.All() {
		paperApps[a.Name] = true
	}
	cache := NewProgramCache()
	for _, a := range compileAllApps() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			states, _, err := a.Prog.ReachableStates()
			if err != nil {
				t.Fatal(err)
			}
			// Two passes through the cache: the second resolves entirely from
			// the interned memos and must reproduce the first byte-for-byte.
			for pass := 0; pass < 2; pass++ {
				root, err := cache.Acquire(a.Prog.Cmd, a.Topo)
				if err != nil {
					t.Fatal(err)
				}
				tables, err := root.CompileAll(states, 1)
				cache.Release()
				if err != nil {
					t.Fatal(err)
				}
				for i, k := range states {
					pol := stateful.Project(a.Prog.Cmd, k)
					scratch, err := Compile(pol, a.Topo)
					if err != nil {
						t.Fatalf("state %v: scratch: %v", k, err)
					}
					if tables[i].String() != scratch.String() {
						t.Fatalf("pass %d state %v: cached tables differ from a fresh full walk\ncached:\n%s\nscratch:\n%s",
							pass, k, tables[i].String(), scratch.String())
					}
					if paperApps[a.Name] {
						dnf, err := CompileDNF(pol, a.Topo)
						if err != nil {
							t.Fatalf("state %v: DNF: %v", k, err)
						}
						if got, want := tables[i].TotalRules(), dnf.TotalRules(); got != want {
							t.Fatalf("pass %d state %v: %d rules interned vs %d DNF", pass, k, got, want)
						}
					}
				}
			}
		})
	}
}
