package ctrl_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/ctrl"
	"eventnet/internal/dataplane"
	"eventnet/internal/nes"
	"eventnet/internal/stateful"
	"eventnet/internal/syntax"
	"eventnet/internal/topo"
)

// TestStagedRulesMatchMergedPair: the controller accounts for the staged
// install by arithmetic (both programs' rule counts, the old program's
// configuration count); the numbers it reports must be those of the
// staged tables a deployment would build — on a revision, on a
// cross-application swap, and on a pair whose programs install tables on
// different switch sets.
func TestStagedRulesMatchMergedPair(t *testing.T) {
	ls := apps.LearningSwitch()
	fwOnLS := apps.Firewall() // uses s1 and s4 of the learning switch's s1, s2, s4
	for _, pair := range []struct {
		tp       *topo.Topology
		old, new apps.App
		differ   bool // the programs install tables on different switch sets
	}{
		{tp: apps.BandwidthCap(40).Topo, old: apps.BandwidthCap(40), new: apps.BandwidthCap(41)},
		{tp: topo.Firewall(), old: apps.Firewall(), new: apps.BandwidthCap(8)},
		{tp: ls.Topo, old: ls, new: apps.App{Name: fwOnLS.Name, Topo: ls.Topo, Prog: fwOnLS.Prog}, differ: true},
	} {
		t.Run(pair.old.Name+"->"+pair.new.Name, func(t *testing.T) {
			c := ctrl.New(pair.tp, ctrl.Options{})
			defer c.Close()
			if err := c.Load(pair.old.Name, pair.old.Prog); err != nil {
				t.Fatal(err)
			}
			old := c.Current().NES
			rep, err := c.Swap(pair.new.Name, pair.new.Prog)
			if err != nil {
				t.Fatal(err)
			}
			merged, off := dataplane.MergedPair(old, c.Current().NES)
			if rep.StagedRules != merged.TotalRules() || rep.TagOffset != off {
				t.Fatalf("report says %d staged rules at offset %d; MergedPair builds %d at %d",
					rep.StagedRules, rep.TagOffset, merged.TotalRules(), off)
			}
			if pair.differ && switchesOf(old) == switchesOf(c.Current().NES) {
				t.Fatal("the pair installs tables on the same switches; the case is vacuous")
			}
		})
	}
}

// switchesOf renders the set of switches a program installs tables on.
func switchesOf(n *nes.NES) string {
	on := map[int]bool{}
	for ci := range n.Configs {
		for sw := range n.Configs[ci].Tables {
			on[sw] = true
		}
	}
	return fmt.Sprint(on)
}

// TestNovelSwapAllocs: a never-seen revision swapped in on an idle
// controller allocates for what the revision changed — its skeleton, the
// delta compile, the new plan's distinct tables, the event mapping — not
// for a staged install nobody reads (6.06 MB when it was materialized),
// nor for a Figure 6 walk per strand it shares with its predecessor, a
// compiler context built to be thrown away and two more renderings of
// the program (2.17 MB at the commit before; 1.20 MB after), nor for
// tables a state with the same hops already has (1.11 MB before; 0.83 MB
// now).
func TestNovelSwapAllocs(t *testing.T) {
	a, b := apps.BandwidthCap(200), apps.BandwidthCap(201)
	c := ctrl.New(a.Topo, ctrl.Options{})
	defer c.Close()
	if err := c.Load(a.Name, a.Prog); err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := c.Swap(b.Name, b.Prog); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	got := float64(m1.TotalAlloc - m0.TotalAlloc)
	t.Logf("novel swap cap-200 -> cap-201 allocated %.2f MB", got/1e6)
	if got > 0.87e6 {
		t.Fatalf("novel swap allocated %.2f MB, want <= 0.87 MB", got/1e6)
	}
}

// warmRevision compiles cap-201 on a fresh controller serving cap-200 and
// returns the compiled program with the objects the compile allocated.
func warmRevision(t *testing.T) (*ctrl.Program, uint64) {
	a, b := apps.BandwidthCap(200), apps.BandwidthCap(201)
	c := ctrl.New(a.Topo, ctrl.Options{})
	defer c.Close()
	if err := c.Load(a.Name, a.Prog); err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p, err := c.Compile(b.Name, b.Prog)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	return p, m1.Mallocs - m0.Mallocs
}

// TestWarmRevisionCompileAllocs: compiling a never-seen revision on a
// warm controller allocates for the revision's atoms and its states'
// edges, not for re-assembling tables its predecessor already holds, nor
// for a projection of the program to validate it, three renderings and
// three clones of the state per edge, a map of occurrence counts per
// vertex, or nodes, closures, strings and slices per strand of its
// skeleton (12 246 objects, then 5 502, now 2 387).
func TestWarmRevisionCompileAllocs(t *testing.T) {
	least := uint64(0)
	for i := 0; i < 3; i++ { // the fewest of three: the controller's goroutines allocate too
		if _, n := warmRevision(t); i == 0 || n < least {
			least = n
		}
	}
	t.Logf("cap-201 compiled after cap-200 allocated %d objects", least)
	if least > 2510 {
		t.Fatalf("warm revision compile allocated %d objects, want <= 2 510", least)
	}
}

// TestWarmRevisionTableMisses: a state whose spliced hop list equals one
// an earlier program's state had takes that state's tables, so cap-201
// after cap-200 assembles tables for at most 2 of its 203 states.
func TestWarmRevisionTableMisses(t *testing.T) {
	p, _ := warmRevision(t)
	st := p.Stats
	t.Logf("cap-201 after cap-200: %d states, table hits %d, misses %d", st.States, st.Cache.TableHits, st.Cache.TableMisses)
	if st.Cache.TableHits+st.Cache.TableMisses != int64(st.States) || st.Cache.TableMisses > 2 {
		t.Fatalf("cap-201 after cap-200: %d table hits and %d misses for %d states, want <= 2 misses", st.Cache.TableHits, st.Cache.TableMisses, st.States)
	}
}

// wideProgram tests n distinct header fields named prefix0..n-1.
func wideProgram(prefix string, n int) stateful.Program {
	src := "pt=2"
	for i := 0; i < n; i++ {
		src += fmt.Sprintf(" & %s%d=1", prefix, i)
	}
	p, err := syntax.ParseProgram(src+"; pt<-1\n", []int{0})
	if err != nil {
		panic(err)
	}
	return p
}

// TestFieldLimitIsACompileError: the flat packet has 64 presence bits. A
// program over more header fields used to compile and then panic in
// dataplane.NewSchema under Load or Swap; it is an ordinary compile
// error, counted over the incoming and the running program together
// (they are installed side by side), and leaves the controller as it was.
func TestFieldLimitIsACompileError(t *testing.T) {
	tp := topo.Firewall()
	rejected := func(err error, fields int) {
		t.Helper()
		want := fmt.Sprintf("program uses %d header fields; the flat packet representation caps at 64", fields)
		if !errors.Is(err, dataplane.ErrFieldLimit) || !strings.HasPrefix(err.Error(), "ctrl: compiling ") || !strings.HasSuffix(err.Error(), want) {
			t.Fatalf("got %v, want a compile error ending %q", err, want)
		}
	}
	c := ctrl.New(tp, ctrl.Options{})
	defer c.Close()
	rejected(c.Load("wide", wideProgram("f", 65)), 65)
	if c.Current() != nil {
		t.Fatal("a rejected program was loaded")
	}
	if err := c.Load("full", wideProgram("f", 64)); err != nil {
		t.Fatalf("64 fields: %v", err)
	}

	c2 := ctrl.New(tp, ctrl.Options{})
	defer c2.Close()
	if err := c2.Load("forty", wideProgram("f", 40)); err != nil {
		t.Fatal(err)
	}
	_, err := c2.Swap("wide", wideProgram("g", 65))
	rejected(err, 105)
	_, err = c2.Swap("other-forty", wideProgram("g", 40))
	rejected(err, 80)
	if st := c2.Status(); st.Epoch != 0 || st.Program != "forty" {
		t.Fatalf("rejected swaps moved the controller: %+v", st)
	}
	if _, err := c2.Swap("shared-forty", wideProgram("f", 40)); err != nil {
		t.Fatalf("40 fields over the running program's own 40: %v", err)
	}
}
