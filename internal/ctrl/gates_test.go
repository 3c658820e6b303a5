package ctrl_test

import (
	"fmt"
	"runtime"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/ctrl"
	"eventnet/internal/dataplane"
	"eventnet/internal/nes"
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
// controller allocates for what the revision changed — the delta compile,
// the new plan's distinct tables, the event mapping — not for a staged
// install nobody reads. With the staged tables materialized, every state
// holding a fresh table and the program text concatenated, this swap
// allocated 6.06 MB (measured at the commit before; 2.17 MB now); the
// gate is half that.
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
	const parentBytes = 6.06e6
	got := float64(m1.TotalAlloc - m0.TotalAlloc)
	t.Logf("novel swap cap-200 -> cap-201 allocated %.2f MB", got/1e6)
	if got > parentBytes/2 {
		t.Fatalf("novel swap allocated %.2f MB, want <= %.2f MB (half of what materializing the staged install cost)", got/1e6, parentBytes/2e6)
	}
}
