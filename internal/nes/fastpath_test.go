package nes

import (
	"math/rand"
	"testing"
)

// The detection and replay fast paths (Enables' allocation-free diff,
// ArmedFrom's one-pass family fold, Admit's counting form) must agree
// with the definitional forms of Section 3.1 on arbitrary families.
// These reference implementations are the definitions, transcribed.

func enablesRef(n *NES, x Set, e int) bool {
	if !n.Con(x) {
		return false
	}
	for _, f := range n.familyList {
		if f.Has(e) && f.Without(e).SubsetOf(x) {
			return true
		}
	}
	return false
}

func armedRef(n *NES, known Set) Set {
	out := Empty
	for _, ev := range n.Events {
		if known.Has(ev.ID) {
			continue
		}
		if enablesRef(n, known, ev.ID) && n.Con(known.With(ev.ID)) {
			out = out.With(ev.ID)
		}
	}
	return out
}

func admitRef(n *NES, view, candidates Set) Set {
	for {
		changed := false
		for _, e := range candidates.Elems() {
			if view.Has(e) {
				continue
			}
			if enablesRef(n, view, e) && n.Con(view.With(e)) {
				view = view.With(e)
				changed = true
			}
		}
		if !changed {
			return view
		}
	}
}

// randNES builds an NES over `events` events with a random family (the
// empty set plus `members` random subsets).
func randNES(t *testing.T, r *rand.Rand, events, members int) *NES {
	t.Helper()
	evs := make([]Event, events)
	for i := range evs {
		evs[i] = mkEvent(i, i%3+1, 1)
	}
	family := map[Set]int{Empty: 0}
	for m := 0; m < members; m++ {
		s := Empty
		for e := 0; e < events; e++ {
			if r.Intn(3) == 0 {
				s = s.With(e)
			}
		}
		family[s] = 0
	}
	configs := []Config{{ID: 0, Label: "[r]"}}
	n, err := New(evs, family, configs)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func randSet(r *rand.Rand, events int) Set {
	s := Empty
	for e := 0; e < events; e++ {
		if r.Intn(2) == 0 {
			s = s.With(e)
		}
	}
	return s
}

func TestFastPathsMatchDefinitions(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const events = 10
	for trial := 0; trial < 200; trial++ {
		n := randNES(t, r, events, 1+r.Intn(8))
		x := randSet(r, events)
		for e := 0; e < events; e++ {
			if got, want := n.Enables(x, e), enablesRef(n, x, e); got != want {
				t.Fatalf("trial %d: Enables(%v, %d) = %v, ref %v\nfamily %v", trial, x, e, got, want, n.familyList)
			}
		}
		if got, want := n.ArmedFrom(x), armedRef(n, x); got != want {
			t.Fatalf("trial %d: ArmedFrom(%v) = %v, ref %v\nfamily %v", trial, x, got, want, n.familyList)
		}
		view, cands := randSet(r, events), randSet(r, events)
		if got, want := n.Admit(view, cands), admitRef(n, view, cands); got != want {
			t.Fatalf("trial %d: Admit(%v, %v) = %v, ref %v\nfamily %v", trial, view, cands, got, want, n.familyList)
		}
	}
}

// TestFastPathsChainAndConflict pins the fast paths on the canonical
// shapes the apps exercise: chains (bandwidth cap) and conflicts.
func TestFastPathsChainAndConflict(t *testing.T) {
	n := chainNES(t, 6)
	view := Empty
	for i := 0; i < 6; i++ {
		if got := n.ArmedFrom(view); got != Empty.With(i) {
			t.Fatalf("chain armed from %v = %v, want {%d}", view, got, i)
		}
		view = view.With(i)
	}
	all := view
	if got := n.Replay(all); got != all {
		t.Fatalf("chain replay of full set = %v, want %v", got, all)
	}
	// Dropping a middle link truncates replay at the gap.
	holed := all.Without(2)
	if got := n.Replay(holed); got != Empty.With(0).With(1) {
		t.Fatalf("chain replay with hole = %v, want {0,1}", got)
	}

	c := conflictNES(t, 1, 2)
	if got := c.Replay(Empty.With(0).With(1)); got != Empty.With(0) {
		t.Fatalf("conflict replay = %v, want {0} (ascending admission, then con fails)", got)
	}
}
