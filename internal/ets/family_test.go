package ets

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/nes"
	"eventnet/internal/stateful"
)

// finiteCompleteRef is condition 2 of Section 3.1 as the definition reads,
// transcribed: every pair of members, every member as a candidate upper
// bound, the union built and looked up. It visits pairs in (Count, Less)
// order so that its first violation is the one checkFiniteComplete must
// name. The production check has to agree with it on every family.
func finiteCompleteRef(family map[nes.Set]int) error {
	sets := make([]nes.Set, 0, len(family))
	for s := range family {
		sets = append(sets, s)
	}
	sort.Slice(sets, func(i, j int) bool {
		if ci, cj := sets[i].Count(), sets[j].Count(); ci != cj {
			return ci < cj
		}
		return sets[i].Less(sets[j])
	})
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			u := sets[i].Union(sets[j])
			hasUpper := false
			for _, b := range sets {
				if u.SubsetOf(b) {
					hasUpper = true
					break
				}
			}
			if _, ok := family[u]; hasUpper && !ok {
				return fmt.Errorf("ets: family is not finite-complete: %v and %v have an upper bound but %v is missing (the Figure 3(c) violation)",
					sets[i], sets[j], u)
			}
		}
	}
	return nil
}

// agree fails the test unless the two checks accept the same families and
// reject with the same witness.
func agree(t testing.TB, what string, family map[nes.Set]int) (rejected bool) {
	t.Helper()
	want := finiteCompleteRef(family)
	_, got := checkFiniteComplete(family)
	if (want == nil) != (got == nil) || (want != nil && want.Error() != got.Error()) {
		t.Fatalf("%s, %d members: definition says %v, check says %v\nfamily: %v", what, len(family), want, got, family)
	}
	return got != nil
}

func randSet(r *rand.Rand, events int, p float64) nes.Set {
	s := nes.Empty
	for e := 0; e < events; e++ {
		if r.Float64() < p {
			s = s.With(e)
		}
	}
	return s
}

// unionClosed closes gens under pairwise union (up to limit members).
func unionClosed(gens []nes.Set, limit int) map[nes.Set]int {
	family := map[nes.Set]int{nes.Empty: 0}
	list := []nes.Set{nes.Empty}
	for _, g := range gens {
		for _, s := range list {
			if u := s.Union(g); len(family) < limit {
				if _, ok := family[u]; !ok {
					family[u] = 0
					list = append(list, u)
				}
			}
		}
	}
	return family
}

// TestFiniteCompleteMatchesDefinition: the down-set check against the
// transcribed definition on random families of the shapes that exercise
// each of its branches — mostly-incomparable members, union-closed
// lattices, a lattice with one member knocked out (the Figure 3(c) shape),
// mutually exclusive branches with and without a common top, a chain with
// strays — at one, two and three words per member and per down-set.
func TestFiniteCompleteMatchesDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	rejected, total := 0, 0
	check := func(what string, family map[nes.Set]int) {
		total++
		if agree(t, what, family) {
			rejected++
		}
	}
	for _, events := range []int{5, 12, 70, 140} {
		for round := 0; round < 150; round++ {
			sparse := map[nes.Set]int{nes.Empty: 0}
			for i, n := 0, 2+r.Intn(24); i < n; i++ {
				sparse[randSet(r, events, 0.05+0.4*r.Float64())] = 0
			}
			check(fmt.Sprintf("sparse/%d", events), sparse)

			gens := make([]nes.Set, 2+r.Intn(7))
			for i := range gens {
				gens[i] = randSet(r, events, 0.15)
			}
			limit := 64
			if round%10 == 0 {
				limit = 200 // down-set rows of more than one word
			}
			closed := unionClosed(gens, limit)
			check(fmt.Sprintf("union-closed/%d", events), closed)

			members := make([]nes.Set, 0, len(closed))
			for s := range closed {
				members = append(members, s)
			}
			sort.Slice(members, func(i, j int) bool { return members[i].Less(members[j]) })
			delete(closed, members[r.Intn(len(members))])
			check(fmt.Sprintf("knocked-out/%d", events), closed)

			// Two chains over disjoint halves of the universe: no member of
			// one has an upper bound with a member of the other, until a
			// common top is added — then every cross pair needs its union.
			branches := map[nes.Set]int{nes.Empty: 0}
			left, right, top := nes.Empty, nes.Empty, nes.Empty
			for e := 0; e < events && e < 16; e++ {
				if e%2 == 0 {
					left = left.With(e)
					branches[left] = 0
				} else {
					right = right.With(events - e)
					branches[right] = 0
				}
				top = left.Union(right)
			}
			check(fmt.Sprintf("branches/%d", events), branches)
			branches[top] = 0
			check(fmt.Sprintf("branches-with-top/%d", events), branches)

			// The shape of every shipped program — a chain, one member per
			// event — with a few strays off it.
			chain, s := map[nes.Set]int{nes.Empty: 0}, nes.Empty
			for e := 0; e < events; e++ {
				s = s.With(e)
				chain[s] = 0
			}
			for i := r.Intn(4); i > 0; i-- {
				chain[randSet(r, events, 0.1)] = 0
			}
			check(fmt.Sprintf("chain-with-strays/%d", events), chain)
		}
	}
	if rejected == 0 || rejected == total {
		t.Fatalf("%d of %d families rejected: the generator exercises one side only", rejected, total)
	}
	t.Logf("%d families, %d rejected", total, rejected)
}

// fuzzFamily decodes a family from bytes: the first byte picks how far
// apart the 16 events a member can hold are spread (so rows span one to
// three words), every following pair of bytes is one member.
func fuzzFamily(data []byte) map[nes.Set]int {
	family := map[nes.Set]int{nes.Empty: 0}
	if len(data) == 0 {
		return family
	}
	stride := 1 + int(data[0])%12
	for i := 1; i+1 < len(data) && len(family) < 48; i += 2 {
		s := nes.Empty
		for b := 0; b < 16; b++ {
			if (uint(data[i])|uint(data[i+1])<<8)&(1<<uint(b)) != 0 {
				s = s.With(b * stride)
			}
		}
		family[s] = 0
	}
	return family
}

// FuzzFiniteComplete holds the down-set check to the transcribed
// definition on families decoded from bytes. The seed corpus
// (testdata/fuzz/FuzzFiniteComplete) has one family per branch: a chain,
// a diamond, Figure 3(c), exclusive branches with and without a top, and
// multi-word lattices, whole and with a member knocked out.
func FuzzFiniteComplete(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		agree(t, "fuzz", fuzzFamily(data))
	})
}

// TestFamilyCheckBound is the count behind the speed-up, not a timing:
// cap-400's family is a chain, so the check costs one subset test per
// member — the pairwise loop did |F|²/2 — and never builds a union.
func TestFamilyCheckBound(t *testing.T) {
	a := apps.BandwidthCap(400)
	e, err := Build(a.Prog, a.Topo)
	if err != nil {
		t.Fatal(err)
	}
	family, err := e.Family()
	if err != nil {
		t.Fatal(err)
	}
	cost, err := checkFiniteComplete(family)
	if err != nil {
		t.Fatal(err)
	}
	if cost.subsetTests > 2*len(family) || cost.unionLookups != 0 {
		t.Fatalf("%d subset tests and %d union lookups for a chain of %d members; at most %d and 0 allowed",
			cost.subsetTests, cost.unionLookups, len(family), 2*len(family))
	}
}

// powerSetETS is the ETS of k independent one-shot events, built by hand:
// one vertex per subset, an edge for every event not yet in it.
func powerSetETS(k int) *ETS {
	e := &ETS{Init: 0, Vertices: make([]Vertex, 1<<uint(k)), Events: make([]nes.Event, k)}
	for i := range e.Events {
		e.Events[i] = nes.Event{ID: i, Occurrence: 1}
	}
	for m := range e.Vertices {
		e.Vertices[m] = Vertex{ID: m, State: stateful.State{m}}
		for i := 0; i < k; i++ {
			if m&(1<<uint(i)) == 0 {
				e.Edges = append(e.Edges, Edge{From: m, To: m | 1<<uint(i), Event: i})
			}
		}
	}
	return e
}

// TestPowerSetFamily: k independent events make 2^k event-sets and k!
// paths; family construction costs the former. k = 9 is the first size
// whose path count (362 880) exceeds maxPaths.
func TestPowerSetFamily(t *testing.T) {
	for _, k := range []int{9, 10} {
		e := powerSetETS(k)
		family, err := e.Family()
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(family) != 1<<uint(k) {
			t.Fatalf("k=%d: %d members, want %d", k, len(family), 1<<uint(k))
		}
		for s, v := range family {
			want := nes.Empty
			for e := 0; e < k; e++ {
				if v&(1<<e) != 0 {
					want = want.With(e)
				}
			}
			if s != want {
				t.Fatalf("k=%d: event-set %v mapped to vertex %d", k, s, v)
			}
		}
		if _, err := e.ToNES(); err != nil {
			t.Fatalf("k=%d: ToNES: %v", k, err)
		}
	}
}

// TestFamilyConfigUniqueness: condition 1 on a hand-built ETS (Build
// rejects TestConfigUniquenessViolation's program before Family sees it).
// Two paths collect {e0,e1} in either order and end at vertices with
// different tables.
func TestFamilyConfigUniqueness(t *testing.T) {
	a, b := apps.Firewall(), apps.LearningSwitch()
	ea, eb := build(t, a), build(t, b)
	e := &ETS{Init: 0, Events: make([]nes.Event, 2), Vertices: []Vertex{
		{ID: 0, State: stateful.State{0}}, {ID: 1, State: stateful.State{1}}, {ID: 2, State: stateful.State{2}},
		{ID: 3, State: stateful.State{3}, Tables: ea.Vertices[0].Tables},
		{ID: 4, State: stateful.State{4}, Tables: eb.Vertices[0].Tables},
	}, Edges: []Edge{{0, 1, 0}, {0, 2, 1}, {1, 3, 1}, {2, 4, 0}}}
	if _, err := e.Family(); err == nil || !strings.Contains(err.Error(), "two different configurations") {
		t.Fatalf("order-dependent configurations: %v", err)
	}
}
