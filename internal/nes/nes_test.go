package nes

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"eventnet/internal/netkat"
)

func TestSetOps(t *testing.T) {
	s := Empty.With(0).With(3)
	if !s.Has(0) || !s.Has(3) || s.Has(1) {
		t.Error("Has broken")
	}
	if s.Count() != 2 {
		t.Error("Count broken")
	}
	if got := s.Elems(); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("Elems: %v", got)
	}
	if !Empty.SubsetOf(s) || !s.SubsetOf(s) || s.SubsetOf(Empty.With(0)) {
		t.Error("SubsetOf broken")
	}
	if s.Without(3) != Empty.With(0) {
		t.Error("Without broken")
	}
	if s.String() != "{0,3}" {
		t.Errorf("String: %q", s.String())
	}
}

func TestSetLaws(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := FromMask(a), FromMask(b)
		return x.Union(y) == y.Union(x) &&
			x.SubsetOf(x.Union(y)) &&
			x.Union(x) == x &&
			(x.SubsetOf(y) == (x.Union(y) == y)) &&
			x.Minus(y) == FromMask(a&^b) &&
			x.Union(y).Minus(y) == FromMask(a&^b) &&
			x.Less(y) == (a < b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// guard builds a trivial event guard.
func guard(field string, v int) *netkat.Conj {
	c := netkat.NewConj()
	c.AddEq(field, v)
	return c
}

func mkEvent(id, sw, pt int) Event {
	return Event{ID: id, Guard: guard("dst", 100+id), Loc: netkat.Location{Switch: sw, Port: pt}, Occurrence: 1}
}

// chainNES builds the family {}, {e0}, {e0,e1}, ... (authentication
// shape), with event i at switch i+1.
func chainNES(t *testing.T, n int) *NES {
	t.Helper()
	var events []Event
	family := map[Set]int{Empty: 0}
	configs := []Config{{ID: 0, Label: "[0]"}}
	s := Empty
	for i := 0; i < n; i++ {
		events = append(events, mkEvent(i, i+1, 1))
		s = s.With(i)
		family[s] = i + 1
		configs = append(configs, Config{ID: i + 1, Label: "[chain]"})
	}
	nes, err := New(events, family, configs)
	if err != nil {
		t.Fatal(err)
	}
	return nes
}

// diamondNES: two independent events (Figure 3a): family {}, {e0}, {e1},
// {e0,e1}.
func diamondNES(t *testing.T, sw0, sw1 int) *NES {
	t.Helper()
	events := []Event{mkEvent(0, sw0, 1), mkEvent(1, sw1, 1)}
	family := map[Set]int{Empty: 0, Empty.With(0): 1, Empty.With(1): 2, Empty.With(0).With(1): 3}
	configs := []Config{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}}
	n, err := New(events, family, configs)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// conflictNES: two mutually exclusive events (Figure 3b): family {},
// {e0}, {e1} — con({e0,e1}) fails.
func conflictNES(t *testing.T, sw0, sw1 int) *NES {
	t.Helper()
	events := []Event{mkEvent(0, sw0, 1), mkEvent(1, sw1, 1)}
	family := map[Set]int{Empty: 0, Empty.With(0): 1, Empty.With(1): 2}
	configs := []Config{{ID: 0}, {ID: 1}, {ID: 2}}
	n, err := New(events, family, configs)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestConDownwardClosed(t *testing.T) {
	n := chainNES(t, 3)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		x := FromMask(r.Uint64() & 7)
		if !n.Con(x) {
			continue
		}
		for _, e := range x.Elems() {
			if !n.Con(x.Without(e)) {
				t.Fatalf("con not downward closed at %v", x)
			}
		}
	}
}

func TestEnablesMonotone(t *testing.T) {
	// Definition 3: (X ⊢ e) ∧ X ⊆ Y ∧ con(Y) ⟹ Y ⊢ e.
	n := chainNES(t, 3)
	for xm := uint64(0); xm < 8; xm++ {
		x := FromMask(xm)
		for e := 0; e < 3; e++ {
			if !n.Enables(x, e) {
				continue
			}
			for ym := uint64(0); ym < 8; ym++ {
				y := FromMask(ym)
				if x.SubsetOf(y) && n.Con(y) && !n.Enables(y, e) {
					t.Fatalf("enabling not monotone: %v ⊢ %d but %v ⊬ %d", x, e, y, e)
				}
			}
		}
	}
}

func TestChainEnabling(t *testing.T) {
	n := chainNES(t, 3)
	if !n.Enables(Empty, 0) {
		t.Error("e0 not initially enabled")
	}
	if n.Enables(Empty, 1) {
		t.Error("e1 enabled before e0")
	}
	if !n.Enables(Empty.With(0), 1) {
		t.Error("e1 not enabled after e0")
	}
}

func TestEventSetsMatchFamily(t *testing.T) {
	for _, n := range []*NES{chainNES(t, 4), diamondNES(t, 1, 2), conflictNES(t, 1, 1)} {
		fam := n.Family()
		sets := n.EventSets()
		if len(fam) != len(sets) {
			t.Fatalf("family %v vs event-sets %v", fam, sets)
		}
		for i := range fam {
			if fam[i] != sets[i] {
				t.Fatalf("family %v vs event-sets %v", fam, sets)
			}
		}
	}
}

func TestAllowedSequences(t *testing.T) {
	n := diamondNES(t, 1, 2)
	seqs, err := n.AllowedSequences()
	if err != nil {
		t.Fatal(err)
	}
	// e0; e1; e0,e1; e1,e0 — four nonempty sequences.
	if len(seqs) != 4 {
		t.Fatalf("sequences: %v", seqs)
	}

	c := conflictNES(t, 1, 1)
	seqs, err = c.AllowedSequences()
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 {
		t.Fatalf("conflict sequences: %v", seqs)
	}
}

func TestMinimallyInconsistent(t *testing.T) {
	c := conflictNES(t, 1, 1)
	mis, err := c.MinimallyInconsistent()
	if err != nil {
		t.Fatal(err)
	}
	if len(mis) != 1 || mis[0] != Empty.With(0).With(1) {
		t.Fatalf("minimally inconsistent: %v", mis)
	}
	d := diamondNES(t, 1, 2)
	mis, err = d.MinimallyInconsistent()
	if err != nil {
		t.Fatal(err)
	}
	if len(mis) != 0 {
		t.Fatalf("diamond has inconsistent sets: %v", mis)
	}
}

// TestLocallyDetermined separates program P2 (conflict at one switch,
// implementable) from program P1 (conflict across switches, not
// implementable) — the Section 2 examples — and reads NonLocal's evidence
// for P1: the conflicting pair, each event with its switch and port.
func TestLocallyDetermined(t *testing.T) {
	p2 := conflictNES(t, 2, 2) // both events at s2: OK
	ld, err := p2.LocallyDetermined()
	if err != nil {
		t.Fatal(err)
	}
	if !ld {
		t.Error("same-switch conflict rejected")
	}
	if nl, err := p2.NonLocal(); nl != nil || err != nil {
		t.Errorf("same-switch conflict: NonLocal = %v, %v", nl, err)
	}
	p1 := conflictNES(t, 2, 4) // events at s2 and s4: action at a distance
	ld, err = p1.LocallyDetermined()
	if err != nil {
		t.Fatal(err)
	}
	if ld {
		t.Error("cross-switch conflict accepted")
	}
	nl, err := p1.NonLocal()
	if err != nil || nl == nil {
		t.Fatalf("cross-switch conflict: NonLocal = %v, %v", nl, err)
	}
	if nl.Set != Empty.With(0).With(1) || len(nl.Events) != 2 || nl.Events[0].Loc.Switch != 2 || nl.Events[1].Loc.Switch != 4 {
		t.Fatalf("evidence: set %v, events %v", nl.Set, nl.Events)
	}
	const want = "nes: not locally determined: the minimally-inconsistent event-set {0,1} spans switches; " +
		"e0 (dst=100, 2:1) at switch 2 port 1; e1 (dst=101, 4:1) at switch 4 port 1"
	if nl.Error() != want {
		t.Fatalf("evidence text:\n%s\nwant\n%s", nl.Error(), want)
	}
}

// TestMinimallyInconsistentMatchesBruteForce holds the hitting-set search,
// its full-set shortcut included, against Section 2's definition read
// literally over all 2^|E| subsets, on random families of up to 10 events,
// about half of them containing the full set. NonLocal's verdict is held
// against the brute-force sets and a random placement of the events on
// three switches.
func TestMinimallyInconsistentMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	withFull, nonLocal := 0, 0
	for iter := 0; iter < 2000; iter++ {
		ne := 1 + r.Intn(10)
		events := make([]Event, ne)
		for i := range events {
			events[i] = mkEvent(i, 1+r.Intn(3), 1)
		}
		full := uint64(1)<<ne - 1
		family := map[Set]int{Empty: 0}
		for k := r.Intn(8); k > 0; k-- {
			family[FromMask(r.Uint64()&full)] = 0
		}
		if r.Intn(2) == 0 {
			family[FromMask(full)] = 0
			withFull++
		}
		n, err := New(events, family, []Config{{ID: 0}})
		if err != nil {
			t.Fatal(err)
		}
		con := func(x uint64) bool {
			for f := range family {
				if FromMask(x).SubsetOf(f) {
					return true
				}
			}
			return false
		}
		var want []Set
		local := true
		for x := uint64(1); x <= full; x++ {
			if con(x) {
				continue
			}
			minimal := true
			for e := 0; e < ne && minimal; e++ {
				minimal = x&(1<<e) == 0 || con(x&^(1<<e))
			}
			if !minimal {
				continue
			}
			want = append(want, FromMask(x))
			elems := FromMask(x).Elems()
			for _, e := range elems {
				local = local && events[e].Loc.Switch == events[elems[0]].Loc.Switch
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
		got, err := n.MinimallyInconsistent()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("family %v over %d events: MinimallyInconsistent = %v, want %v", n.Family(), ne, got, want)
		}
		nl, err := n.NonLocal()
		if err != nil || (nl == nil) != local {
			t.Fatalf("family %v over %d events: NonLocal = %v, %v; brute force says local = %v", n.Family(), ne, nl, err, local)
		}
		if !local {
			nonLocal++
		}
	}
	if withFull < 500 || nonLocal < 200 {
		t.Fatalf("%d families with the full set, %d not locally determined: too few to compare", withFull, nonLocal)
	}
}

// TestMinimallyInconsistentWorkBound: a family whose complements are the
// edges of six disjoint 5-cliques sends the hitting-set search down far
// more than minIncWorkBound branches, so it stops at the bound with a
// *WorkBoundError instead of running on. Time to the bound (GOMAXPROCS=1,
// 2 vCPU Xeon, without -race): 0.5-0.9 s on clique shapes (this one, and
// one clique of 30, 64 or 100 events), and 2.0-4.7 s on 23 disjoint pairs,
// the worst shape tried, which also stores about 2^21 found sets before
// the bound (240-360 MB peak RSS); ROADMAP item 8(a)'s compile budget
// starts from these figures.
func TestMinimallyInconsistentWorkBound(t *testing.T) {
	const blocks, k = 6, 5
	var events []Event
	full := Empty
	for i := 0; i < blocks*k; i++ {
		events = append(events, mkEvent(i, 1, 1))
		full = full.With(i)
	}
	family := map[Set]int{Empty: 0}
	for b := 0; b < blocks*k; b += k {
		for i := b; i < b+k; i++ {
			for j := i + 1; j < b+k; j++ {
				family[full.Without(i).Without(j)] = 0
			}
		}
	}
	n, err := New(events, family, []Config{{ID: 0}})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = n.MinimallyInconsistent()
	var wb *WorkBoundError
	if !errors.As(err, &wb) || wb.Steps != minIncWorkBound {
		t.Fatalf("MinimallyInconsistent returned %v, want a *WorkBoundError at %d steps", err, minIncWorkBound)
	}
	t.Logf("bound reached in %v", time.Since(start))
	if _, err := n.LocallyDetermined(); !errors.As(err, &wb) {
		t.Fatalf("LocallyDetermined returned %v, want the *WorkBoundError", err)
	}
}

// TestMinimallyInconsistentChainAllocs: a family holding the full set
// answers from one lookup, building the full set in one allocation; this
// is the check every chain-shaped program (every shipped app but
// distributed-firewall) makes on each compile.
func TestMinimallyInconsistentChainAllocs(t *testing.T) {
	n := chainNES(t, 200)
	allocs := testing.AllocsPerRun(100, func() {
		if mis, err := n.MinimallyInconsistent(); mis != nil || err != nil {
			t.Fatal(mis, err)
		}
	})
	if allocs > 1 {
		t.Fatalf("%.1f allocations per check on a chain family, want <= 1", allocs)
	}
}

func TestNewlyEnabled(t *testing.T) {
	n := chainNES(t, 2)
	lp0 := netkat.LocatedPacket{Pkt: netkat.Packet{"dst": 100}, Loc: netkat.Location{Switch: 1, Port: 1}}
	lp1 := netkat.LocatedPacket{Pkt: netkat.Packet{"dst": 101}, Loc: netkat.Location{Switch: 2, Port: 1}}
	if got := n.NewlyEnabled(Empty, lp0); got != Empty.With(0) {
		t.Errorf("e0 not detected: %v", got)
	}
	// e1's packet at its location does not fire before e0 is known.
	if got := n.NewlyEnabled(Empty, lp1); got != Empty {
		t.Errorf("e1 fired prematurely: %v", got)
	}
	if got := n.NewlyEnabled(Empty.With(0), lp1); got != Empty.With(1) {
		t.Errorf("e1 not detected after e0: %v", got)
	}
	// Wrong guard, right location: nothing fires.
	bad := netkat.LocatedPacket{Pkt: netkat.Packet{"dst": 999}, Loc: netkat.Location{Switch: 1, Port: 1}}
	if got := n.NewlyEnabled(Empty, bad); got != Empty {
		t.Errorf("guard ignored: %v", got)
	}
}

// TestSwitchStepAndConfigFor: the SWITCH bookkeeping detects against
// view ∪ digest (e1 fires at a switch that only hears of e0 from the
// arriving packet) and returns that union plus the new events as the
// next view; ConfigFor is g on family members and the largest member
// below a view that a partial controller push left outside the family.
func TestSwitchStepAndConfigFor(t *testing.T) {
	n := chainNES(t, 3)
	lp1 := netkat.LocatedPacket{Pkt: netkat.Packet{"dst": 101}, Loc: netkat.Location{Switch: 2, Port: 1}}
	if newly, next := n.SwitchStep(Empty, Empty.With(0), lp1); newly != Empty.With(1) || next != Empty.With(0).With(1) {
		t.Errorf("SwitchStep(∅, {e0}) = %v, %v", newly, next)
	}
	if newly, next := n.SwitchStep(Empty.With(0), Empty, netkat.LocatedPacket{Loc: lp1.Loc}); newly != Empty || next != Empty.With(0) {
		t.Errorf("SwitchStep without a match = %v, %v", newly, next)
	}
	for view, want := range map[Set]int{Empty: 0, Empty.With(0).With(1): 2, Empty.With(0).With(2): 1, Empty.With(2): 0} {
		if got := n.ConfigFor(view); got != want {
			t.Errorf("ConfigFor(%v) = %d, want %d", view, got, want)
		}
	}
}

func TestMatchesD(t *testing.T) {
	e := mkEvent(0, 4, 1)
	in := netkat.DPacket{Pkt: netkat.Packet{"dst": 100}, Loc: netkat.Location{Switch: 4, Port: 1}}
	out := in
	out.Out = true
	if !e.MatchesD(in) {
		t.Error("ingress match failed")
	}
	if e.MatchesD(out) {
		t.Error("egress matched (events are arrivals)")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, map[Set]int{}, nil); err == nil {
		t.Error("missing empty set accepted")
	}
	if _, err := New(nil, map[Set]int{Empty: 5}, []Config{{}}); err == nil {
		t.Error("dangling config index accepted")
	}
	events := make([]Event, MaxEvents+1)
	if _, err := New(events, map[Set]int{Empty: 0}, []Config{{}}); err == nil {
		t.Error("too many events accepted")
	}
}

// TestUnionUnchangedReturnsReceiver pins the digest-gossip fast path:
// when one operand contains the other, Union returns that operand itself
// — same backing bytes, no allocation — because the engine's hop loop
// unions every packet's digest with views that have usually already
// absorbed it, and a rebuild there would put an allocation on every hop.
func TestUnionUnchangedReturnsReceiver(t *testing.T) {
	big := FromMask(0b10110111)
	small := FromMask(0b00000101)
	if got := big.Union(small); got != big {
		t.Fatalf("Union(big, small) = %v, want big %v", got, big)
	}
	if got := small.Union(big); got != big {
		t.Fatalf("Union(small, big) = %v, want big %v", got, big)
	}
	if got := testing.AllocsPerRun(200, func() {
		_ = big.Union(small)
		_ = small.Union(big)
		_ = big.Union(big)
		_ = big.Union(Empty)
		_ = Empty.Union(big)
	}); got != 0 {
		t.Fatalf("no-change Union allocates %.3f times per run; want 0", got)
	}
	// A genuinely growing union must still build the right set.
	if got, want := big.Union(FromMask(0b01000000)), FromMask(0b11110111); got != want {
		t.Fatalf("growing Union = %v, want %v", got, want)
	}
}

// FromMask builds a Set from a uint64 bitmask (bit i ⇒ event i).
func FromMask(m uint64) Set {
	var b []byte
	for m != 0 {
		b = append(b, byte(m))
		m >>= 8
	}
	return Set(b)
}
