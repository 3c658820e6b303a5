package nes

import (
	"fmt"
	"sort"
	"sync"

	"eventnet/internal/flowtable"
	"eventnet/internal/netkat"
)

// Event is one event of an NES: the arrival at Loc of a packet satisfying
// Guard. Occurrence distinguishes renamed copies of the same (Guard, Loc)
// pair along an execution (Section 3.1: events encountered multiple times
// are renamed), e.g. the n packets counted by the bandwidth cap.
type Event struct {
	ID         int
	Guard      *netkat.Conj
	Loc        netkat.Location
	Occurrence int // 1-based
	// Label is "ϕ@loc" as the ETS rendered it once (stateful.Edge.Label); with
	// Occurrence, the event's identity across programs. Empty if built by hand.
	Label string
}

// Matches reports whether the located packet matches the event:
// sw = sw' ∧ pt = pt' ∧ pkt ⊨ ϕ (Section 2).
func (e Event) Matches(lp netkat.LocatedPacket) bool {
	return lp.Loc == e.Loc && e.Guard.Eval(lp)
}

// MatchesD reports whether a directed trace point matches the event:
// events model packet arrivals, so only ingress-directed points match.
func (e Event) MatchesD(d netkat.DPacket) bool {
	return !d.Out && e.Matches(d.LP())
}

// String renders the event.
func (e Event) String() string {
	s := fmt.Sprintf("(%v, %v)", e.Guard, e.Loc)
	if e.Occurrence > 1 {
		s += fmt.Sprintf("_%d", e.Occurrence)
	}
	return s
}

// Config is one network configuration of the NES: its compiled flow
// tables and its configuration relation (used by the trace oracle).
// Tables is read-only and shared between configurations (see ets.Vertex).
type Config struct {
	ID     int
	Label  string // diagnostic, e.g. the state vector "[1]"
	Tables flowtable.Tables
	Rel    netkat.DConfig
}

// NES is a network event structure (Definition 5): an event structure
// (E, con, ⊢) plus the map g from event-sets to configurations. The
// consistency predicate and enabling relation are derived from the family
// of event-sets F(T) via Theorem 1.1.12 of Winskel's "Event Structures":
//
//	con(X)  ⇔  X ⊆ F for some F in the family
//	X ⊢ e   ⇔  con(X) ∧ ∃Y ⊆ X : Y ∪ {e} in the family
type NES struct {
	Events  []Event
	Configs []Config

	family     map[Set]int // event-set -> config index (the function g)
	familyList []Set       // sorted for deterministic iteration
	armedMu    sync.RWMutex
	armed      map[Set]Set // ArmedFrom memo (see ArmedFrom), under armedMu

	idxOnce sync.Once // lazy inverted family index (see admitIdx)
	idx     *admitIndex
}

// admitIndex is the inverted family index behind Admit: for each event,
// the members containing it. Built lazily on the first replay (program
// swaps are where large candidate sets appear) and read-only afterwards.
type admitIndex struct {
	occursIn [][]int32 // event ID -> ascending indices into familyList
}

// admitIdx returns the inverted family index, building it once.
func (n *NES) admitIdx() *admitIndex {
	n.idxOnce.Do(func() {
		ix := &admitIndex{occursIn: make([][]int32, MaxEvents)}
		for j, f := range n.familyList {
			for _, e := range f.Elems() {
				ix.occursIn[e] = append(ix.occursIn[e], int32(j))
			}
		}
		n.idx = ix
	})
	return n.idx
}

// New builds an NES from the event universe, the family of event-sets
// (each mapped to its configuration index), and the configurations.
// The family must contain the empty set, and every referenced config
// index must exist.
func New(events []Event, family map[Set]int, configs []Config) (*NES, error) {
	if len(events) > MaxEvents {
		return nil, fmt.Errorf("nes: %d events exceed the %d-event tag capacity", len(events), MaxEvents)
	}
	if _, ok := family[Empty]; !ok {
		return nil, fmt.Errorf("nes: family does not contain the empty event-set")
	}
	n := &NES{Events: events, Configs: configs, family: make(map[Set]int, len(family)), familyList: make([]Set, 0, len(family)), armed: map[Set]Set{}}
	for s, c := range family {
		if c < 0 || c >= len(configs) {
			return nil, fmt.Errorf("nes: event-set %v maps to unknown config %d", s, c)
		}
		n.family[s] = c
		n.familyList = append(n.familyList, s)
	}
	sort.Slice(n.familyList, func(i, j int) bool { return n.familyList[i].Less(n.familyList[j]) })
	return n, nil
}

// TotalRules sums the program's flow-table rules over configurations and
// switches (the paper's in-text metric).
func (n *NES) TotalRules() int {
	rules := 0
	for i := range n.Configs {
		rules += n.Configs[i].Tables.TotalRules()
	}
	return rules
}

// Family returns the family of event-sets in sorted order.
func (n *NES) Family() []Set { return append([]Set{}, n.familyList...) }

// Con is the consistency predicate: X is consistent iff it is contained
// in some member of the family. This is downward-closed by construction
// (Definition 3's requirement on con).
func (n *NES) Con(x Set) bool {
	for _, f := range n.familyList {
		if x.SubsetOf(f) {
			return true
		}
	}
	return false
}

// Enables is the enabling relation X ⊢ e. Unfolding the least-relation
// definition in Section 3.1, X ⊢ e holds iff con(X) and some family member
// F contains e with F \ {e} ⊆ X — spelled as the allocation-free
// F \ X ⊆ {e} so one call never materializes an intermediate set.
func (n *NES) Enables(x Set, e int) bool {
	if !n.Con(x) {
		return false
	}
	for _, f := range n.familyList {
		if f.Has(e) && f.diffWithin(x, e) {
			return true
		}
	}
	return false
}

// ConfigAt returns g(X): the configuration index for an event-set. The
// second result is false when X is not in the family (for
// finitely-complete families this cannot happen for any consistent union
// of family members, which is what the runtime maintains).
func (n *NES) ConfigAt(x Set) (int, bool) {
	c, ok := n.family[x]
	return c, ok
}

// ConfigFor returns the configuration index a switch holding the event
// view `view` stamps and forwards with. For views produced purely by
// digest gossip the view is always in the family and this is g(view); a
// partial controller push can produce a view strictly between family
// members, in which case the unique largest family member contained in
// the view is used (it exists because all of the view's family subsets
// share the upper bound "all events so far", so finite-completeness makes
// them directed).
func (n *NES) ConfigFor(view Set) int {
	if c, ok := n.family[view]; ok {
		return c
	}
	best := Empty
	for _, f := range n.familyList {
		if f.SubsetOf(view) && best.SubsetOf(f) {
			best = f
		}
	}
	return n.family[best]
}

// ArmedFrom returns the events e ∉ known with known ⊢ e and
// con(known ∪ {e}) — the events "armed" to fire from one knowledge set,
// independent of any packet. Detection (NewlyEnabled, and the dataplane
// engine's flat hop loop) intersects this with the events a packet's
// arrival matches; factoring the family walks out lets them be memoized
// per knowledge set, so the per-packet cost of detection is a bitset
// probe instead of an Enables/Con enumeration per candidate event. The
// memo is append-only and safe for concurrent use; a program's reachable
// knowledge sets are bounded by its family, so it stays small.
// A per-candidate Enables enumeration here would make a cache miss
// O(|E| · |family|) set scans — seconds per fresh knowledge set at the
// 10x program scale (bandwidth-cap-2000 has 2002 events, and every
// event firing creates a fresh knowledge set). Instead one pass over
// the family collects exactly the enabled events: for e ∉ known,
// known ⊢ e ⇔ some member F has F \ known = {e} (the F \ known = ∅
// case would put e inside known). Only the consistency of each
// candidate is checked individually, and candidates are few.
func (n *NES) ArmedFrom(known Set) Set {
	n.armedMu.RLock()
	a, ok := n.armed[known]
	n.armedMu.RUnlock()
	if ok {
		return a
	}
	out := Empty
	if n.Con(known) {
		for _, f := range n.familyList {
			if e, ok := f.minusSingleton(known); ok && !out.Has(e) && n.Con(known.With(e)) {
				out = out.With(e)
			}
		}
	}
	n.armedMu.Lock()
	n.armed[known] = out // a racing miss computed the same set
	n.armedMu.Unlock()
	return out
}

// NewlyEnabled returns the events e ∉ known that the located packet
// matches and that are enabled and consistent from `known`: the set E' of
// the SWITCH rule in Figure 7. (Membership is decided per event against
// `known` alone, so filtering through ArmedFrom is exact.)
func (n *NES) NewlyEnabled(known Set, lp netkat.LocatedPacket) Set {
	armed := n.ArmedFrom(known)
	if armed == Empty {
		return Empty
	}
	out := Empty
	for _, ev := range n.Events {
		if armed.Has(ev.ID) && ev.Matches(lp) {
			out = out.With(ev.ID)
		}
	}
	return out
}

// SwitchStep is the event bookkeeping of Figure 7's SWITCH rule for a
// packet carrying `digest` that arrives as lp at a switch whose view is
// `view`:
//
//	known = view ∪ digest
//	newly = NewlyEnabled(known, lp)    (E': also what goes to the controller queue)
//	view' = view ∪ newly ∪ digest      (the switch's next view)
//	out   = digest ∪ view ∪ newly      (the digest stamped on every output)
//
// view' and out are the same set, returned once as next. Forwarding under
// the packet's tagged configuration is the caller's: it does not depend
// on any of these.
func (n *NES) SwitchStep(view, digest Set, lp netkat.LocatedPacket) (newly, next Set) {
	known := view.Union(digest)
	newly = n.NewlyEnabled(known, lp)
	return newly, known.Union(newly)
}

// Replay folds a candidate event-set into the NES by canonical
// event-history replay: starting from the empty view, events are admitted
// in ascending-ID passes whenever they are enabled and keep the view
// consistent, iterating until no further candidate can be admitted. The
// result is the largest prefix of the candidates' knowledge that forms a
// valid execution of *this* NES — the state-mapping rule live program
// swaps use to carry one program's established event knowledge into its
// successor (docs/CONTROLLER.md). Replay is deterministic: the admitted
// set depends only on the candidate set, because family membership, not
// admission order, decides consistency.
func (n *NES) Replay(candidates Set) Set {
	return n.Admit(Empty, candidates)
}

// Admit is Replay starting from an established view: candidate events are
// folded into view in ascending-ID fixpoint passes, each admitted only
// when enabled from and consistent with what is already held. The view
// grows monotonically — admission can never invalidate knowledge the view
// already has — which is what makes the live-mapping rule of a program
// swap sound while the view keeps evolving.
// Admit runs in counting form: a direct Enables/Con per candidate per
// pass is O(|C|² · |family|) set scans — seconds for the thousands of
// carried events a 10x-scale swap replays at its flip barrier. Instead
// the family is folded once into per-member deficits (|F \ view|,
// maintained incrementally as admissions land) so both predicates
// become walks of the members containing the candidate:
//
//	view ⊢ e           ⇔  some F ∋ e has |F \ view| = 1 (that one is e)
//	con(view ∪ {e})    ⇔  some F ∋ e has view ⊆ F
//
// The traversal order (ascending-ID passes to a fixpoint) is exactly
// the definition above, so the admitted set is unchanged.
func (n *NES) Admit(view, candidates Set) Set {
	els := candidates.Elems()
	if len(els) == 0 {
		return view
	}
	ix := n.admitIdx()
	deficit := make([]int32, len(n.familyList)) // |F_j \ view| at entry
	viewIn := make([]bool, len(n.familyList))   // view ⊆ F_j at entry
	conView := false
	for j, f := range n.familyList {
		deficit[j] = int32(f.MinusCount(view))
		viewIn[j] = view.SubsetOf(f)
		conView = conView || viewIn[j]
	}
	if !conView {
		return view // inconsistent views enable nothing
	}
	inview := make([]int32, len(n.familyList)) // admitted events inside F_j
	var admitted int32
	for {
		changed := false
		for _, e := range els {
			if view.Has(e) || e >= len(ix.occursIn) {
				continue
			}
			occ := ix.occursIn[e]
			enabled := false
			for _, j := range occ {
				if deficit[j]-inview[j] == 1 {
					enabled = true
					break
				}
			}
			if !enabled {
				continue
			}
			con := false
			for _, j := range occ {
				if viewIn[j] && inview[j] == admitted {
					con = true
					break
				}
			}
			if !con {
				continue
			}
			view = view.With(e)
			admitted++
			for _, j := range occ {
				inview[j]++
			}
			changed = true
		}
		if !changed {
			return view
		}
	}
}

// EventSets computes the event-sets of the underlying event structure per
// Definition 4 (consistent and reachable via the enabling relation), by
// BFS from the empty set. For families produced by the ETS conversion this
// equals the family itself; the equality is checked by tests.
func (n *NES) EventSets() []Set {
	seen := map[Set]bool{Empty: true}
	queue := []Set{Empty}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, ev := range n.Events {
			if s.Has(ev.ID) {
				continue
			}
			t := s.With(ev.ID)
			if seen[t] {
				continue
			}
			if n.Enables(s, ev.ID) && n.Con(t) {
				seen[t] = true
				queue = append(queue, t)
			}
		}
	}
	out := make([]Set, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// maxSequences bounds allowed-sequence enumeration.
const maxSequences = 200000

// AllowedSequences enumerates every nonempty event sequence allowed by the
// NES (Section 2: each prefix consistent and enabled). The result includes
// non-maximal sequences, as Definition 6 quantifies over all of them.
func (n *NES) AllowedSequences() ([][]int, error) {
	var out [][]int
	var cur []int
	var rec func(s Set) error
	rec = func(s Set) error {
		if len(out) > maxSequences {
			return fmt.Errorf("nes: more than %d allowed sequences", maxSequences)
		}
		for _, ev := range n.Events {
			if s.Has(ev.ID) {
				continue
			}
			t := s.With(ev.ID)
			if !n.Enables(s, ev.ID) || !n.Con(t) {
				continue
			}
			cur = append(cur, ev.ID)
			out = append(out, append([]int{}, cur...))
			if err := rec(t); err != nil {
				return err
			}
			cur = cur[:len(cur)-1]
		}
		return nil
	}
	if err := rec(Empty); err != nil {
		return nil, err
	}
	return out, nil
}

// minIncWorkBound caps the hitting-set recursion.
const minIncWorkBound = 1 << 22

// WorkBoundError is MinimallyInconsistent's error when its search takes
// more than Steps steps.
type WorkBoundError struct{ Steps int }

func (e *WorkBoundError) Error() string {
	return fmt.Sprintf("nes: minimal-inconsistency enumeration exceeded %d steps", e.Steps)
}

// MinimallyInconsistent returns every minimally-inconsistent set: an
// inconsistent set all of whose proper subsets are consistent (Section 2,
// "Locality Restrictions").
//
// A set is consistent iff it is contained in some family member, so X is
// inconsistent iff it intersects the complement E \ F of every family
// member F — i.e. X is a hitting set of the complement hypergraph. The
// minimally-inconsistent sets are exactly its minimal hitting sets, which
// are enumerated by branching on the elements of the first un-hit edge.
// This replaces the former exhaustive 2^|E| scan (capped at 20 events) and
// scales to the occurrence-renamed universes of the large sweeps
// (bandwidth-cap-200 has 201 events), whose chain-shaped families resolve
// at once: the full set is a member, so no set is inconsistent.
func (n *NES) MinimallyInconsistent() ([]Set, error) {
	full := make([]byte, (len(n.Events)+7)/8) // event IDs are 0..len-1
	for _, ev := range n.Events {
		full[ev.ID/8] |= 1 << uint(ev.ID%8)
	}
	if _, ok := n.family[Set(full)]; ok {
		return nil, nil // the full universe is consistent
	}
	all := Set(full)
	// Complement edges, keeping only the minimal ones (a superset edge is
	// hit whenever its subset is).
	var edges []Set
	for _, f := range n.familyList {
		edges = append(edges, all.Minus(f))
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].Count() < edges[j].Count() })
	var minimalEdges []Set
	for _, c := range edges {
		redundant := false
		for _, m := range minimalEdges {
			if m.SubsetOf(c) {
				redundant = true
				break
			}
		}
		if !redundant {
			minimalEdges = append(minimalEdges, c)
		}
	}
	edges = minimalEdges

	hitsAll := func(x Set) bool {
		for _, c := range edges {
			if x.Minus(c) == x { // x ∩ c == ∅
				return false
			}
		}
		return true
	}

	work := 0
	seen := map[Set]bool{}
	var found []Set
	var rec func(cur Set, from int) error
	rec = func(cur Set, from int) error {
		if work++; work > minIncWorkBound {
			return &WorkBoundError{Steps: minIncWorkBound}
		}
		next := -1
		for i := from; i < len(edges); i++ {
			if cur.Minus(edges[i]) == cur {
				next = i
				break
			}
		}
		if next == -1 {
			if !seen[cur] {
				seen[cur] = true
				found = append(found, cur)
			}
			return nil
		}
		for _, e := range edges[next].Elems() {
			if err := rec(cur.With(e), next+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(Empty, 0); err != nil {
		return nil, err
	}
	// The recursion reaches every minimal hitting set but may also emit
	// non-minimal ones (a later branch element can subsume an earlier
	// choice); keep exactly the sets all of whose proper subsets miss an
	// edge.
	var out []Set
	for _, x := range found {
		minimal := true
		for _, e := range x.Elems() {
			if hitsAll(x.Without(e)) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out, nil
}

// NotLocalError is the evidence that an NES is not locally determined: a
// minimally-inconsistent set whose events are at more than one switch.
// Theorem 1 covers locally determined NESs only, and Lemma 1 shows that no
// implementation without synchronization can serve one that is not.
type NotLocalError struct {
	Set    Set
	Events []Event // the set's events, in ID order
}

func (e *NotLocalError) Error() string {
	s := fmt.Sprintf("nes: not locally determined: the minimally-inconsistent event-set %v spans switches", e.Set)
	for _, ev := range e.Events {
		s += fmt.Sprintf("; e%d %v at switch %d port %d", ev.ID, ev, ev.Loc.Switch, ev.Loc.Port)
	}
	return s
}

// NonLocal decides Theorem 1's premise (Section 2): every
// minimally-inconsistent set has all of its events at one switch, which
// makes the NES implementable without synchronization. It returns nil for
// a locally determined NES, otherwise the evidence for the first set in
// Set order that is not; its error is MinimallyInconsistent's.
func (n *NES) NonLocal() (*NotLocalError, error) {
	mis, err := n.MinimallyInconsistent()
	if err != nil {
		return nil, err
	}
	for _, s := range mis {
		elems := s.Elems() // never empty: the empty set is a member
		sw := n.Events[elems[0]].Loc.Switch
		for _, e := range elems[1:] {
			if n.Events[e].Loc.Switch != sw {
				nl := &NotLocalError{Set: s}
				for _, x := range elems {
					nl.Events = append(nl.Events, n.Events[x])
				}
				return nl, nil
			}
		}
	}
	return nil, nil
}

// LocallyDetermined reports NonLocal's verdict as a bool.
func (n *NES) LocallyDetermined() (bool, error) {
	nl, err := n.NonLocal()
	return nl == nil && err == nil, err
}

// String summarizes the NES.
func (n *NES) String() string {
	s := fmt.Sprintf("NES: %d events, %d event-sets, %d configs\n", len(n.Events), len(n.familyList), len(n.Configs))
	for _, ev := range n.Events {
		s += fmt.Sprintf("  e%d = %v\n", ev.ID, ev)
	}
	for _, f := range n.familyList {
		s += fmt.Sprintf("  g(%v) = C%d (%s)\n", f, n.family[f], n.Configs[n.family[f]].Label)
	}
	return s
}
