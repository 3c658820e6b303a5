package ets

import (
	"fmt"
	"math/bits"
	"sort"

	"eventnet/internal/nes"
	"eventnet/internal/nkc"
	"eventnet/internal/stateful"
	"eventnet/internal/topo"
)

// maxPaths bounds the distinct (vertex, event-set) pairs family
// construction expands.
const maxPaths = 200000

// Family computes F(T): the set of event-sets collected along every path
// from the initial vertex (Section 3.1), each mapped to the vertex where
// its paths end. It enforces the two ETS-to-NES conditions:
//
//  1. every event-set corresponds to exactly one configuration, and
//  2. the family is finite-complete (pairwise least upper bounds exist
//     whenever an upper bound does).
func (e *ETS) Family() (map[nes.Set]int, error) {
	out := outEdges(len(e.Vertices), e.Edges, func(ed Edge) int { return ed.From })
	family := map[nes.Set]int{}
	// Paths that arrive at v with the same event-set continue alike, so a
	// pair is expanded once: k independent events cost 2^k pairs, not k!
	// paths. A set's first arrival is its family entry, expanded then;
	// only its arrivals at other vertices need a record of their own.
	type arrival struct {
		v int
		s nes.Set
	}
	also, expanded := map[arrival]bool{}, 0
	var dfs func(v int, s nes.Set) error
	dfs = func(v int, s nes.Set) error {
		if prev, ok := family[s]; !ok {
			family[s] = v
		} else if prev == v || also[arrival{v, s}] {
			return nil
		} else if e.Vertices[prev].Tables.String() != e.Vertices[v].Tables.String() {
			// Condition 1: all paths with the same event-set must end at
			// states labeled with the same configuration.
			return fmt.Errorf("ets: event-set %v reaches two different configurations (states %v and %v)",
				s, e.Vertices[prev].State, e.Vertices[v].State)
		} else {
			also[arrival{v, s}] = true
		}
		if expanded++; expanded > maxPaths {
			return fmt.Errorf("ets: more than %d (state, event-set) pairs during family construction", maxPaths)
		}
		for _, ed := range out[v] {
			if s.Has(ed.Event) {
				// Re-occurrence along a path would need renaming beyond
				// what occurrence counting produced; cannot happen in an
				// acyclic ETS with consistent counts.
				return fmt.Errorf("ets: event %d repeats along a path", ed.Event)
			}
			if err := dfs(ed.To, s.With(ed.Event)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := dfs(e.Init, nes.Empty); err != nil {
		return nil, err
	}
	if _, err := checkFiniteComplete(family); err != nil {
		return nil, err
	}
	return family, nil
}

// checkCost counts the explicit work of one finite-completeness check.
type checkCost struct{ subsetTests, unionLookups int }

// checkFiniteComplete verifies condition 2 of Section 3.1: for any two
// family members with an upper bound in the family, their union is also a
// member. (Pairwise closure implies the condition for arbitrary finite
// collections by induction, the family being finite.)
//
// The union of comparable members is the larger one, so only incomparable
// pairs need the check. Sorted by (Count, Less) every member follows its
// subsets, and member i's down-set {j : Fj ⊆ Fi} is built as a bitset
// over member indices: scanning j down from i, a j already in it is
// skipped, and a j that is a subset brings its whole down-set along. A
// chain costs one subset test per member and has no incomparable pair. A
// violation names the first pair in (Count, Less) order.
func checkFiniteComplete(family map[nes.Set]int) (cost checkCost, err error) {
	n, width := len(family), 0
	type member struct {
		set   nes.Set
		count int
	}
	sets := make([]member, 0, n)
	for s := range family {
		sets = append(sets, member{s, s.Count()})
		width = max(width, len(s))
	}
	sort.Slice(sets, func(i, j int) bool {
		if sets[i].count != sets[j].count {
			return sets[i].count < sets[j].count
		}
		return sets[i].set.Less(sets[j].set)
	})
	// Members as rows of w words, down-sets as rows of fw words.
	w, fw := (width+7)/8, (n+63)/64
	rows, down := make([]uint64, n*w), make([]uint64, n*fw)
	for i, m := range sets {
		for k := 0; k < len(m.set); k++ {
			rows[i*w+k/8] |= uint64(m.set[k]) << (8 * uint(k%8))
		}
	}
	incomparable := 0
	for i := 0; i < n; i++ {
		ri, di := rows[i*w:(i+1)*w], down[i*fw:(i+1)*fw]
		di[i/64] |= 1 << uint(i%64)
		for k := i / 64; k >= 0; k-- {
			todo := ^uint64(0) // the j < i of word k not yet known to be below i
			if k == i/64 {
				todo = 1<<uint(i%64) - 1
			}
			for todo &^= di[k]; todo != 0; todo &^= di[k] {
				j := k*64 + bits.Len64(todo) - 1
				todo &^= 1 << uint(j%64)
				cost.subsetTests++
				if !subsetWords(rows[j*w:(j+1)*w], ri) {
					incomparable++
					continue
				}
				for kk, x := range down[j*fw : (j+1)*fw] {
					di[kk] |= x
				}
			}
		}
	}
	if incomparable == 0 {
		return cost, nil
	}
	// Fa and Fb have an upper bound exactly when their up-sets {m : F ⊆ Fm}
	// — the transpose of the down-sets — intersect.
	up := make([]uint64, n*fw)
	for i := 0; i < n; i++ {
		for k, x := range down[i*fw : (i+1)*fw] {
			for ; x != 0; x &= x - 1 {
				up[(k*64+bits.TrailingZeros64(x))*fw+i/64] |= 1 << uint(i%64)
			}
		}
	}
	buf := make([]byte, width)
	for a := 0; a < n; a++ {
		ua := up[a*fw : (a+1)*fw]
		for k := a / 64; k < fw; k++ {
			todo := ^ua[k] // the b > a of word k incomparable with a
			if k == a/64 {
				todo &^= 1<<uint(a%64) - 1
			}
			if k == fw-1 {
				todo &= ^uint64(0) >> uint(fw*64-n)
			}
			for ; todo != 0; todo &= todo - 1 {
				b := k*64 + bits.TrailingZeros64(todo)
				if !intersectWords(ua, up[b*fw:(b+1)*fw]) {
					continue
				}
				long, short := sets[a].set, sets[b].set
				if len(short) > len(long) {
					long, short = short, long
				}
				u := buf[:copy(buf, long)]
				for i := 0; i < len(short); i++ {
					u[i] |= short[i]
				}
				cost.unionLookups++
				if _, ok := family[nes.Set(u)]; !ok {
					return cost, fmt.Errorf("ets: family is not finite-complete: %v and %v have an upper bound but %v is missing (the Figure 3(c) violation)",
						sets[a].set, sets[b].set, nes.Set(u))
				}
			}
		}
	}
	return cost, nil
}

func subsetWords(s, t []uint64) bool {
	for k, x := range s {
		if x&^t[k] != 0 {
			return false
		}
	}
	return true
}

func intersectWords(s, t []uint64) bool {
	for k, x := range s {
		if x&t[k] != 0 {
			return true
		}
	}
	return false
}

// ToNES converts the ETS to a network event structure (Section 3.1): the
// family becomes the consistency predicate and enabling relation via
// Winskel's Theorem 1.1.12, and g maps each event-set to the configuration
// of the vertex its paths reach.
func (e *ETS) ToNES() (*nes.NES, error) {
	family, err := e.Family()
	if err != nil {
		return nil, err
	}
	configs := make([]nes.Config, len(e.Vertices))
	for i, v := range e.Vertices {
		if v.key == "" { // a vertex the walk did not build
			v.key = v.State.Key()
		}
		configs[i] = nes.Config{
			ID:     i,
			Label:  v.key,
			Tables: v.Tables,
			Rel:    &nkc.CompiledConfig{Tables: v.Tables, Topo: e.Topo},
		}
	}
	return nes.New(e.Events, family, configs)
}

// Compile is the one path from a program to its NES. It builds p's ETS
// over t, on cache when it is not nil, converts it, and refuses an NES
// that is not locally determined with nes.NonLocal's *nes.NotLocalError:
// Theorem 1 covers no other (Section 2, Lemma 1). With rounds == 0 a
// cyclic program is refused with a *LoopError; with rounds > 0 its state
// graph is unrolled to rounds transitions, so each traversal of a loop
// yields fresh renamed event occurrences (Section 3.1). The unrolled NES
// implements the program faithfully for executions of at most rounds
// events, and an unrolling on the cache of the refused build reuses every
// segment and walk that build compiled.
func Compile(p stateful.Program, t *topo.Topology, cache *nkc.ProgramCache, rounds int) (*ETS, *nes.NES, Stats, error) {
	if rounds < 0 {
		return nil, nil, Stats{}, fmt.Errorf("ets: %d unrolling rounds", rounds)
	}
	e, stats, err := buildETS(p, t, Options{Cache: cache}, rounds)
	if err != nil {
		return nil, nil, Stats{}, err
	}
	n, err := e.ToNES()
	if err != nil {
		return nil, nil, Stats{}, err
	}
	if nl, err := n.NonLocal(); nl != nil {
		return nil, nil, Stats{}, nl
	} else if err != nil {
		return nil, nil, Stats{}, err
	}
	return e, n, stats, nil
}

// String summarizes the ETS.
func (e *ETS) String() string {
	s := fmt.Sprintf("ETS: %d states, %d transitions, %d events (initial %v)\n",
		len(e.Vertices), len(e.Edges), len(e.Events), e.Vertices[e.Init].State)
	for _, ed := range e.Edges {
		s += fmt.Sprintf("  %v --%v--> %v\n", e.Vertices[ed.From].State, e.Events[ed.Event], e.Vertices[ed.To].State)
	}
	return s
}
