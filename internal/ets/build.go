package ets

// ETS construction: one serial breadth-first walk from the initial state
// vector, taking ⟦p⟧k and ⟪p⟫k of each state from one call into one
// incremental compiler (nkc.ProgramCompiler.Explore). Every shipped
// program's ETS has one state per BFS level (distributed-firewall has one
// level of two), so a state is never discovered before its only
// predecessor is finished and a second worker has nothing to do; the
// measurements are in docs/PIPELINE.md, "ETS construction".

import (
	"fmt"
	"slices"

	"eventnet/internal/flowtable"
	"eventnet/internal/nkc"
	"eventnet/internal/stateful"
	"eventnet/internal/topo"
)

// Options tunes BuildWithOptions.
type Options struct {
	Workers int // accepted and ignored; named by bench/
	// Cache, when non-nil, is a cross-build compiler cache: the
	// incremental compiler is built on its FDD context and interners
	// instead of fresh ones, so successive builds — the program revisions
	// of a live controller — reuse FDDs, segments, walks and tables across
	// generations. The cache serializes builds; the resulting ETS is
	// byte-identical with and without a cache. Every build has a compiler
	// of its own, so hit/miss stats count that build's lookups, while
	// Strands/FDDNodes report the cache's cumulative store sizes.
	Cache *nkc.ProgramCache
}

// Stats reports what one Build did: the explored graph and the
// effectiveness of the cross-state compilation caches (see
// nkc.CacheStats for field meanings).
type Stats struct {
	States int
	Edges  int
	Events int
	Cache  nkc.CacheStats
}

// String renders the stats.
func (s Stats) String() string {
	return fmt.Sprintf("%d states, %d edges, %d events; %s",
		s.States, s.Edges, s.Events, s.Cache)
}

// explored is the recorded outcome for one state.
type explored struct {
	state  stateful.State
	edges  []stateful.Edge // non-self, sorted by key; raw edges point into it
	tables flowtable.Tables
}

// BuildWithOptions constructs the ETS with explicit options, returning
// build statistics alongside. See Build for semantics.
func BuildWithOptions(p stateful.Program, t *topo.Topology, o Options) (*ETS, Stats, error) {
	return buildETS(p, t, o, 0)
}

// buildETS walks p's state space, unrolled to maxRounds transitions when
// maxRounds > 0, on a compiler from o.Cache or a fresh one, and finishes
// the ETS: the one body of BuildWithOptions and Compile.
func buildETS(p stateful.Program, t *topo.Topology, o Options, maxRounds int) (*ETS, Stats, error) {
	var (
		pc  *nkc.ProgramCompiler
		err error
	)
	if o.Cache != nil {
		if pc, err = o.Cache.Acquire(p.Cmd, t); err != nil {
			return nil, Stats{}, err
		}
		defer o.Cache.Release()
	} else if pc, err = nkc.NewProgramCompiler(p.Cmd, t, nil); err != nil {
		return nil, Stats{}, err
	}
	e, raw, err := walk(pc, p.Init, t, maxRounds)
	if err != nil {
		return nil, Stats{}, err
	}
	if err := e.finish(raw); err != nil {
		return nil, Stats{}, err
	}
	return e, Stats{States: len(e.Vertices), Edges: len(e.Edges), Events: len(e.Events), Cache: pc.Stats()}, nil
}

// walk is the breadth-first loop behind Build and Compile: it
// returns the vertices, numbered in discovery order, and the raw edges in
// the order they were followed — by source vertex, each vertex's sorted
// by key as Explore returns them. With rounds == 0 a vertex is a state;
// with rounds > 0 it is a (state, transitions taken) pair and the walk
// stops following edges after rounds transitions. Either way each
// distinct state is explored once, when its first vertex is dequeued —
// the copies of a state share its configuration and its edges.
func walk(pc *nkc.ProgramCompiler, init stateful.State, t *topo.Topology, rounds int) (*ETS, []rawEdge, error) {
	type vertexKey struct {
		state string
		round int
	}
	type item struct {
		vertexKey
		at stateful.State
	}
	first := item{vertexKey{state: init.Key()}, init.Clone()}
	queue := []item{first}
	pos := map[vertexKey]int{first.vertexKey: 0}
	seen := map[string]*explored{}

	e := &ETS{Init: 0, Topo: t}
	var raw []rawEdge
	for id := 0; id < len(queue); id++ {
		cur := queue[id]
		res, ok := seen[cur.state]
		if !ok {
			// An edge that updates the state to itself is not a transition
			// in the ETS sense.
			tables, edges, err := pc.Explore(cur.at)
			if err != nil {
				return nil, nil, fmt.Errorf("ets: compiling configuration for state %v: %w", cur.at, err)
			}
			selfLoop := func(e stateful.Edge) bool { return e.To.Equal(e.From) }
			res = &explored{state: cur.at, edges: slices.DeleteFunc(edges, selfLoop), tables: tables}
			if rounds > 0 { // else every vertex is a new state
				seen[cur.state] = res
			}
		}
		e.Vertices = append(e.Vertices, Vertex{ID: id, State: res.state, Tables: res.tables, key: cur.state})
		next := 0
		if rounds > 0 {
			if cur.round == rounds {
				continue
			}
			next = cur.round + 1
		}
		for i := range res.edges {
			ed := &res.edges[i]
			key := vertexKey{ed.ToKey(), next}
			to, ok := pos[key]
			if !ok {
				to = len(queue)
				if rounds == 0 && to >= stateful.MaxStates {
					return nil, nil, fmt.Errorf("ets: more than %d reachable states", stateful.MaxStates)
				}
				if rounds > 0 && to >= maxUnrollVertices {
					return nil, nil, fmt.Errorf("ets: unrolled state space exceeds %d vertices", maxUnrollVertices)
				}
				pos[key] = to
				queue = append(queue, item{key, ed.To})
			}
			raw = append(raw, rawEdge{from: id, to: to, ed: ed})
		}
	}
	return e, raw, nil
}
