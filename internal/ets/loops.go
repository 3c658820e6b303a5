package ets

import (
	"fmt"
	"maps"
	"sort"

	"eventnet/internal/nes"

	"eventnet/internal/nkc"
	"eventnet/internal/stateful"
	"eventnet/internal/topo"
)

// Loop support (Section 3.1): the paper's core development assumes
// loop-free ETSs, and sketches two extensions — enforcing the locality
// restriction on every (non-singleton) strongly-connected component so
// that event occurrences can be timestamped at a single switch, and
// unrolling loops by renaming repeated events. This file implements both:
// AnalyzeLoops computes the SCC structure and checks per-SCC locality, and
// BuildUnrolled produces a loop-free ETS by bounding the number of
// transitions, with each traversal of a loop yielding fresh renamed event
// occurrences.

// SCC is one strongly-connected component of the state graph.
type SCC struct {
	States    []string // state-vector keys
	Singleton bool     // single state with no self-loop
	// EventSwitches are the switches where the SCC's internal events
	// occur; locality requires a single switch for non-singleton SCCs.
	EventSwitches []int
}

// LoopReport summarizes the loop structure of a program's state graph.
type LoopReport struct {
	SCCs     []SCC
	HasLoops bool
	// LocalityOK reports whether every non-singleton SCC has all its
	// internal events at one switch (the paper's condition for the
	// timestamping implementation).
	LocalityOK bool
}

// AnalyzeLoops computes the SCC structure of the program's reachable
// state graph.
func AnalyzeLoops(p stateful.Program) (*LoopReport, error) {
	states, edges, err := p.ReachableStates()
	if err != nil {
		return nil, err
	}
	idx := map[string]int{}
	for i, s := range states {
		idx[s.Key()] = i
	}
	adj := make([][]int, len(states))
	type edgeInfo struct {
		from, to int
		sw       int
	}
	var einfo []edgeInfo
	for _, e := range edges {
		f, t := idx[e.From.Key()], idx[e.To.Key()]
		adj[f] = append(adj[f], t)
		einfo = append(einfo, edgeInfo{from: f, to: t, sw: e.Loc.Switch})
	}

	comp := tarjan(len(states), adj)
	nComp := 0
	for _, c := range comp {
		if c+1 > nComp {
			nComp = c + 1
		}
	}
	members := make([][]int, nComp)
	for v, c := range comp {
		members[c] = append(members[c], v)
	}

	report := &LoopReport{LocalityOK: true}
	for _, vs := range members {
		scc := SCC{Singleton: len(vs) == 1}
		for _, v := range vs {
			scc.States = append(scc.States, states[v].Key())
		}
		sort.Strings(scc.States)
		swSet := map[int]bool{}
		for _, e := range einfo {
			if comp[e.from] == comp[e.to] && comp[e.from] == comp[vs[0]] {
				swSet[e.sw] = true
				scc.Singleton = false
			}
		}
		for sw := range swSet {
			scc.EventSwitches = append(scc.EventSwitches, sw)
		}
		sort.Ints(scc.EventSwitches)
		if !scc.Singleton {
			report.HasLoops = true
			if len(scc.EventSwitches) > 1 {
				report.LocalityOK = false
			}
		}
		report.SCCs = append(report.SCCs, scc)
	}
	sort.Slice(report.SCCs, func(i, j int) bool { return report.SCCs[i].States[0] < report.SCCs[j].States[0] })
	return report, nil
}

// tarjan computes strongly-connected components, returning a component
// index per vertex.
func tarjan(n int, adj [][]int) []int {
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	comp := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int
	counter, nComp := 0, 0
	var strong func(v int)
	strong = func(v int) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if index[w] == unvisited {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = nComp
				if w == v {
					break
				}
			}
			nComp++
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == unvisited {
			strong(v)
		}
	}
	return comp
}

// maxUnrollVertices bounds the unrolled state space.
const maxUnrollVertices = 10000

// BuildUnrolled builds a loop-free ETS from a (possibly cyclic) program
// by bounding the number of transitions to maxRounds: vertices are
// (state, transitions-taken) pairs, so each traversal of a loop produces
// fresh renamed event occurrences — the Section 3.1 unrolling. The
// resulting NES is a sound under-approximation: it implements the program
// faithfully for executions with at most maxRounds events.
func BuildUnrolled(p stateful.Program, t *topo.Topology, maxRounds int) (*ETS, error) {
	if maxRounds < 1 {
		return nil, fmt.Errorf("ets: maxRounds must be positive")
	}
	pc, err := nkc.NewProgramCompiler(p.Cmd, t, nil)
	if err != nil {
		return nil, err
	}
	// The raw edges stay in discovery order: the copies of a state share
	// their edges' keys, so sorting by key would need to be stable.
	e, raw, err := walk(pc, p.Init, t, maxRounds)
	if err != nil {
		return nil, err
	}
	if err := e.finish(raw); err != nil {
		return nil, err
	}
	return e, nil
}

// finish rejects loops, then performs occurrence renaming and event-ID
// assignment over raw edges (shared by Build and BuildUnrolled).
func (e *ETS) finish(raw []rawEdge) error {
	out := outEdges(len(e.Vertices), raw, func(r rawEdge) int { return r.from })
	if err := checkAcyclic(out, e.Init); err != nil {
		return err
	}
	counts := make([]map[string]int, len(e.Vertices))
	counts[e.Init] = map[string]int{}
	order := []int{e.Init}
	for qi := 0; qi < len(order); qi++ {
		base := counts[order[qi]]
		for _, r := range out[order[qi]] {
			// The counts along this path: base with r's event once more,
			// counted in place and taken back, copied only for a new vertex.
			label := r.ed.Label()
			base[label]++
			if counts[r.to] == nil {
				counts[r.to] = maps.Clone(base)
				order = append(order, r.to)
			} else if !maps.Equal(counts[r.to], base) {
				return fmt.Errorf("ets: ambiguous event occurrence counts at state %v (two paths disagree)", e.Vertices[r.to].State)
			}
			if base[label]--; base[label] == 0 {
				delete(base, label)
			}
		}
	}
	type occurrence struct {
		label string
		occ   int
	}
	eventID := map[occurrence]int{}
	for _, v := range order {
		for _, r := range out[v] {
			key := occurrence{r.ed.Label(), counts[v][r.ed.Label()] + 1}
			id, ok := eventID[key]
			if !ok {
				id = len(e.Events)
				if id >= nes.MaxEvents {
					return fmt.Errorf("ets: program needs more than %d events", nes.MaxEvents)
				}
				eventID[key] = id
				e.Events = append(e.Events, nes.Event{ID: id, Guard: r.ed.Guard, Loc: r.ed.Loc, Occurrence: key.occ, Label: key.label})
			}
			e.Edges = append(e.Edges, Edge{From: r.from, To: r.to, Event: id})
		}
	}
	sort.Slice(e.Edges, func(i, j int) bool {
		if e.Edges[i].From != e.Edges[j].From {
			return e.Edges[i].From < e.Edges[j].From
		}
		return e.Edges[i].Event < e.Edges[j].Event
	})
	return nil
}
