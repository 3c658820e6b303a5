package ets

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"eventnet/internal/nes"
)

// Loop support (Section 3.1): the paper's core development assumes
// loop-free ETSs, and sketches two extensions — enforcing the locality
// restriction on every (non-singleton) strongly-connected component so
// that event occurrences can be timestamped at a single switch, and
// unrolling loops by renaming repeated events. This file implements both:
// finish finds the SCCs of the graph the walk explored, and a cyclic
// Build returns them, with per-SCC locality, in a LoopError; and
// Compile with rounds > 0 produces a loop-free ETS by bounding the number
// of transitions, with each traversal of a loop yielding fresh renamed
// event occurrences.

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

// LoopError is Build's error when the reachable state graph has a cycle;
// Report is its SCC structure. Compile unrolls such programs to a round
// bound.
type LoopError struct {
	Report *LoopReport
}

func (e *LoopError) Error() string {
	return "ets: the transition system has a loop (loop-free ETSs required)"
}

// loopReport is the SCC structure of the explored graph out, or nil when
// every SCC is one state (the walk drops self-loops, so the graph is then
// acyclic).
func (e *ETS) loopReport(out [][]rawEdge) *LoopReport {
	comp, n := tarjan(out)
	if n == len(out) {
		return nil
	}
	sccs := make([]SCC, n)
	for v, c := range comp {
		sccs[c].States = append(sccs[c].States, e.Vertices[v].State.Key())
	}
	switches := make([]map[int]bool, n)
	for _, rs := range out {
		for _, r := range rs {
			if c := comp[r.from]; c == comp[r.to] {
				if switches[c] == nil {
					switches[c] = map[int]bool{}
				}
				switches[c][r.ed.Loc.Switch] = true
			}
		}
	}
	report := &LoopReport{HasLoops: true, LocalityOK: true}
	for c := range sccs {
		scc := &sccs[c]
		sort.Strings(scc.States)
		scc.Singleton = switches[c] == nil
		scc.EventSwitches = slices.Sorted(maps.Keys(switches[c]))
		if len(scc.EventSwitches) > 1 {
			report.LocalityOK = false
		}
	}
	sort.Slice(sccs, func(i, j int) bool { return sccs[i].States[0] < sccs[j].States[0] })
	report.SCCs = sccs
	return report
}

// tarjan numbers the strongly-connected components of out, returning a
// component per vertex and the number of components. A vertex is on
// Tarjan's stack exactly when it is indexed and has no component yet.
func tarjan(out [][]rawEdge) (comp []int, n int) {
	const unvisited = -1
	index := make([]int, len(out))
	low := make([]int, len(out))
	comp = make([]int, len(out))
	for i := range index {
		index[i], comp[i] = unvisited, unvisited
	}
	stack := make([]int, 0, len(out))
	counter := 0
	var strong func(v int)
	strong = func(v int) {
		index[v], low[v] = counter, counter
		counter++
		stack = append(stack, v)
		for _, r := range out[v] {
			if w := r.to; index[w] == unvisited {
				strong(w)
				low[v] = min(low[v], low[w])
			} else if comp[w] == unvisited {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				comp[w] = n
				if w == v {
					break
				}
			}
			n++
		}
	}
	for v := range out {
		if index[v] == unvisited {
			strong(v)
		}
	}
	return comp, n
}

// maxUnrollVertices bounds the unrolled state space.
const maxUnrollVertices = 10000

// finish rejects loops with a LoopError, then performs occurrence
// renaming and event-ID assignment over raw edges (shared by Build and
// Compile's unrolling).
func (e *ETS) finish(raw []rawEdge) error {
	out := outEdges(len(e.Vertices), raw, func(r rawEdge) int { return r.from })
	if report := e.loopReport(out); report != nil {
		return &LoopError{Report: report}
	}
	// Occurrence counts along the paths to each vertex: one row per
	// vertex, one column per distinct label.
	labels := map[string]int32{}
	for _, rs := range out {
		for i := range rs {
			l, ok := labels[rs[i].ed.Label()]
			if !ok {
				l = int32(len(labels))
				labels[rs[i].ed.Label()] = l
			}
			rs[i].label = l
		}
	}
	nl := len(labels)
	counts, reached := make([]int32, len(e.Vertices)*nl), make([]bool, len(e.Vertices))
	row := func(v int) []int32 { return counts[v*nl : (v+1)*nl] }
	reached[e.Init] = true
	order := []int{e.Init}
	for qi := 0; qi < len(order); qi++ {
		base := row(order[qi])
		for _, r := range out[order[qi]] {
			// The counts along this path: base with r's event once more,
			// counted in place and taken back, copied only for a new vertex.
			base[r.label]++
			if !reached[r.to] {
				reached[r.to] = true
				copy(row(r.to), base)
				order = append(order, r.to)
			} else if !slices.Equal(row(r.to), base) {
				return fmt.Errorf("ets: ambiguous event occurrence counts at state %v (two paths disagree)", e.Vertices[r.to].State)
			}
			base[r.label]--
		}
	}
	type occurrence struct{ label, occ int32 }
	eventID := map[occurrence]int{}
	for _, v := range order {
		for _, r := range out[v] {
			key := occurrence{r.label, row(v)[r.label] + 1}
			id, ok := eventID[key]
			if !ok {
				id = len(e.Events)
				if id >= nes.MaxEvents {
					return fmt.Errorf("ets: program needs more than %d events", nes.MaxEvents)
				}
				eventID[key] = id
				e.Events = append(e.Events, nes.Event{ID: id, Guard: r.ed.Guard, Loc: r.ed.Loc, Occurrence: int(key.occ), Label: r.ed.Label()})
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
