// Package ets implements event-driven transition systems (Definition 7 of
// the paper): graphs whose vertices are labeled with network
// configurations and whose edges are labeled with events. It builds an ETS
// from a Stateful NetKAT program (Section 3.3), checks the two conditions
// under which the ETS's family of event-sets forms a valid NES
// (Section 3.1), and performs the conversion to an NES.
//
// Construction is one serial breadth-first walk (build.go): each state's
// configuration and event-edges come from one call into one
// nkc.ProgramCompiler, which reuses segment FDDs across states by shape
// and truth vector and tables by hop list — see docs/PIPELINE.md for the
// full pipeline and the cache design.
package ets

import (
	"eventnet/internal/flowtable"
	"eventnet/internal/nes"
	"eventnet/internal/stateful"
	"eventnet/internal/topo"
)

// Vertex is an ETS node: a state vector together with its compiled
// configuration. The projected NetKAT policy is not materialized (it is
// derivable as stateful.Project(cmd, State) and was dead weight at scale
// — an O(|program|) AST per state). Tables is read-only: vertices whose
// switch behaves identically hold the same *flowtable.Table, as do the
// vertices of every other program compiled through the same
// nkc.ProgramCache (chaos.TestSharedTablesReadOnly is the aliasing guard).
type Vertex struct {
	ID     int
	State  stateful.State
	Tables flowtable.Tables
	key    string // State.Key(), as the walk rendered it
}

// Edge is an ETS transition labeled with an event occurrence.
type Edge struct {
	From, To int // vertex IDs
	Event    int // event ID in the ETS's event universe
}

// ETS is an event-driven transition system.
type ETS struct {
	Vertices []Vertex
	Edges    []Edge
	Events   []nes.Event
	Init     int
	Topo     *topo.Topology
}

// Build constructs the ETS of a Stateful NetKAT program over a topology
// (the ETS(p) function of Section 3.3): vertices are the reachable state
// vectors with their projected-and-compiled configurations; edges carry
// occurrence-renamed events (Section 3.1's renaming for events encountered
// multiple times along an execution). Vertices are numbered in
// breadth-first discovery order.
func Build(p stateful.Program, t *topo.Topology) (*ETS, error) {
	e, _, err := BuildWithOptions(p, t, Options{})
	return e, err
}

// rawEdge is an un-renamed transition during ETS construction: the
// extracted edge between vertex IDs, and its label's id (finish).
type rawEdge struct {
	from, to int
	ed       *stateful.Edge
	label    int32
}

// outEdges groups edges by source vertex, keeping their order within a
// vertex, in one backing array: the one adjacency that finish, its SCC
// pass and Family walk.
func outEdges[E any](nv int, edges []E, from func(E) int) [][]E {
	n := make([]int, nv)
	for _, ed := range edges {
		n[from(ed)]++
	}
	out, flat := make([][]E, nv), make([]E, len(edges))
	for v, k := range n {
		out[v], flat = flat[:0:k], flat[k:]
	}
	for _, ed := range edges {
		v := from(ed)
		out[v] = append(out[v], ed)
	}
	return out
}
