// Package eventnet is a Go implementation of "Event-Driven Network
// Programming" (McClurg, Hojjat, Foster, Černý; PLDI 2016): Stateful
// NetKAT programs compiled through event-driven transition systems (ETSs)
// and network event structures (NESs) to per-switch flow tables, executed
// by a provably-correct tag-and-digest runtime, and checked against the
// paper's event-driven consistent-update semantics.
//
// The root package is a facade over the building blocks in internal/:
//
//	syntax   — concrete Stateful NetKAT syntax (lexer, parser, printer)
//	stateful — Stateful NetKAT AST, projection ⟦p⟧k, event extraction
//	netkat   — static NetKAT: packets, predicates, policies, evaluator
//	nkc      — NetKAT compiler to prioritized flow tables: one
//	           compiler (forwarding decision diagrams) and its
//	           DNF/strand test oracle (see docs/ARCHITECTURE.md)
//	ets      — event-driven transition systems and their checks
//	nes      — network event structures (con, ⊢, g, locality)
//	trace    — the Definition 2/6 consistency oracle
//	runtime  — the Figure 7 operational semantics, executable
//	sim      — timed simulator with tagged and uncoordinated planes
//	optimize — the Section 5.3 rule-sharing trie
//	apps     — the paper's five applications and the ring
//
// A typical use:
//
//	app := eventnet.Firewall()
//	sys, err := eventnet.Compile(app.Prog, app.Topo)
//	m := sys.NewMachine(1, false)
//	m.Inject("H1", netkat.Packet{"dst": 104})
//	m.RunToQuiescence()
//	err = sys.CheckTrace(m.NetTrace())
package eventnet

import (
	"eventnet/internal/apps"
	"eventnet/internal/ets"
	"eventnet/internal/nes"
	"eventnet/internal/runtime"
	"eventnet/internal/sim"
	"eventnet/internal/stateful"
	"eventnet/internal/topo"
	"eventnet/internal/trace"
)

// Program is a Stateful NetKAT program with its initial state vector.
type Program = stateful.Program

// Topology is a network of switches, hosts, and links.
type Topology = topo.Topology

// App bundles a program with its topology.
type App = apps.App

// Machine is the Figure 7 abstract machine executing a compiled system
// (see System.NewMachine).
type Machine = runtime.Machine

// System is a compiled event-driven network program: the ETS extracted
// from the Stateful NetKAT program and the NES that implements it.
type System struct {
	ETS *ets.ETS
	NES *nes.NES
}

// Compile builds the full pipeline of Section 3 through ets.Compile:
// reachable states are projected (Figure 5) and compiled to flow tables,
// event edges are extracted (Figure 6), the ETS conditions of Section 3.1
// are checked, and the NES is constructed. An NES that is not locally
// determined, which Theorem 1 does not cover, is refused with a
// *nes.NotLocalError naming a minimally-inconsistent set and its events.
//
// Construction is one serial breadth-first walk of the reachable states,
// and per-state configurations compile as deltas — only sub-policies whose
// state guards changed re-enter FDD translation, with unchanged strands
// and tables reused across states (see docs/PIPELINE.md).
func Compile(p Program, t *Topology) (*System, error) {
	e, n, _, err := ets.Compile(p, t, nil, 0)
	if err != nil {
		return nil, err
	}
	return &System{ETS: e, NES: n}, nil
}

// NewMachine builds a Figure 7 abstract machine executing the system
// under a seeded random scheduler. ctrlAssist enables the optional
// controller broadcast rules.
func (s *System) NewMachine(seed int64, ctrlAssist bool) *runtime.Machine {
	return runtime.New(s.NES, s.ETS.Topo, seed, ctrlAssist)
}

// NewSim builds a timed simulation of the system. kind selects the
// correct (tagged) plane or the uncoordinated baseline.
func (s *System) NewSim(kind sim.PlaneKind, p sim.Params, seed int64) *sim.Sim {
	return sim.New(s.ETS.Topo, sim.NewPlane(kind, s.NES), p, seed)
}

// CheckTrace verifies a recorded network trace against the system's NES
// per Definition 6 (the paper's event-driven consistency).
func (s *System) CheckTrace(nt *trace.NetTrace) error {
	return trace.CheckNES(nt, s.NES, s.ETS.Topo.HostLocs())
}

// TotalRules returns the number of flow-table rules across all
// configurations and switches (the paper's in-text metric).
func (s *System) TotalRules() int { return s.NES.TotalRules() }

// The paper's applications (Figures 8-9) re-exported for convenience.
var (
	Firewall       = apps.Firewall
	LearningSwitch = apps.LearningSwitch
	Authentication = apps.Authentication
	BandwidthCap   = apps.BandwidthCap
	IDS            = apps.IDS
	Ring           = apps.Ring
)
