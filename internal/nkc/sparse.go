package nkc

// Sparse projection: the per-state half of ProgramCompiler. The first
// state a compiler is given is walked in full and becomes its reference;
// every later state re-evaluates only the strands that test an atom on
// which it differs from the reference (docs/PIPELINE.md, "Sparse
// projection").

import (
	"slices"
	"strings"

	"eventnet/internal/flowtable"
	"eventnet/internal/netkat"
	"eventnet/internal/stateful"
)

// strandEval is what one strand contributes to a state's configuration
// and event-edges. Both halves are functions of the truth values of the
// strand's own state tests, so an evaluation holds for every state that
// agrees with the evaluated one on those tests.
type strandEval struct {
	hops  []cachedHop
	edges []stateful.EdgeTemplate
}

func (ev *strandEval) empty() bool { return len(ev.hops) == 0 && len(ev.edges) == 0 }

// refState is the one state a compiler walked in full. Its hops are
// diagrams of the compiler's FDD context and live exactly as long as it.
type refState struct {
	state stateful.State
	sig   []byte       // whole-program truth vector (GuardIndex.AppendSig)
	evals []strandEval // per strand
	live  []int32      // strands whose evaluation is non-empty, ascending
}

// Compile returns the flow tables of the configuration projected at state
// k. The result is read-only, map and tables both: the map may be shared
// with other states and later calls, each *flowtable.Table with every
// configuration compiled in this FDD context whose switch behaves the
// same. To edit a table, clone it first.
func (pc *ProgramCompiler) Compile(k stateful.State) (flowtable.Tables, error) {
	t, _, err := pc.Explore(k)
	return t, err
}

// Explore returns ⟦p⟧k compiled and ⟪p⟫k: the flow tables of the
// configuration projected at state k (read-only and shared, as for
// Compile) and the event-edges leaving k, deduplicated and sorted by
// key exactly as stateful.Events returns them. Edges of different states
// may share a guard; it must not be modified.
func (pc *ProgramCompiler) Explore(k stateful.State) (flowtable.Tables, []stateful.Edge, error) {
	ref := pc.ref
	pc.touched = pc.touched[:0]
	if ref == nil {
		pc.sigScratch = pc.guards.AppendSig(pc.sigScratch[:0], k)
		ref = &refState{
			state: k.Clone(),
			sig:   slices.Clone(pc.sigScratch),
			evals: make([]strandEval, len(pc.strands)),
		}
		for si := range pc.strands {
			ev, err := pc.evalStrand(si, k)
			if err != nil {
				return nil, nil, err
			}
			ref.evals[si] = ev
			if !ev.empty() {
				ref.live = append(ref.live, int32(si))
			}
		}
		pc.ref = ref
	} else {
		// k's truth vector is the reference's with the delta flipped, and
		// only strands testing a flipped atom can evaluate differently.
		pc.delta = pc.guards.AppendDiff(pc.delta[:0], ref.state, k)
		pc.sigScratch = append(pc.sigScratch[:0], ref.sig...)
		for _, p := range pc.delta {
			pc.sigScratch[p>>3] ^= 1 << uint(p&7)
			pc.touched = append(pc.touched, pc.atomStrands[p]...)
		}
		slices.Sort(pc.touched)
		pc.touched = slices.Compact(pc.touched)
	}
	pc.touchedEv = pc.touchedEv[:0]
	for _, si := range pc.touched {
		ev, err := pc.evalStrand(int(si), k)
		if err != nil {
			return nil, nil, err
		}
		pc.touchedEv = append(pc.touchedEv, ev)
	}

	// Splice: the reference's live strands with the touched ones replaced
	// (or inserted), in strand order — the order of a full walk, which is
	// what keeps the per-switch folds, and so the diagrams, those of a
	// from-scratch compile.
	hops := pc.hopBuf[:0]
	var edges []stateful.Edge
	add := func(ev *strandEval) {
		hops = append(hops, ev.hops...)
		for _, t := range ev.edges {
			edges = append(edges, t.At(k))
		}
	}
	ti := 0
	for _, si := range ref.live {
		replaced := false
		for ; ti < len(pc.touched) && pc.touched[ti] <= si; ti++ {
			add(&pc.touchedEv[ti])
			replaced = replaced || pc.touched[ti] == si
		}
		if !replaced {
			add(&ref.evals[si])
		}
	}
	for ; ti < len(pc.touched); ti++ {
		add(&pc.touchedEv[ti])
	}
	pc.hopBuf = hops

	tables, hit, err := assembleTablesFDD(pc.ctx, hops)
	if err != nil {
		return nil, nil, err
	}
	if hit {
		pc.stats.TableHits++
	} else {
		pc.stats.TableMisses++
	}
	slices.SortFunc(edges, func(a, b stateful.Edge) int { return strings.Compare(a.Key(), b.Key()) })
	edges = slices.CompactFunc(edges, func(a, b stateful.Edge) bool { return a.Key() == b.Key() })
	return tables, edges, nil
}

// evalStrand evaluates strand si under the truth vector in sigScratch
// (that of state k): its hops through the segment memo and the strand
// cache, and the templates of the event-edges it raises from the test
// conjunctions reaching its links, through the walk memo: Figure 6 is
// walked only for a (prefix shape, truth vector) pair this context has
// not seen, in any strand of any program.
func (pc *ProgramCompiler) evalStrand(si int, k stateful.State) (strandEval, error) {
	s := &pc.strands[si]
	var ev strandEval
	fdds := pc.fddBuf[:0]
	for i := int(s.seg); i <= int(s.seg+s.n); i++ {
		seg := &pc.segs[i]
		key := segMemoKey{key: seg.key, sig: pc.packSig(pc.testPos[seg.lo:seg.hi], pc.sigScratch)}
		d, ok := pc.ctx.segMemo[key]
		if ok {
			pc.stats.SegmentHits++
		} else {
			pc.stats.SegmentMisses++
			var err error
			if d, err = pc.ctx.ToFDD(stateful.Project(pc.segCmd(i), k)); err != nil {
				return ev, err
			}
			pc.ctx.segMemo[key] = d
		}
		fdds = append(fdds, d)
	}
	pc.fddBuf = fdds
	var err error
	if ev.hops, err = pc.ctx.hopsFor(fdds, pc.links[s.link:s.link+s.n], pc.switches); err != nil {
		return ev, err
	}
	if s.lastUpdate < 0 {
		return ev, nil
	}
	key := segMemoKey{key: s.walkID, sig: pc.packSig(pc.testPos[pc.segs[s.seg].lo:pc.segs[s.seg+s.lastUpdate].hi], pc.sigScratch)}
	reach, ok := pc.ctx.walkMemo[key]
	if ok {
		pc.stats.TemplateHits++
	} else {
		pc.stats.TemplateMisses++
		var err error
		if reach, err = pc.walk(s, k); err != nil {
			return ev, err
		}
		pc.ctx.walkMemo[key] = reach
	}
	// Every state-updating link raises one event per conjunction reaching
	// it. ⟪p + q⟫ is a union and ';' distributes over it, so the templates
	// of all strands together are those of the whole program, as a set.
	for j, phis := range reach {
		if u := pc.updates[int(s.link)+j]; u != nil {
			for _, phi := range phis {
				ev.edges = append(ev.edges, stateful.NewEdgeTemplate(phi, u.Dst, u.Sets))
			}
		}
	}
	return ev, nil
}

// walk is Figure 6 along the segments of strand s up to its last
// state-updating link: the test conjunctions are threaded through the
// segments (the Kleisli composition of ⟪p; q⟫), and a link passes them
// through unchanged. out[j] holds those reaching link j; the walk stops
// early once none do.
func (pc *ProgramCompiler) walk(s *progStrand, k stateful.State) ([][]*netkat.Conj, error) {
	out := make([][]*netkat.Conj, 0, s.lastUpdate+1)
	phis := []*netkat.Conj{netkat.NewConj()}
	for j := int32(0); j <= s.lastUpdate && len(phis) > 0; j++ {
		var err error
		if phis, err = stateful.Tests(pc.segCmd(int(s.seg+j)), k, phis); err != nil {
			return nil, err
		}
		out = append(out, phis)
	}
	return out, nil
}
