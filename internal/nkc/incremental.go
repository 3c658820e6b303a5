package nkc

// Incremental (delta) compilation of Stateful NetKAT programs: the
// per-state configurations of one program are projections of one command
// tree that differ only in the truth values of its state guards, so the
// expensive halves of compilation — strand extraction, per-segment FDD
// translation, symbolic hop execution, per-switch folds, and table
// extraction — are all shareable across states.
//
// A ProgramCompiler extracts the link-strand skeleton from the *stateful*
// command tree once (it is state-independent: projection maps CUnion to
// Union, CSeq to Seq and links to links, so the split is the same for
// every state). State guards are positive atoms state(i)=v, and what a
// strand contributes to a configuration — its hops and the templates of
// the event-edges it can raise — is a function of the truth values of
// the atoms inside that strand alone. So the compiler walks the whole
// skeleton for one state only, the first it is given (the reference
// state, sparse.go), and remembers every strand's contribution; each
// later state asks stateful.GuardIndex.AppendDiff which atoms differ from
// the reference, looks those atoms up in an inverted index atom ->
// strands, re-evaluates just the strands it finds, and splices them in
// strand order into the reference's list. A re-evaluated strand enters
// ToFDD only for segments whose shape — the rendering with every state
// test a placeholder — has not been seen before under the same truth
// vector over those placeholders, walks Figure 6 only for a prefix of
// shapes and truth vector not seen before, and reuses its symbolic
// execution by structural key. A state's spliced hop list is then looked
// up once: states, of this program or another on the context, with equal
// hop lists share one set of tables (fdd_table.go).
//
// A state reached by such a delta walk gets tables byte-identical to
// those of a fresh compiler walking that state in full, and edges
// key-equal to stateful.Events — property-tested here and in
// internal/ets — because a strand's contribution depends on its own
// atoms only, event extraction distributes over strands, and every stage
// below is deterministic. That comparison is one skeleton against
// itself; the independent evidence is the relational comparison with
// CompileDNF and netkat.Eval on every reachable state, delta-walked
// states included (fdd_test.go). This is the only FDD compile path: a
// plain policy goes through it as a one-state program (Compile).

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"

	"eventnet/internal/flowtable"
	"eventnet/internal/netkat"
	"eventnet/internal/stateful"
	"eventnet/internal/topo"
)

// progSeg is one link-free segment of the program skeleton: the atoms
// runs[runLo:runHi] in sequence, the identity when there are none
// (between adjacent links, or at an end). key is the interned shape of
// that command (stateful.Shape) and testPos[lo:hi] the whole-program
// positions of the state tests its placeholders stand for, in order: the
// halves of its segMemoKey. A segment's id is its index in segs.
type progSeg struct {
	key                  uint32
	lo, hi, runLo, runHi int32
}

// progStrand is one end-to-end alternative of the program: segments
// segs[seg:seg+n+1] alternating with links links[link:link+n].
// updates[link+i] is the state-updating link that links[link+i] was
// written as (nil for a plain link) — projection erases the
// assignments, event extraction needs them — and lastUpdate is the
// highest such i, -1 when the strand can raise no event. walkID is the
// walk-memo identity of an event-raising strand: its segments' shape ids
// up to lastUpdate, interned.
type progStrand struct {
	seg, link, n, lastUpdate int32
	walkID                   uint32
}

// segAtom is a maximal link-free subcommand, rendered once. Its state
// tests are lo:hi of the build's list of them.
type segAtom struct {
	cmd    stateful.Cmd
	shape  string
	lo, hi int32
}

// linkNode is a node of the command re-shaped around its links:
// link-free subtrees collapse to atoms, so only union/sequence structure
// that contains links remains. a is the atom, the link (b is 1 if it
// updates state) or the left operand, b the right operand.
type linkNode struct {
	kind int8
	a, b int32
}

const (
	nodeAtom = iota
	nodeLink
	nodeUnion
	nodeSeq
)

// segMemoKey identifies a segment FDD structurally: the interned id of
// the segment's shape plus the packed truth vector over its placeholders,
// in rendering order. The pair determines the projected policy exactly
// (projection turns each placeholder into true or false by that bit and
// changes nothing else), so the key is sound across states, across the
// branches of a program that differ only in the values they test, across
// builds, and across different programs sharing an FDD context and
// interner (nkc.ProgramCache): the interner never reuses ids, so equal
// keys imply equal (shape, truth vector) pairs. The walk
// memo uses the same form over a strand prefix. sig is tagged in its low
// bit — at most 63 placeholders pack their truth bits inline (tag 1);
// more intern the packed bytes and carry the dense id (tag 0) — so the
// two encodings cannot alias.
type segMemoKey struct {
	key uint32
	sig uint64
}

// compilerInterns groups the interners of one ProgramCompiler — or,
// through ProgramCache, of every build of one cache generation, which is
// what lets their memo keys meet in one FDD context.
type compilerInterns struct {
	segKeys *Interner // segment shape -> id
	segSigs *Interner // oversized per-segment or per-prefix signature bytes -> id
	walks   *Interner // event-raising strand prefix, as its segments' shape ids -> id
}

func newCompilerInterns() *compilerInterns {
	return &compilerInterns{segKeys: NewInterner(), segSigs: NewInterner(), walks: NewInterner()}
}

// entries returns the total interner population.
func (ci *compilerInterns) entries() int {
	return ci.segKeys.Len() + ci.segSigs.Len() + ci.walks.Len()
}

// ProgramCompiler compiles the per-state configurations of one Stateful
// NetKAT program incrementally. It is not safe for concurrent use.
type ProgramCompiler struct {
	switches []int // all the compiler reads of the topology

	ctx    *FDDCtx
	guards *stateful.GuardIndex // whole-program index
	intern *compilerInterns

	skeleton
	atomStrands [][]int32 // per whole-program guard position: the strands testing it, ascending, once per test

	ref *refState // the state walked in full; nil until the first Explore

	sigScratch []byte       // whole-program signature buffer, reused per state
	gatherBuf  []byte       // oversized segment signature buffer
	delta      []int32      // guard positions differing from ref, reused per state
	touched    []int32      // strands testing a delta position, ascending
	touchedEv  []strandEval // their re-evaluation, parallel to touched
	fddBuf     []*FDD       // one strand's segment diagrams
	hopBuf     []cachedHop  // one state's spliced hop list

	stats CacheStats
}

// skeleton is the program split into strands (newProgramCompiler), and
// the buffers of splitting it. A ProgramCache hands each build the
// skeleton of the build before it, emptied, so a revision does not
// regrow the arrays from nothing.
type skeleton struct {
	strands []progStrand
	segs    []progSeg
	atoms   []segAtom
	runs    []int32                // segments' atoms
	testPos []int32                // segments' whole-program test positions, in shape order
	links   []netkat.Link          // strands' links
	updates []*stateful.CLinkState // parallel to links, into linkStates

	todo, done []scanFrame
	preds      []stateful.Pred
	nodes      []linkNode
	linkStates []stateful.CLinkState // per link node; a plain link's has no Sets
	occ        []stateful.GuardTest  // every state test, in rendering order
	cur        []int32
	conts      []strandCont
	choices    []strandChoice
	buf        []byte
}

// emptied returns s with every array cut to length 0.
func (s skeleton) emptied() skeleton {
	return skeleton{s.strands[:0], s.segs[:0], s.atoms[:0], s.runs[:0], s.testPos[:0], s.links[:0], s.updates[:0],
		s.todo[:0], s.done[:0], s.preds[:0], s.nodes[:0], s.linkStates[:0], s.occ[:0], s.cur[:0], s.conts[:0], s.choices[:0], s.buf[:0]}
}

// A scanFrame is a subcommand pending on todo (post: its operands are
// done; lo is len(occ) at its first visit), or finished on done, as its
// link-tree node or link-free (node -1) with state tests occ[lo:hi].
type scanFrame struct {
	c            stateful.Cmd
	post         bool
	node, lo, hi int32
}

// strandCont is a persistent list of link-tree nodes still to follow;
// strandChoice a union whose right operand is still to enumerate.
type strandCont struct{ node, next int32 }
type strandChoice struct{ node, k, cur, conts int32 }

// SharedCache is the type of NewProgramCompiler's ignored parameter.
type SharedCache struct{}

// NewProgramCompiler builds an incremental compiler for a program over a
// topology.
func NewProgramCompiler(c stateful.Cmd, t *topo.Topology, _ *SharedCache) (*ProgramCompiler, error) { // accepted and ignored; named by bench/
	return newProgramCompiler(c, t, NewFDDCtx(), newCompilerInterns(), skeleton{})
}

// newProgramCompiler builds the compiler on an FDD context and interner
// set — fresh ones, or the pair every build of a ProgramCache shares —
// in sk's arrays: one iterative pass over the command tree, then
// emitStrands. The pass gives netkat.Validate's verdict on the projection
// at any state, which it does not build (projection changes no field test
// or assignment), before any structural error; lists the state tests in
// rendering order; and collapses each maximal link-free subtree to an
// atom. Unlike the oracle's ExtractStrands it splits only what contains
// links: the FDD translation normalizes link-free alternation.
func newProgramCompiler(c stateful.Cmd, t *topo.Topology, ctx *FDDCtx, in *compilerInterns, sk skeleton) (*ProgramCompiler, error) {
	pc := &ProgramCompiler{switches: t.Switches, ctx: ctx, intern: in, skeleton: sk.emptied()}
	pc.todo = append(pc.todo, scanFrame{c: c})
	var valErr, err error
	node := func(n linkNode) int32 {
		pc.nodes = append(pc.nodes, n)
		return int32(len(pc.nodes) - 1)
	}
	asNode := func(f scanFrame) int32 {
		if f.node >= 0 {
			return f.node
		}
		pc.atoms = append(pc.atoms, segAtom{cmd: f.c, lo: f.lo, hi: f.hi})
		return node(linkNode{kind: nodeAtom, a: int32(len(pc.atoms) - 1)})
	}
	for len(pc.todo) > 0 {
		it := pc.todo[len(pc.todo)-1]
		pc.todo = pc.todo[:len(pc.todo)-1]
		here := scanFrame{c: it.c, node: -1, lo: int32(len(pc.occ)), hi: int32(len(pc.occ))}
		if it.post {
			here.lo = it.lo
			if _, ok := it.c.(stateful.CStar); ok {
				if pc.done[len(pc.done)-1].node >= 0 {
					err = cmp.Or(err, errors.New("nkc: star over a policy containing links is outside the supported fragment"))
				}
				pc.done[len(pc.done)-1] = here
				continue
			}
			l, r := pc.done[len(pc.done)-2], pc.done[len(pc.done)-1]
			pc.done = pc.done[:len(pc.done)-2]
			if l.node >= 0 || r.node >= 0 {
				n := linkNode{kind: nodeSeq, a: asNode(l), b: asNode(r)}
				if _, ok := it.c.(stateful.CUnion); ok {
					n.kind = nodeUnion
				}
				here.node = node(n)
			}
			pc.done = append(pc.done, here)
			continue
		}
		post := scanFrame{c: it.c, post: true, lo: here.lo} // it.c, not q: boxing q again would allocate
		switch q := it.c.(type) {
		case stateful.CUnion: // operands first, left to right
			pc.todo = append(pc.todo, post, scanFrame{c: q.R}, scanFrame{c: q.L})
			continue
		case stateful.CSeq:
			pc.todo = append(pc.todo, post, scanFrame{c: q.R}, scanFrame{c: q.L})
			continue
		case stateful.CStar:
			pc.todo = append(pc.todo, post, scanFrame{c: q.P})
			continue
		case stateful.CPred:
			for pc.preds = append(pc.preds[:0], q.P); len(pc.preds) > 0; {
				p := pc.preds[len(pc.preds)-1]
				pc.preds = pc.preds[:len(pc.preds)-1]
				switch q := p.(type) {
				case stateful.PState:
					pc.occ = append(pc.occ, stateful.GuardTest{Index: q.Index, Value: q.Value})
				case stateful.PTest:
					if q.Value < 0 {
						valErr = cmp.Or(valErr, netkat.Validate(netkat.Filter{P: netkat.Test{Field: q.Field, Value: q.Value}}))
					}
				case stateful.PNot:
					pc.preds = append(pc.preds, q.P)
				case stateful.PAnd:
					pc.preds = append(pc.preds, q.R, q.L)
				case stateful.POr:
					pc.preds = append(pc.preds, q.R, q.L)
				}
			}
			here.hi = int32(len(pc.occ))
		case stateful.CAssign:
			if q.Field == netkat.FieldSw || q.Value < 0 {
				valErr = cmp.Or(valErr, netkat.Validate(netkat.Assign{Field: q.Field, Value: q.Value}))
			}
		case stateful.CLink:
			pc.linkStates = append(pc.linkStates, stateful.CLinkState{Src: q.Src, Dst: q.Dst})
			here.node = node(linkNode{kind: nodeLink, a: int32(len(pc.linkStates) - 1)})
		case stateful.CLinkState:
			pc.linkStates = append(pc.linkStates, q)
			here.node = node(linkNode{kind: nodeLink, a: int32(len(pc.linkStates) - 1), b: 1})
		default:
			err = cmp.Or(err, fmt.Errorf("nkc: unknown command node %T", it.c))
		}
		pc.done = append(pc.done, here)
	}
	if err := cmp.Or(valErr, err); err != nil {
		return nil, err
	}
	root := asNode(pc.done[0])
	pc.guards = stateful.NewGuardIndex(pc.occ)
	occPos := make([]int32, len(pc.occ))
	for i, t := range pc.occ {
		p, _ := pc.guards.Pos(t)
		occPos[i] = int32(p)
	}
	for i := range pc.atoms {
		pc.atoms[i].shape, _ = stateful.Shape(pc.atoms[i].cmd)
	}
	if err := pc.emitStrands(root, occPos); err != nil {
		return nil, err
	}
	return pc, nil
}

// emitStrands enumerates the alternatives of the link tree, a union's
// left operand's first, into cur: a sequence's right operand waits on the
// continuation k, and a union is a choice point restoring cur, k and
// conts. Each becomes a strand, its atoms coalesced into segments between
// its links; then the strands' test positions are inverted (atomStrands).
func (pc *ProgramCompiler) emitStrands(root int32, occPos []int32) error {
	// seg appends the segment of the atoms runs[run:], keyed by their
	// shapes joined as stateful.Shape renders their sequence: "; "
	// between, a union operand of several parenthesized.
	run := 0
	seg := func() {
		g := progSeg{lo: int32(len(pc.testPos)), runLo: int32(run), runHi: int32(len(pc.runs))}
		atoms := pc.runs[run:]
		pc.buf = pc.buf[:0]
		if len(atoms) == 0 {
			pc.buf = append(pc.buf, "true"...) // the identity's shape
		}
		for i, ai := range atoms {
			a := &pc.atoms[ai]
			if i > 0 {
				pc.buf = append(pc.buf, "; "...)
			}
			if _, ok := a.cmd.(stateful.CUnion); ok && len(atoms) > 1 {
				pc.buf = append(append(append(pc.buf, '('), a.shape...), ')')
			} else {
				pc.buf = append(pc.buf, a.shape...)
			}
			pc.testPos = append(pc.testPos, occPos[a.lo:a.hi]...)
		}
		g.key, g.hi = pc.intern.segKeys.IDBytes(pc.buf), int32(len(pc.testPos))
		pc.segs, run = append(pc.segs, g), len(pc.runs)
	}
	for n, k := root, int32(-1); ; {
		switch nd := pc.nodes[n]; nd.kind {
		case nodeSeq:
			pc.conts = append(pc.conts, strandCont{node: nd.b, next: k})
			n, k = nd.a, int32(len(pc.conts)-1)
			continue
		case nodeUnion:
			pc.choices = append(pc.choices, strandChoice{node: nd.b, k: k, cur: int32(len(pc.cur)), conts: int32(len(pc.conts))})
			n = nd.a
			continue
		}
		if pc.cur = append(pc.cur, n); k >= 0 {
			n, k = pc.conts[k].node, pc.conts[k].next
			continue
		}
		if len(pc.strands) == maxStrands {
			return errStrandLimit
		}
		s := progStrand{seg: int32(len(pc.segs)), link: int32(len(pc.links)), lastUpdate: -1}
		run = len(pc.runs)
		for _, e := range pc.cur {
			if nd := pc.nodes[e]; nd.kind == nodeAtom {
				pc.runs = append(pc.runs, nd.a)
				continue
			}
			seg()
			l := &pc.linkStates[pc.nodes[e].a]
			var u *stateful.CLinkState
			if pc.nodes[e].b == 1 {
				u, s.lastUpdate = l, s.n
			}
			pc.links = append(pc.links, netkat.Link{Src: l.Src, Dst: l.Dst})
			pc.updates = append(pc.updates, u)
			s.n++
		}
		seg()
		// A link passes every test conjunction through unchanged, so the
		// conjunctions reaching a strand's links are a function of its
		// segments' shapes and truth vectors alone: the walk memo's key
		// leaves the links out, and the counter branches of
		// bandwidth-cap-N share one walk per truth value.
		if s.lastUpdate >= 0 {
			pc.buf = pc.buf[:0]
			for _, g := range pc.segs[s.seg : s.seg+s.lastUpdate+1] {
				pc.buf = binary.AppendUvarint(pc.buf, uint64(g.key))
			}
			s.walkID = pc.intern.walks.IDBytes(pc.buf)
		}
		pc.strands = append(pc.strands, s)
		if len(pc.choices) == 0 {
			break
		}
		ch := pc.choices[len(pc.choices)-1]
		pc.choices = pc.choices[:len(pc.choices)-1]
		n, k, pc.cur, pc.conts = ch.node, ch.k, pc.cur[:ch.cur], pc.conts[:ch.conts]
	}

	// Each position's strands, ascending, once per test of it (Explore
	// compacts), on one backing array.
	off := make([]int32, pc.guards.Len()+1)
	for _, p := range pc.testPos {
		off[p+1]++
	}
	flat := make([]int32, len(pc.testPos))
	pc.atomStrands = make([][]int32, pc.guards.Len())
	for p := range pc.atomStrands {
		off[p+1] += off[p]
		pc.atomStrands[p] = flat[off[p]:off[p]:off[p+1]]
	}
	for si, s := range pc.strands {
		for _, p := range pc.testPos[pc.segs[s.seg].lo:pc.segs[s.seg+s.n].hi] {
			pc.atomStrands[p] = append(pc.atomStrands[p], int32(si))
		}
	}
	return nil
}

// segCmd builds segment i's command, its atoms in sequence, for the rare
// lookup that needs it: a segment-memo miss (ToFDD) or a walk-memo miss
// (stateful.Tests).
func (pc *ProgramCompiler) segCmd(i int) stateful.Cmd {
	run := pc.runs[pc.segs[i].runLo:pc.segs[i].runHi]
	if len(run) == 0 {
		return stateful.CPred{P: stateful.PTrue{}}
	}
	c := pc.atoms[run[0]].cmd
	for _, a := range run[1:] {
		c = stateful.CSeq{L: c, R: pc.atoms[a].cmd}
	}
	return c
}

// Stats returns this compiler's cache statistics.
func (pc *ProgramCompiler) Stats() CacheStats {
	s := pc.stats
	s.Strands = int64(pc.ctx.StrandCount())
	s.FDDNodes = int64(pc.ctx.NodeCount())
	s.ArenaBytes = pc.ctx.ArenaBytes()
	s.ArenaHighWater = s.ArenaBytes
	s.InternEntries = int64(pc.ctx.AtomCount()) + int64(pc.intern.entries())
	return s
}

// packSig packs the truth vector of the tests at positions pos (one
// segment's, or one strand prefix's, in shape order; a test written
// twice is two positions) under the whole-program signature bytes into
// the tagged segMemoKey.sig form: at most 63 positions carry their bits
// inline (low tag bit 1); more intern the gathered bytes (low tag bit
// 0).
func (pc *ProgramCompiler) packSig(pos []int32, whole []byte) uint64 {
	if len(pos) <= 63 {
		var bits uint64
		for i, p := range pos {
			if whole[p>>3]&(1<<uint(p&7)) != 0 {
				bits |= 1 << uint(i)
			}
		}
		return bits<<1 | 1
	}
	buf := pc.gatherBuf[:0]
	var b byte
	for i, p := range pos {
		if whole[p>>3]&(1<<uint(p&7)) != 0 {
			b |= 1 << uint(i%8)
		}
		if i%8 == 7 {
			buf = append(buf, b)
			b = 0
		}
	}
	if len(pos)%8 != 0 {
		buf = append(buf, b)
	}
	pc.gatherBuf = buf
	return uint64(pc.intern.segSigs.IDBytes(buf)) << 1
}

// CompileAll compiles the configurations of all given states. Results
// are positional: out[i] is the tables for states[i].
func (pc *ProgramCompiler) CompileAll(states []stateful.State, _ int) ([]flowtable.Tables, error) { // accepted and ignored; named by bench/
	out := make([]flowtable.Tables, len(states))
	for i, k := range states {
		t, err := pc.Compile(k)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}
