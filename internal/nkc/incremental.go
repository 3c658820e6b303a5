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
// execution and extracted tables by structural key.
// Whole configurations are additionally shared across states by
// program-level signature.
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
	"encoding/binary"
	"fmt"
	"strings"

	"eventnet/internal/flowtable"
	"eventnet/internal/netkat"
	"eventnet/internal/stateful"
	"eventnet/internal/topo"
)

// progSeg is one link-free segment of the program skeleton. key is the
// segment's shape (stateful.Shape) and tests the state tests its
// placeholders stand for, in order. Under the truth vector of those
// tests the shape identifies the projected policy, so segment FDDs
// memoized under (shape, truth vector) are shared across the states of
// one program, across its branches that differ only in the values their
// state tests compare against (the N+1 counter branches of
// bandwidth-cap-N are one shape), and — through nkc.ProgramCache —
// across *programs* that contain the same link-free segment.
type progSeg struct {
	id    int
	key   string
	tests []stateful.GuardTest
	cmd   stateful.Cmd
}

// progStrand is one end-to-end alternative of the program: alternating
// link-free segments and links, len(segs) == len(links)+1. updates[i] is
// the state-updating link that links[i] was written as (nil for a plain
// link) — projection erases the assignments, event extraction needs
// them — and lastUpdate is the highest such i, -1 when the strand can
// raise no event.
type progStrand struct {
	segs       []progSeg
	links      []netkat.Link
	updates    []*stateful.CLinkState
	lastUpdate int
	// An event-raising strand's walk-memo key halves (indexSegments): the
	// shape ids of segs[:lastUpdate+1], interned, and the whole-program
	// positions of the tests in those segments, in order.
	walkID  uint32
	walkPos []int32
}

// cmdNode kinds.
const (
	lnAtom = iota // maximal link-free subcommand
	lnLink
	lnUnion
	lnSeq
)

// cmdNode is the command re-shaped around its links: link-free subtrees
// collapse to atoms, so only union/sequence structure that actually
// contains links remains. shape and seqShape are the atom's shape alone
// and as an operand of ';', and tests the state tests its placeholders
// stand for, filled on first use: an atom shared by many strands is
// rendered once.
type cmdNode struct {
	kind   int // lnAtom, lnLink, lnUnion, lnSeq
	cmd    stateful.Cmd
	link   netkat.Link
	update *stateful.CLinkState // lnLink written with state assignments
	l, r   *cmdNode

	shape, seqShape string
	tests           []stateful.GuardTest
}

// render fills shape, seqShape and tests. The forms must stay
// byte-identical to stateful.Shape of the atom and of a CSeq around it
// (the segment key built from them is the cross-program segMemo key):
// ';' parenthesizes only a union operand.
func (n *cmdNode) render() {
	if n.shape != "" {
		return
	}
	n.shape, n.tests = stateful.Shape(n.cmd)
	n.seqShape = n.shape
	if _, ok := n.cmd.(stateful.CUnion); ok {
		n.seqShape = "(" + n.shape + ")"
	}
}

// annotateCmdLinks builds the cmdNode tree in one linear pass, reporting
// whether c is link-free.
func annotateCmdLinks(c stateful.Cmd) (*cmdNode, bool, error) {
	switch q := c.(type) {
	case stateful.CPred, stateful.CAssign:
		return &cmdNode{kind: lnAtom, cmd: c}, true, nil
	case stateful.CLink:
		return &cmdNode{kind: lnLink, link: netkat.Link{Src: q.Src, Dst: q.Dst}}, false, nil
	case stateful.CLinkState:
		return &cmdNode{kind: lnLink, link: netkat.Link{Src: q.Src, Dst: q.Dst}, update: &q}, false, nil
	case stateful.CStar:
		_, pure, err := annotateCmdLinks(q.P)
		if err != nil {
			return nil, false, err
		}
		if !pure {
			return nil, false, fmt.Errorf("nkc: star over a policy containing links is outside the supported fragment")
		}
		return &cmdNode{kind: lnAtom, cmd: c}, true, nil
	case stateful.CUnion:
		l, lp, err := annotateCmdLinks(q.L)
		if err != nil {
			return nil, false, err
		}
		r, rp, err := annotateCmdLinks(q.R)
		if err != nil {
			return nil, false, err
		}
		if lp && rp {
			return &cmdNode{kind: lnAtom, cmd: c}, true, nil
		}
		return &cmdNode{kind: lnUnion, l: l, r: r}, false, nil
	case stateful.CSeq:
		l, lp, err := annotateCmdLinks(q.L)
		if err != nil {
			return nil, false, err
		}
		r, rp, err := annotateCmdLinks(q.R)
		if err != nil {
			return nil, false, err
		}
		if lp && rp {
			return &cmdNode{kind: lnAtom, cmd: c}, true, nil
		}
		return &cmdNode{kind: lnSeq, l: l, r: r}, false, nil
	default:
		return nil, false, fmt.Errorf("nkc: unknown command node %T", c)
	}
}

// extractCmdStrands rewrites the command as a sum of program strands.
// Unlike the oracle's ExtractStrands it splits unions and sequences only
// when they contain links, so purely link-free alternation stays inside
// one segment and is normalized by the (memoized) FDD translation instead
// of by syntactic distribution. Alternatives are emitted off a shared
// element stack, so no intermediate sequence products are materialized.
func extractCmdStrands(c stateful.Cmd) ([]progStrand, error) {
	root, _, err := annotateCmdLinks(c)
	if err != nil {
		return nil, err
	}
	var out []progStrand
	var cur []*cmdNode
	segID := 0
	var rec func(n *cmdNode, cont func() error) error
	rec = func(n *cmdNode, cont func() error) error {
		switch n.kind {
		case lnAtom, lnLink:
			cur = append(cur, n)
		case lnUnion:
			if err := rec(n.l, cont); err != nil {
				return err
			}
			return rec(n.r, cont)
		default: // lnSeq
			return rec(n.l, func() error { return rec(n.r, cont) })
		}
		err := cont()
		cur = cur[:len(cur)-1]
		return err
	}
	var key strings.Builder
	flush := func() error {
		if len(out) >= maxStrands {
			return fmt.Errorf("nkc: policy expands to more than %d strands", maxStrands)
		}
		s := assembleCmdStrand(cur, &key)
		for i := range s.segs {
			s.segs[i].id = segID
			segID++
		}
		out = append(out, s)
		return nil
	}
	if err := rec(root, flush); err != nil {
		return nil, err
	}
	return out, nil
}

// assembleCmdStrand coalesces consecutive link-free elements with CSeq
// and inserts identity segments around links. Each segment's key and
// tests are its command's shape, joined from the elements' cached
// shapes in the caller's builder.
func assembleCmdStrand(es []*cmdNode, key *strings.Builder) progStrand {
	seg := func(run []*cmdNode) progSeg {
		switch len(run) {
		case 0:
			id := stateful.CPred{P: stateful.PTrue{}}
			return progSeg{cmd: id, key: id.String()}
		case 1:
			run[0].render()
			return progSeg{cmd: run[0].cmd, key: run[0].shape, tests: run[0].tests}
		}
		key.Reset()
		var cmd stateful.Cmd
		var tests []stateful.GuardTest
		for i, e := range run {
			e.render()
			if i == 0 {
				cmd = e.cmd
			} else {
				cmd = stateful.CSeq{L: cmd, R: e.cmd}
				key.WriteString("; ")
			}
			key.WriteString(e.seqShape)
			tests = append(tests, e.tests...)
		}
		return progSeg{cmd: cmd, key: key.String(), tests: tests}
	}
	s := progStrand{lastUpdate: -1}
	start := 0 // first element after the last link
	for i, e := range es {
		if e.kind != lnLink {
			continue
		}
		s.segs = append(s.segs, seg(es[start:i]))
		start = i + 1
		if e.update != nil {
			s.lastUpdate = len(s.links)
		}
		s.links = append(s.links, e.link)
		s.updates = append(s.updates, e.update)
	}
	s.segs = append(s.segs, seg(es[start:]))
	return s
}

// segMemoKey identifies a segment FDD structurally: the interned id of
// the segment's shape plus the packed truth vector over its placeholders,
// in rendering order. The pair determines the projected policy exactly
// (projection turns each placeholder into true or false by that bit and
// changes nothing else), so the key is sound across states, across the
// branches of a program that differ only in the values they test, across
// compiler generations, and across different programs sharing an FDD
// context and interner (nkc.ProgramCache): the interner never reuses
// ids, so equal keys imply equal (shape, truth vector) pairs. The walk
// memo uses the same form over a strand prefix. sig is tagged in its low
// bit — at most 63 placeholders pack their truth bits inline (tag 1);
// more intern the packed bytes and carry the dense id (tag 0) — so the
// two encodings cannot alias.
type segMemoKey struct {
	key uint32
	sig uint64
}

// compilerInterns groups the interners of one ProgramCompiler — or,
// through ProgramCache, of every cached program of one cache generation,
// which is what lets their memo keys meet in one FDD context.
type compilerInterns struct {
	segKeys *Interner // segment shape -> id
	sigs    *Interner // whole-program guard signature -> id
	segSigs *Interner // oversized per-segment or per-prefix signature bytes -> id
	walks   *Interner // event-raising strand prefix, as its segments' shape ids -> id
}

func newCompilerInterns() *compilerInterns {
	return &compilerInterns{segKeys: NewInterner(), sigs: NewInterner(), segSigs: NewInterner(), walks: NewInterner()}
}

// entries returns the total interner population.
func (ci *compilerInterns) entries() int {
	return ci.segKeys.Len() + ci.sigs.Len() + ci.segSigs.Len() + ci.walks.Len()
}

// ProgramCompiler compiles the per-state configurations of one Stateful
// NetKAT program incrementally. It is not safe for concurrent use.
type ProgramCompiler struct {
	switches []int // all the compiler reads of the topology

	ctx     *FDDCtx
	strands []progStrand
	guards  *stateful.GuardIndex // whole-program index

	intern      *compilerInterns
	segKeyIDs   []uint32  // per segment id: interned shape
	segTestPos  [][]int32 // per segment id: whole-program positions of its tests, in shape order
	atomStrands [][]int32 // per whole-program guard position: the strands testing it, ascending

	tables map[uint32]flowtable.Tables // interned whole-program signature id -> configuration

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

// SharedCache is the type of NewProgramCompiler's ignored parameter.
type SharedCache struct{}

// NewProgramCompiler builds an incremental compiler for a program over a
// topology. The command is validated once — validity is independent of
// the state vector, since projection only replaces state tests by
// true/false.
func NewProgramCompiler(c stateful.Cmd, t *topo.Topology, _ *SharedCache) (*ProgramCompiler, error) { // accepted and ignored; named by bench/
	return newProgramCompiler(c, t, NewFDDCtx(), newCompilerInterns())
}

// newProgramCompiler builds the compiler on an FDD context and interner
// set: fresh ones, or the pair every program of a ProgramCache shares.
func newProgramCompiler(c stateful.Cmd, t *topo.Topology, ctx *FDDCtx, in *compilerInterns) (*ProgramCompiler, error) {
	if err := netkat.Validate(stateful.Project(c, stateful.State{})); err != nil {
		return nil, err
	}
	strands, err := extractCmdStrands(c)
	if err != nil {
		return nil, err
	}
	pc := &ProgramCompiler{
		switches: t.Switches,
		ctx:      ctx,
		strands:  strands,
		guards:   stateful.CollectGuards(c),
		intern:   in,
		tables:   map[uint32]flowtable.Tables{},
	}
	pc.indexSegments()
	return pc, nil
}

// indexSegments computes the per-segment interned shape ids, the
// whole-program positions of each segment's tests, the inverse of the
// latter by strand, and the walk-memo identity of every event-raising
// strand. All are pure functions of the skeleton and the interner set.
func (pc *ProgramCompiler) indexSegments() {
	nsegs := 0
	for _, s := range pc.strands {
		nsegs += len(s.segs)
	}
	pc.segKeyIDs = make([]uint32, nsegs)
	pc.segTestPos = make([][]int32, nsegs)
	pc.atomStrands = make([][]int32, pc.guards.Len())
	for si, s := range pc.strands {
		for _, seg := range s.segs {
			pc.segKeyIDs[seg.id] = pc.intern.segKeys.ID(seg.key)
			ps := make([]int32, len(seg.tests))
			for i, t := range seg.tests {
				p, _ := pc.guards.Pos(t) // a segment's tests are the program's
				ps[i] = int32(p)
				if on := pc.atomStrands[p]; len(on) == 0 || on[len(on)-1] != int32(si) {
					pc.atomStrands[p] = append(on, int32(si))
				}
			}
			pc.segTestPos[seg.id] = ps
		}
	}
	// A link passes every test conjunction through unchanged, so the
	// conjunctions reaching a strand's links are a function of its
	// segments' shapes and truth vectors alone: the walk memo's key leaves
	// the links out, and the counter branches of bandwidth-cap-N share one
	// walk per truth value.
	var key []byte
	for si := range pc.strands {
		s := &pc.strands[si]
		if s.lastUpdate < 0 {
			continue
		}
		key = key[:0]
		for _, seg := range s.segs[:s.lastUpdate+1] {
			key = binary.AppendUvarint(key, uint64(pc.segKeyIDs[seg.id]))
			s.walkPos = append(s.walkPos, pc.segTestPos[seg.id]...)
		}
		s.walkID = pc.intern.walks.IDBytes(key)
	}
}

// Configs returns the number of distinct configurations compiled.
func (pc *ProgramCompiler) Configs() int { return len(pc.tables) }

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
