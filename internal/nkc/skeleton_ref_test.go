package nkc

// The link-strand skeleton as it was built before the one pass of
// newProgramCompiler: a cmdNode tree (annotateCmdLinks), strands
// enumerated by continuation recursion (extractCmdStrands) and assembled
// one by one (assembleCmdStrand), then keyed and indexed (indexSegments).
// It stays as the reference TestSkeletonMatchesReference holds the pass
// against, strand by strand. The code is the old code: the types it
// shared with the compiler are renamed (refSeg, refStrand), indexSegments
// is a method of refSkeleton, and Interner.ID, which only it calls, is
// here too.

import (
	"encoding/binary"
	"fmt"
	"strings"

	"eventnet/internal/netkat"
	"eventnet/internal/stateful"
)

// refSeg is one link-free segment of the program skeleton. key is the
// segment's shape (stateful.Shape) and tests the state tests its
// placeholders stand for, in order. Under the truth vector of those
// tests the shape identifies the projected policy, so segment FDDs
// memoized under (shape, truth vector) are shared across the states of
// one program, across its branches that differ only in the values their
// state tests compare against (the N+1 counter branches of
// bandwidth-cap-N are one shape), and — through nkc.ProgramCache —
// across *programs* that contain the same link-free segment.
type refSeg struct {
	id    int
	key   string
	tests []stateful.GuardTest
	cmd   stateful.Cmd
}

// refStrand is one end-to-end alternative of the program: alternating
// link-free segments and links, len(segs) == len(links)+1. updates[i] is
// the state-updating link that links[i] was written as (nil for a plain
// link) — projection erases the assignments, event extraction needs
// them — and lastUpdate is the highest such i, -1 when the strand can
// raise no event.
type refStrand struct {
	segs       []refSeg
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
func extractCmdStrands(c stateful.Cmd) ([]refStrand, error) {
	root, _, err := annotateCmdLinks(c)
	if err != nil {
		return nil, err
	}
	var out []refStrand
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
func assembleCmdStrand(es []*cmdNode, key *strings.Builder) refStrand {
	seg := func(run []*cmdNode) refSeg {
		switch len(run) {
		case 0:
			id := stateful.CPred{P: stateful.PTrue{}}
			return refSeg{cmd: id, key: id.String()}
		case 1:
			run[0].render()
			return refSeg{cmd: run[0].cmd, key: run[0].shape, tests: run[0].tests}
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
		return refSeg{cmd: cmd, key: key.String(), tests: tests}
	}
	s := refStrand{lastUpdate: -1}
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

// ID is IDBytes for a string key, as the reference interns segment keys.
func (in *Interner) ID(s string) uint32 {
	id, ok := in.ids[s]
	if !ok {
		id = uint32(len(in.ids))
		in.ids[s] = id
	}
	return id
}

// refSkeleton is the reference skeleton of one program: its strands, the
// program's guard index, and what indexSegments derives from them on an
// interner set.
type refSkeleton struct {
	strands     []refStrand
	guards      *stateful.GuardIndex
	intern      *compilerInterns
	segKeyIDs   []uint32
	segTestPos  [][]int32
	atomStrands [][]int32
}

// refSkeletonOf builds the reference skeleton of c on the interner set in,
// as newProgramCompiler did after validating c.
func refSkeletonOf(c stateful.Cmd, in *compilerInterns) (*refSkeleton, error) {
	strands, err := extractCmdStrands(c)
	if err != nil {
		return nil, err
	}
	pc := &refSkeleton{strands: strands, guards: stateful.CollectGuards(c), intern: in}
	pc.indexSegments()
	return pc, nil
}

// indexSegments computes the per-segment interned shape ids, the
// whole-program positions of each segment's tests, the inverse of the
// latter by strand, and the walk-memo identity of every event-raising
// strand. All are pure functions of the skeleton and the interner set.
func (pc *refSkeleton) indexSegments() {
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
