package nkc

import (
	"fmt"

	"eventnet/internal/netkat"
)

// Strand is one end-to-end alternative of a policy: an alternating
// sequence of link-free segments (in path normal form) and links, with
// len(Segments) == len(Links)+1. Identity segments fill gaps where links
// are adjacent or at the ends.
type Strand struct {
	Segments []PathSet
	Links    []netkat.Link
}

// element is an intermediate item during strand extraction.
type element struct {
	isLink bool
	link   netkat.Link
	pol    netkat.Policy
}

// maxStrands bounds the union-over-sequence distribution to keep compile
// time predictable on adversarial inputs.
const maxStrands = 100000

var errStrandLimit = fmt.Errorf("nkc: policy expands to more than %d strands", maxStrands)

// ExtractStrands distributes union over sequencing to rewrite a policy as
// a sum of strands. Star is supported only over link-free subpolicies
// (the fragment used by every program in the paper; full NetKAT automata
// would be needed for links under star).
func ExtractStrands(p netkat.Policy) ([]Strand, error) {
	raw, err := elems(p)
	if err != nil {
		return nil, err
	}
	strands := make([]Strand, 0, len(raw))
	for _, es := range raw {
		s, err := assemble(es)
		if err != nil {
			return nil, err
		}
		strands = append(strands, s)
	}
	return strands, nil
}

// elems returns the sum-of-sequences form: one element slice per strand.
func elems(p netkat.Policy) ([][]element, error) {
	switch q := p.(type) {
	case netkat.Filter, netkat.Assign:
		return [][]element{{{pol: p}}}, nil
	case netkat.Link:
		return [][]element{{{isLink: true, link: q}}}, nil
	case netkat.Star:
		if len(netkat.Links(q)) > 0 {
			return nil, fmt.Errorf("nkc: star over a policy containing links is outside the supported fragment")
		}
		return [][]element{{{pol: p}}}, nil
	case netkat.Union:
		l, err := elems(q.L)
		if err != nil {
			return nil, err
		}
		r, err := elems(q.R)
		if err != nil {
			return nil, err
		}
		out := append(l, r...)
		if len(out) > maxStrands {
			return nil, errStrandLimit
		}
		return out, nil
	case netkat.Seq:
		l, err := elems(q.L)
		if err != nil {
			return nil, err
		}
		r, err := elems(q.R)
		if err != nil {
			return nil, err
		}
		if len(l)*len(r) > maxStrands {
			return nil, errStrandLimit
		}
		out := make([][]element, 0, len(l)*len(r))
		for _, a := range l {
			for _, b := range r {
				seq := make([]element, 0, len(a)+len(b))
				seq = append(seq, a...)
				seq = append(seq, b...)
				out = append(out, seq)
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("nkc: unknown policy node %T", p)
	}
}

// assemble coalesces consecutive link-free elements into segments and
// inserts identity segments around links.
func assemble(es []element) (Strand, error) {
	var s Strand
	cur := netkat.ID()
	curEmpty := true
	flush := func() error {
		var ps PathSet
		var err error
		if curEmpty {
			ps = Identity()
		} else {
			ps, err = FromPolicy(cur)
			if err != nil {
				return err
			}
		}
		s.Segments = append(s.Segments, ps)
		cur = netkat.ID()
		curEmpty = true
		return nil
	}
	for _, e := range es {
		if e.isLink {
			if err := flush(); err != nil {
				return Strand{}, err
			}
			s.Links = append(s.Links, e.link)
		} else {
			if curEmpty {
				cur = e.pol
				curEmpty = false
			} else {
				cur = netkat.Seq{L: cur, R: e.pol}
			}
		}
	}
	if err := flush(); err != nil {
		return Strand{}, err
	}
	return s, nil
}
