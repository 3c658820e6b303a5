package netkat

import (
	"slices"
	"strconv"
	"strings"
)

// Lit is one literal of a conjunction: F = V when Eq holds, F != V
// otherwise.
type Lit struct {
	F  string
	V  int
	Eq bool
}

// Conj is a satisfiable-by-construction conjunction of equality and
// inequality literals over packet fields (including "sw" and "pt"). It is
// the one form of a conjunction of field tests: the compiler's path normal
// form, the event guards extracted from Stateful NetKAT programs (Figure
// 6), and the match of a flow-table rule (flowtable.Match).
//
// The literals are one slice sorted by (field, value) with no repeats; a
// field with an equality carries no inequality. The zero value is the
// empty (always-true) conjunction.
type Conj struct {
	lits []Lit
}

// NewConj returns the empty (always-true) conjunction.
func NewConj() *Conj { return &Conj{} }

// Clone returns an independent copy.
func (c *Conj) Clone() *Conj { return &Conj{lits: slices.Clone(c.lits)} }

// Lits returns the literals sorted by (field, value). The slice is c's
// own: callers must not modify it.
func (c *Conj) Lits() []Lit { return c.lits }

// span returns the range [lo, hi) of c's literals on field f; lo is where
// they would go when there are none.
func (c *Conj) span(f string) (lo, hi int) {
	for lo < len(c.lits) && c.lits[lo].F < f {
		lo++
	}
	hi = lo
	for hi < len(c.lits) && c.lits[hi].F == f {
		hi++
	}
	return lo, hi
}

// Add conjoins the literal l. It reports false if the result is
// unsatisfiable (c is left unspecified in that case). An equality drops
// the inequalities on its field, which it implies.
func (c *Conj) Add(l Lit) bool {
	lo, hi := c.span(l.F)
	if lo < hi && c.lits[lo].Eq {
		return (c.lits[lo].V == l.V) == l.Eq
	}
	i := lo // c holds only inequalities on l.F, ascending by value
	for i < hi && c.lits[i].V < l.V {
		i++
	}
	has := i < hi && c.lits[i].V == l.V
	switch {
	case l.Eq && has:
		return false
	case l.Eq:
		c.lits = slices.Replace(c.lits, lo, hi, l)
	case !has:
		c.lits = slices.Insert(c.lits, i, l)
	}
	return true
}

// AddEq conjoins the literal f = v. It reports false if the result is
// unsatisfiable (c is left unspecified in that case).
func (c *Conj) AddEq(f string, v int) bool { return c.Add(Lit{F: f, V: v, Eq: true}) }

// AddNeq conjoins the literal f != v. It reports false if the result is
// unsatisfiable.
func (c *Conj) AddNeq(f string, v int) bool { return c.Add(Lit{F: f, V: v}) }

// Exists strips every literal mentioning field f (the operation written
// (∃f : ϕ) in Figure 6 of the paper).
func (c *Conj) Exists(f string) {
	lo, hi := c.span(f)
	c.lits = slices.Delete(c.lits, lo, hi)
}

// Eq returns the required value for field f, if any.
func (c *Conj) Eq(f string) (int, bool) {
	lo, hi := c.span(f)
	if lo < hi && c.lits[lo].Eq {
		return c.lits[lo].V, true
	}
	return 0, false
}

// Neq returns the sorted excluded values for field f.
func (c *Conj) Neq(f string) []int {
	var out []int
	lo, hi := c.span(f)
	for _, l := range c.lits[lo:hi] {
		if !l.Eq {
			out = append(out, l.V)
		}
	}
	return out
}

// Eval reports whether the conjunction holds of the located packet,
// resolving "sw" and "pt" against the location. A field absent from the
// packet fails an equality and passes an inequality.
func (c *Conj) Eval(lp LocatedPacket) bool {
	for _, l := range c.lits {
		var w int
		ok := true
		switch l.F {
		case FieldSw:
			w = lp.Loc.Switch
		case FieldPt:
			w = lp.Loc.Port
		default:
			w, ok = lp.Pkt[l.F]
		}
		if (ok && w == l.V) != l.Eq {
			return false
		}
	}
	return true
}

// MergeWith conjoins d into c, reporting false on contradiction.
func (c *Conj) MergeWith(d *Conj) bool {
	for _, l := range d.lits {
		if !c.Add(l) {
			return false
		}
	}
	return true
}

// Subsumes reports whether every packet satisfying o satisfies c, read
// syntactically (sound, not complete): each literal of c is a literal of
// o, or an inequality that an equality of o on the same field implies.
func (c *Conj) Subsumes(o *Conj) bool {
	for _, l := range c.lits {
		lo, hi := o.span(l.F)
		switch {
		case lo < hi && o.lits[lo].Eq:
			if (o.lits[lo].V == l.V) != l.Eq {
				return false
			}
		case l.Eq || !slices.Contains(o.lits[lo:hi], l):
			return false
		}
	}
	return true
}

// Key returns a canonical string; equal conjunctions have equal keys.
// It is on the hot path of event extraction and compilation, so it is
// written with appends rather than fmt.
func (c *Conj) Key() string {
	return string(c.AppendKey(make([]byte, 0, 16*len(c.lits)), ""))
}

// AppendKey appends c's key to dst, leaving out the literals on field
// skip ("" leaves out none): "f=v;" per equality, then "f!=v;" per
// inequality, each in (field, value) order.
func (c *Conj) AppendKey(dst []byte, skip string) []byte {
	for _, eq := range [2]bool{true, false} {
		for _, l := range c.lits {
			if l.Eq != eq || l.F == skip {
				continue
			}
			dst = append(dst, l.F...)
			if !eq {
				dst = append(dst, '!')
			}
			dst = append(dst, '=')
			dst = strconv.AppendInt(dst, int64(l.V), 10)
			dst = append(dst, ';')
		}
	}
	return dst
}

// String renders the conjunction in concrete syntax, equalities first;
// the empty conjunction prints as "true". Field names are identifiers,
// so ';' in the key only ends literals.
func (c *Conj) String() string {
	if len(c.lits) == 0 {
		return "true"
	}
	k := c.Key()
	return strings.ReplaceAll(k[:len(k)-1], ";", " & ")
}
