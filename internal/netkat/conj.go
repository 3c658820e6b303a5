package netkat

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Conj is a satisfiable-by-construction conjunction of equality and
// inequality literals over packet fields (including "sw" and "pt"). It is
// the formula representation used by the compiler's path normal form and by
// event guards extracted from Stateful NetKAT programs (Figure 6).
//
// The zero value is not ready to use; call NewConj.
type Conj struct {
	eq  map[string]int          // field -> required value
	neq map[string]map[int]bool // field -> excluded values
}

// NewConj returns the empty (always-true) conjunction.
func NewConj() *Conj {
	return &Conj{eq: map[string]int{}, neq: map[string]map[int]bool{}}
}

// Clone returns an independent copy.
func (c *Conj) Clone() *Conj {
	d := NewConj()
	for f, v := range c.eq {
		d.eq[f] = v
	}
	for f, vs := range c.neq {
		m := map[int]bool{}
		for v := range vs {
			m[v] = true
		}
		d.neq[f] = m
	}
	return d
}

// AddEq conjoins the literal f = v. It reports false if the result is
// unsatisfiable (c is left unspecified in that case).
func (c *Conj) AddEq(f string, v int) bool {
	if w, ok := c.eq[f]; ok {
		return w == v
	}
	if c.neq[f][v] {
		return false
	}
	c.eq[f] = v
	delete(c.neq, f) // f = v subsumes all inequalities on f
	return true
}

// AddNeq conjoins the literal f != v. It reports false if the result is
// unsatisfiable.
func (c *Conj) AddNeq(f string, v int) bool {
	if w, ok := c.eq[f]; ok {
		return w != v
	}
	if c.neq[f] == nil {
		c.neq[f] = map[int]bool{}
	}
	c.neq[f][v] = true
	return true
}

// Exists strips every literal mentioning field f (the operation written
// (∃f : ϕ) in Figure 6 of the paper).
func (c *Conj) Exists(f string) {
	delete(c.eq, f)
	delete(c.neq, f)
}

// Eq returns the required value for field f, if any.
func (c *Conj) Eq(f string) (int, bool) {
	v, ok := c.eq[f]
	return v, ok
}

// Neq returns the sorted excluded values for field f.
func (c *Conj) Neq(f string) []int {
	var out []int
	for v := range c.neq[f] {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// EqFields returns the sorted fields constrained by equality.
func (c *Conj) EqFields() []string {
	out := make([]string, 0, len(c.eq))
	for f := range c.eq {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// NeqFields returns the sorted fields constrained by inequality.
func (c *Conj) NeqFields() []string {
	out := make([]string, 0, len(c.neq))
	for f := range c.neq {
		if len(c.neq[f]) > 0 {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

// Eval reports whether the conjunction holds of the located packet,
// resolving "sw" and "pt" against the location.
func (c *Conj) Eval(lp LocatedPacket) bool {
	get := func(f string) (int, bool) {
		switch f {
		case FieldSw:
			return lp.Loc.Switch, true
		case FieldPt:
			return lp.Loc.Port, true
		default:
			v, ok := lp.Pkt[f]
			return v, ok
		}
	}
	for f, v := range c.eq {
		w, ok := get(f)
		if !ok || w != v {
			return false
		}
	}
	for f, vs := range c.neq {
		w, ok := get(f)
		if !ok {
			continue // an absent field trivially differs from any value
		}
		if vs[w] {
			return false
		}
	}
	return true
}

// MergeWith conjoins d into c, reporting false on contradiction.
func (c *Conj) MergeWith(d *Conj) bool {
	for f, v := range d.eq {
		if !c.AddEq(f, v) {
			return false
		}
	}
	for f, vs := range d.neq {
		for v := range vs {
			if !c.AddNeq(f, v) {
				return false
			}
		}
	}
	return true
}

// Key returns a canonical string; equal conjunctions have equal keys.
// It is on the hot path of event extraction and compilation, so it is
// written with appends rather than fmt.
func (c *Conj) Key() string {
	buf := make([]byte, 0, 16*(len(c.eq)+len(c.neq)))
	for _, f := range c.EqFields() {
		buf = append(buf, f...)
		buf = append(buf, '=')
		buf = strconv.AppendInt(buf, int64(c.eq[f]), 10)
		buf = append(buf, ';')
	}
	for _, f := range c.NeqFields() {
		for _, v := range c.Neq(f) {
			buf = append(buf, f...)
			buf = append(buf, '!', '=')
			buf = strconv.AppendInt(buf, int64(v), 10)
			buf = append(buf, ';')
		}
	}
	return string(buf)
}

// String renders the conjunction in concrete syntax; the empty conjunction
// prints as "true".
func (c *Conj) String() string {
	var parts []string
	for _, f := range c.EqFields() {
		parts = append(parts, fmt.Sprintf("%s=%d", f, c.eq[f]))
	}
	for _, f := range c.NeqFields() {
		for _, v := range c.Neq(f) {
			parts = append(parts, fmt.Sprintf("%s!=%d", f, v))
		}
	}
	if len(parts) == 0 {
		return "true"
	}
	return strings.Join(parts, " & ")
}
