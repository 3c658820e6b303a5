package netkat

import "fmt"

// Policy is a NetKAT command: a relation on located packets built from
// tests, field assignments, union, sequencing, iteration, and links.
type Policy interface {
	isPolicy()
	String() string
}

// Filter lifts a predicate to a policy: pass the packet iff the test holds.
type Filter struct{ P Pred }

// Assign is the field assignment x <- n. Assigning "pt" moves the packet to
// another port of the same switch; assigning "sw" is rejected by Validate.
type Assign struct {
	Field string
	Value int
}

// Union is p + q: the union of the two packet-processing behaviors.
type Union struct{ L, R Policy }

// Seq is p ; q: run q on each result of p.
type Seq struct{ L, R Policy }

// Star is p*: true + p + p;p + ... (reflexive transitive closure).
type Star struct{ P Policy }

// Link is the link definition (n1:m1) -> (n2:m2): it forwards a packet
// located at Src across a physical link to Dst.
type Link struct {
	Src, Dst Location
}

func (Filter) isPolicy() {}
func (Assign) isPolicy() {}
func (Union) isPolicy()  {}
func (Seq) isPolicy()    {}
func (Star) isPolicy()   {}
func (Link) isPolicy()   {}

func (f Filter) String() string { return f.P.String() }
func (a Assign) String() string { return fmt.Sprintf("%s<-%d", a.Field, a.Value) }
func (u Union) String() string  { return parenPol(u.L, 1) + " + " + parenPol(u.R, 1) }
func (s Seq) String() string    { return parenPol(s.L, 2) + "; " + parenPol(s.R, 2) }
func (s Star) String() string   { return parenPol(s.P, 3) + "*" }
func (l Link) String() string   { return fmt.Sprintf("(%v)=>(%v)", l.Src, l.Dst) }

func polLevel(p Policy) int {
	switch p.(type) {
	case Union:
		return 1
	case Seq:
		return 2
	default:
		return 3
	}
}

func parenPol(p Policy, level int) string {
	if polLevel(p) < level {
		return "(" + p.String() + ")"
	}
	return p.String()
}

// ID is the identity policy (the test true).
func ID() Policy { return Filter{True{}} }

// SeqAll folds policies with Seq; the empty list is ID.
func SeqAll(ps ...Policy) Policy {
	if len(ps) == 0 {
		return ID()
	}
	out := ps[0]
	for _, p := range ps[1:] {
		out = Seq{out, p}
	}
	return out
}

// Validate checks static well-formedness: no assignment to "sw" and no
// negative field values (the compiler reserves negatives as wildcards).
func Validate(p Policy) error {
	switch q := p.(type) {
	case Filter:
		return validatePred(q.P)
	case Assign:
		if q.Field == FieldSw {
			return fmt.Errorf("netkat: assignment to sw is not allowed; use a Link")
		}
		if q.Value < 0 {
			return fmt.Errorf("netkat: negative value in assignment %v", q)
		}
		return nil
	case Union:
		if err := Validate(q.L); err != nil {
			return err
		}
		return Validate(q.R)
	case Seq:
		if err := Validate(q.L); err != nil {
			return err
		}
		return Validate(q.R)
	case Star:
		return Validate(q.P)
	case Link:
		return nil
	default:
		return fmt.Errorf("netkat: unknown policy node %T", p)
	}
}

func validatePred(p Pred) error {
	switch q := p.(type) {
	case Test:
		if q.Value < 0 {
			return fmt.Errorf("netkat: negative value in test %v", q)
		}
		return nil
	case Not:
		return validatePred(q.P)
	case And:
		if err := validatePred(q.L); err != nil {
			return err
		}
		return validatePred(q.R)
	case Or:
		if err := validatePred(q.L); err != nil {
			return err
		}
		return validatePred(q.R)
	default:
		return nil
	}
}

// Links returns every Link node occurring in the policy, in syntax order.
func Links(p Policy) []Link {
	var out []Link
	var walk func(Policy)
	walk = func(p Policy) {
		switch q := p.(type) {
		case Union:
			walk(q.L)
			walk(q.R)
		case Seq:
			walk(q.L)
			walk(q.R)
		case Star:
			walk(q.P)
		case Link:
			out = append(out, q)
		}
	}
	walk(p)
	return out
}
