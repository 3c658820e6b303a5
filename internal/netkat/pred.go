package netkat

import "fmt"

// Pred is a NetKAT predicate (a test): a boolean formula over packet
// header fields plus the location pseudo-fields "sw" and "pt".
type Pred interface {
	isPred()
	// Eval reports whether the predicate holds of the located packet.
	Eval(lp LocatedPacket) bool
	String() string
}

// True is the always-true test.
type True struct{}

// False is the always-false test (drop, as a policy).
type False struct{}

// Test is the equality test field = value. Field may be a header field or
// one of the pseudo-fields "sw"/"pt", which test the packet's location.
type Test struct {
	Field string
	Value int
}

// Not is boolean negation.
type Not struct{ P Pred }

// And is boolean conjunction.
type And struct{ L, R Pred }

// Or is boolean disjunction.
type Or struct{ L, R Pred }

func (True) isPred()  {}
func (False) isPred() {}
func (Test) isPred()  {}
func (Not) isPred()   {}
func (And) isPred()   {}
func (Or) isPred()    {}

// Eval implements Pred.
func (True) Eval(LocatedPacket) bool { return true }

// Eval implements Pred.
func (False) Eval(LocatedPacket) bool { return false }

// Eval implements Pred.
func (t Test) Eval(lp LocatedPacket) bool {
	switch t.Field {
	case FieldSw:
		return lp.Loc.Switch == t.Value
	case FieldPt:
		return lp.Loc.Port == t.Value
	default:
		v, ok := lp.Pkt[t.Field]
		return ok && v == t.Value
	}
}

// Eval implements Pred.
func (n Not) Eval(lp LocatedPacket) bool { return !n.P.Eval(lp) }

// Eval implements Pred.
func (a And) Eval(lp LocatedPacket) bool { return a.L.Eval(lp) && a.R.Eval(lp) }

// Eval implements Pred.
func (o Or) Eval(lp LocatedPacket) bool { return o.L.Eval(lp) || o.R.Eval(lp) }

func (True) String() string   { return "true" }
func (False) String() string  { return "false" }
func (t Test) String() string { return fmt.Sprintf("%s=%d", t.Field, t.Value) }
func (n Not) String() string  { return "!" + parenPred(n.P, 3) }
func (a And) String() string  { return parenPred(a.L, 2) + " & " + parenPred(a.R, 2) }
func (o Or) String() string   { return parenPred(o.L, 1) + " | " + parenPred(o.R, 1) }

// predLevel returns the binding strength of a predicate's top operator.
func predLevel(p Pred) int {
	switch p.(type) {
	case Or:
		return 1
	case And:
		return 2
	case Not:
		return 3
	default:
		return 4
	}
}

func parenPred(p Pred, level int) string {
	if predLevel(p) < level {
		return "(" + p.String() + ")"
	}
	return p.String()
}
