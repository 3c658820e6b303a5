// Package statefultest holds what the tests of several packages share
// about Stateful NetKAT commands: a random command generator and the
// reference renderer the one-pass Cmd.String must match byte for byte.
// Only tests import it.
package statefultest

import (
	"fmt"
	"strings"

	"eventnet/internal/netkat"
	"eventnet/internal/stateful"
)

// Chooser makes RandCmd's choices: a *rand.Rand, or the bytes of a fuzz
// input.
type Chooser interface{ Intn(n int) int }

// RandCmd generates a random command of at most the given depth over
// fields a, b and pt, switches and ports 1..3, and state tests and
// assignments state(0..1) = 0..2.
func RandCmd(r Chooser, depth int) stateful.Cmd {
	if depth <= 0 {
		switch r.Intn(5) {
		case 0:
			return stateful.CPred{P: RandPred(r, 0)}
		case 1:
			return stateful.CAssign{Field: []string{"a", "b", "pt"}[r.Intn(3)], Value: r.Intn(4)}
		case 2:
			return stateful.CLink{Src: netkat.Location{Switch: 1 + r.Intn(3), Port: 1 + r.Intn(3)}, Dst: netkat.Location{Switch: 1 + r.Intn(3), Port: 1 + r.Intn(3)}}
		case 3:
			return stateful.CLinkState{
				Src:  netkat.Location{Switch: 1 + r.Intn(3), Port: 1 + r.Intn(3)},
				Dst:  netkat.Location{Switch: 1 + r.Intn(3), Port: 1 + r.Intn(3)},
				Sets: []stateful.StateSet{{Index: r.Intn(2), Value: r.Intn(3)}},
			}
		default:
			return stateful.CPred{P: stateful.PState{Index: r.Intn(2), Value: r.Intn(3)}}
		}
	}
	switch r.Intn(4) {
	case 0:
		return stateful.CUnion{L: RandCmd(r, depth-1), R: RandCmd(r, depth-1)}
	case 1:
		return stateful.CSeq{L: RandCmd(r, depth-1), R: RandCmd(r, depth-1)}
	case 2:
		return stateful.CStar{P: RandCmd(r, depth-1)}
	default:
		return stateful.CPred{P: RandPred(r, depth)}
	}
}

// RandPred generates a random test of at most the given depth over the
// same vocabulary as RandCmd.
func RandPred(r Chooser, depth int) stateful.Pred {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return stateful.PTrue{}
		case 1:
			return stateful.PFalse{}
		case 2:
			return stateful.PState{Index: r.Intn(2), Value: r.Intn(3)}
		default:
			return stateful.PTest{Field: []string{"a", "b", "pt"}[r.Intn(3)], Value: r.Intn(4)}
		}
	}
	switch r.Intn(3) {
	case 0:
		return stateful.PNot{P: RandPred(r, depth-1)}
	case 1:
		return stateful.PAnd{L: RandPred(r, depth-1), R: RandPred(r, depth-1)}
	default:
		return stateful.POr{L: RandPred(r, depth-1), R: RandPred(r, depth-1)}
	}
}

// StringRef is the renderer Cmd.String replaced: every operator
// concatenates its operands' renderings, so a leaf is copied once per
// enclosing operator. It stays as the reference the one-pass renderer
// must match byte for byte — the text is a cache key (ctrl.progKey) and
// the parser's input, and the compiler's segment shape is this text
// with the state tests cut out (stateful.Shape).
func StringRef(c stateful.Cmd) string {
	paren := func(c stateful.Cmd, level int) string {
		l := 3
		switch c.(type) {
		case stateful.CUnion:
			l = 1
		case stateful.CSeq:
			l = 2
		}
		if l < level {
			return "(" + StringRef(c) + ")"
		}
		return StringRef(c)
	}
	switch q := c.(type) {
	case stateful.CPred:
		return PredRef(q.P)
	case stateful.CAssign:
		return fmt.Sprintf("%s<-%d", q.Field, q.Value)
	case stateful.CUnion:
		return paren(q.L, 1) + " + " + paren(q.R, 1)
	case stateful.CSeq:
		return paren(q.L, 2) + "; " + paren(q.R, 2)
	case stateful.CStar:
		safe := false
		switch p := q.P.(type) {
		case stateful.CAssign, stateful.CLink, stateful.CLinkState:
			safe = true
		case stateful.CPred:
			switch p.P.(type) {
			case stateful.PAnd, stateful.POr:
			default:
				safe = true
			}
		}
		if safe {
			return StringRef(q.P) + "*"
		}
		return "(" + StringRef(q.P) + ")*"
	case stateful.CLink:
		return fmt.Sprintf("(%v)=>(%v)", q.Src, q.Dst)
	case stateful.CLinkState:
		parts := make([]string, len(q.Sets))
		for i, s := range q.Sets {
			parts[i] = fmt.Sprintf("state(%d)<-%d", s.Index, s.Value)
		}
		return fmt.Sprintf("(%v)=>(%v)<%s>", q.Src, q.Dst, strings.Join(parts, ", "))
	}
	panic(fmt.Sprintf("unknown command %T", c))
}

// PredRef is StringRef for tests.
func PredRef(p stateful.Pred) string {
	paren := func(p stateful.Pred, level int) string {
		l := 4
		switch p.(type) {
		case stateful.POr:
			l = 1
		case stateful.PAnd:
			l = 2
		case stateful.PNot:
			l = 3
		}
		if l < level {
			return "(" + PredRef(p) + ")"
		}
		return PredRef(p)
	}
	switch q := p.(type) {
	case stateful.PTrue:
		return "true"
	case stateful.PFalse:
		return "false"
	case stateful.PTest:
		return fmt.Sprintf("%s=%d", q.Field, q.Value)
	case stateful.PState:
		return fmt.Sprintf("state(%d)=%d", q.Index, q.Value)
	case stateful.PNot:
		return "!" + paren(q.P, 3)
	case stateful.PAnd:
		return paren(q.L, 2) + " & " + paren(q.R, 2)
	case stateful.POr:
		return paren(q.L, 1) + " | " + paren(q.R, 1)
	}
	panic(fmt.Sprintf("unknown predicate %T", p))
}
