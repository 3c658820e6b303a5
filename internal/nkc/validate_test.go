package nkc

import (
	"fmt"
	"math/rand"
	"testing"

	"eventnet/internal/netkat"
	"eventnet/internal/stateful"
	"eventnet/internal/stateful/statefultest"
	"eventnet/internal/topo"
)

// TestValidateMatchesProjection: the skeleton pass gives netkat.Validate's
// verdict, message included, on the projection it does not build, before
// any structural error the reference skeleton reports — for random
// commands with and without an invalid assignment or test on either side
// of a union or a sequence, so the first error in Validate's order is the
// one reported.
func TestValidateMatchesProjection(t *testing.T) {
	bad := []stateful.Cmd{
		nil,
		stateful.CAssign{Field: netkat.FieldSw, Value: 1},
		stateful.CAssign{Field: "a", Value: -1},
		stateful.CPred{P: stateful.PNot{P: stateful.PTest{Field: "b", Value: -2}}},
		stateful.CStar{P: stateful.CPred{P: stateful.POr{L: stateful.PTrue{}, R: stateful.PAnd{L: stateful.PState{Index: 0, Value: 1}, R: stateful.PTest{Field: "a", Value: -3}}}}},
	}
	verdict := func(err error) string { return fmt.Sprint(err) }
	r := rand.New(rand.NewSource(1))
	invalid := 0
	for i := 0; i < 3000; i++ {
		c := statefultest.RandCmd(r, 4)
		if b := bad[r.Intn(len(bad))]; b != nil {
			switch r.Intn(4) {
			case 0:
				c = stateful.CUnion{L: c, R: b}
			case 1:
				c = stateful.CUnion{L: b, R: stateful.CSeq{L: c, R: bad[1+r.Intn(len(bad)-1)]}}
			case 2:
				c = stateful.CSeq{L: c, R: b}
			default:
				c = stateful.CSeq{L: b, R: c}
			}
		}
		want := netkat.Validate(stateful.Project(c, stateful.State{}))
		if want != nil {
			invalid++
		} else {
			_, _, want = annotateCmdLinks(c) // valid: the reference skeleton's structural error, if any
		}
		if _, got := NewProgramCompiler(c, topo.New(), nil); verdict(got) != verdict(want) {
			t.Fatalf("%v: the skeleton pass says %v, the projection's check then the reference skeleton %v", c, got, want)
		}
	}
	if invalid < 1000 {
		t.Fatalf("only %d of 3000 commands invalid", invalid)
	}
}
