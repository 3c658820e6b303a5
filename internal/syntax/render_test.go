package syntax

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/stateful"
)

// stringRef is the renderer Cmd.String replaced: every operator
// concatenates its operands' renderings, so a leaf is copied once per
// enclosing operator. It stays as the reference the one-pass renderer
// must match byte for byte — the text is a cache key (ctrl.progKey,
// nkc.programKey, the segment memo) and the parser's input.
func stringRef(c stateful.Cmd) string {
	paren := func(c stateful.Cmd, level int) string {
		l := 3
		switch c.(type) {
		case stateful.CUnion:
			l = 1
		case stateful.CSeq:
			l = 2
		}
		if l < level {
			return "(" + stringRef(c) + ")"
		}
		return stringRef(c)
	}
	switch q := c.(type) {
	case stateful.CPred:
		return predRef(q.P)
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
			return stringRef(q.P) + "*"
		}
		return "(" + stringRef(q.P) + ")*"
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

func predRef(p stateful.Pred) string {
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
			return "(" + predRef(p) + ")"
		}
		return predRef(p)
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

// bytesPerRun is the mean number of bytes f allocates.
func bytesPerRun(runs int, f func()) float64 {
	var m0, m1 runtime.MemStats
	f()
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

// TestCmdStringLinear: rendering a program allocates a small multiple of
// the text it returns — not a copy of every subtree per enclosing
// operator, which for the right-nested union of bandwidth-cap-2000 is
// hundreds of times the text — and the text is unchanged: byte-identical
// to stringRef on every application family at benchmark size and on
// random commands, and a fixpoint of Parse -> String.
func TestCmdStringLinear(t *testing.T) {
	big := apps.BandwidthCap(2000).Prog.Cmd
	text := big.String()
	if got := bytesPerRun(5, func() { _ = big.String() }); got > 4*float64(len(text)) {
		t.Errorf("bandwidth-cap-2000: String allocates %.0f bytes for a %d-byte text (%.1fx, want <= 4x)", got, len(text), got/float64(len(text)))
	}

	cmds := map[string]stateful.Cmd{}
	for _, a := range append(apps.All(),
		apps.BandwidthCap(200), apps.BandwidthCap(2000), apps.IDSFatTree(4), apps.IDSFatTree(10),
		apps.FailoverWAN(4).App, apps.FailoverDiamond(3).App, apps.FailoverFatTree(4, 2).App,
		apps.WalledGarden(), apps.DistributedFirewall()) {
		cmds[a.Name] = a.Prog.Cmd
	}
	r := rand.New(rand.NewSource(20))
	for i := 0; i < 300; i++ {
		cmds[fmt.Sprintf("random-%d", i)] = randCmd(r, 1+i%4)
	}
	for name, c := range cmds {
		got := c.String()
		if want := stringRef(c); got != want {
			t.Fatalf("%s: rendering changed:\n got %s\nwant %s", name, got, want)
		}
		parsed, err := Parse(got)
		if err != nil {
			t.Fatalf("%s: Parse(String): %v", name, err)
		}
		if again := parsed.String(); again != got {
			t.Fatalf("%s: Parse -> String moved the text:\n%s\n->\n%s", name, got, again)
		}
	}
	// Tests render on their own too (guard keys, diagnostics).
	for i := 0; i < 300; i++ {
		p := randPred(r, i%4)
		if got, want := p.String(), predRef(p); got != want {
			t.Fatalf("predicate rendering changed: got %s want %s", got, want)
		}
	}
}
