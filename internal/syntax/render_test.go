package syntax

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/stateful"
	"eventnet/internal/stateful/statefultest"
)

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
// to statefultest.StringRef on every application family at benchmark size and on
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
		cmds[fmt.Sprintf("random-%d", i)] = statefultest.RandCmd(r, 1+i%4)
	}
	for name, c := range cmds {
		got := c.String()
		if want := statefultest.StringRef(c); got != want {
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
		p := statefultest.RandPred(r, i%4)
		if got, want := p.String(), statefultest.PredRef(p); got != want {
			t.Fatalf("predicate rendering changed: got %s want %s", got, want)
		}
	}
}

// TestShapeIsNotSource: the placeholder stateful.Shape writes for a state
// test is a character the lexer rejects, so a shape never reads as a
// program and no program's shape can be spelled in source.
func TestShapeIsNotSource(t *testing.T) {
	for _, a := range apps.All() {
		shape, tests := stateful.Shape(a.Prog.Cmd)
		if len(tests) == 0 {
			t.Fatalf("%s: no state tests; the check is vacuous", a.Name)
		}
		if _, err := Parse(shape); err == nil || !strings.Contains(err.Error(), "unexpected character") {
			t.Fatalf("%s: parsing the shape gives %v, want the lexer's rejection", a.Name, err)
		}
	}
}
