package ctrl_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/ctrl"
	"eventnet/internal/ets"
	"eventnet/internal/nes"
	"eventnet/internal/stateful"
	"eventnet/internal/syntax"
)

// TestCompileRefusesNonLocal: Load, Compile and Swap refuse every program
// of the negative corpus (testdata/nonlocal at the module root, on the
// firewall topology) with a *nes.NotLocalError carrying ets.Compile's
// evidence text, before and after a program is served, and the served
// program stays current.
func TestCompileRefusesNonLocal(t *testing.T) {
	a := apps.Firewall()
	c := ctrl.New(a.Topo, ctrl.Options{Workers: 1})
	defer c.Close()
	files, err := filepath.Glob("../../testdata/nonlocal/*.snk")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	refused := func(what string, err, want error) {
		t.Helper()
		var nl *nes.NotLocalError
		if !errors.As(err, &nl) || !strings.Contains(err.Error(), want.Error()) {
			t.Errorf("%s returned %v, want the evidence %q", what, err, want)
		}
	}
	progs := map[string]stateful.Program{}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if progs[f], err = syntax.ParseProgram(string(src), []int{0}); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		_, _, _, want := ets.Compile(progs[f], a.Topo, nil, 0)
		refused(f+": Load", c.Load("nonlocal", progs[f]), want)
	}
	if err := c.Load(a.Name, a.Prog); err != nil {
		t.Fatal(err)
	}
	for f, p := range progs {
		_, _, _, want := ets.Compile(p, a.Topo, nil, 0)
		_, err := c.Compile("nonlocal", p)
		refused(f+": Compile", err, want)
		_, err = c.Swap("nonlocal", p)
		refused(f+": Swap", err, want)
	}
	if cur := c.Current(); cur == nil || cur.Name != a.Name {
		t.Fatalf("a refused program displaced the served one: %v", cur)
	}
}
