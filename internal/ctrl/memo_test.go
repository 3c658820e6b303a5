package ctrl_test

import (
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/ctrl"
)

// TestCompileMemoHitRendersOnce: a program is identified in the memo by
// its canonical rendering, which a memo hit must produce once — for the
// submitted program — and compare against keys stored at insert. With
// the memo full of large programs, a hit that also renders every
// memoized generation (under the controller's lock) costs several times
// the submission's own rendering; allocations count the renderings.
func TestCompileMemoHitRendersOnce(t *testing.T) {
	first := apps.BandwidthCap(40)
	c := ctrl.New(first.Topo, ctrl.Options{})
	defer c.Close()
	for n := 40; n < 48; n++ { // fills the memo; `first` ends up oldest
		a := apps.BandwidthCap(n)
		if _, err := c.Compile(a.Name, a.Prog); err != nil {
			t.Fatal(err)
		}
	}
	want, err := c.Compile(first.Name, first.Prog)
	if err != nil {
		t.Fatal(err)
	}
	render := testing.AllocsPerRun(10, func() { _ = first.Prog.Cmd.String() })
	hit := testing.AllocsPerRun(10, func() {
		// `first` is the youngest entry after the hit above, so each of
		// these walks past the seven others before finding it.
		if got, _ := c.Compile(first.Name, first.Prog); got != want {
			t.Error("memo miss on an unchanged program")
		}
	})
	if hit > 2*render {
		t.Fatalf("a memo hit allocates %.0f, the submitted program's rendering %.0f: the memoized programs are being rendered too", hit, render)
	}
}
