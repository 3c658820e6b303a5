package ctrl_test

import (
	"runtime"
	"testing"
	"weak"

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

// TestEvictedGenerationIsCollectable: a program that has fallen out of
// the memo while it was running, and has then been retired by a swap, is
// garbage — checked with the controller still live, before Close. The
// memo evicts bandwidth-cap-10 while it is current; nothing of the
// controller (its memo's backing array included) or its engine may keep
// it after the swap retires it.
func TestEvictedGenerationIsCollectable(t *testing.T) {
	base := apps.BandwidthCap(10)
	c := ctrl.New(base.Topo, ctrl.Options{Workers: 1})
	defer c.Close()
	if err := c.Load(base.Name, base.Prog); err != nil {
		t.Fatal(err)
	}
	initial := weak.Make(c.Current().NES)
	for k := 11; k <= 18; k++ { // eight revisions push the running program out of the memo
		a := apps.BandwidthCap(k)
		if _, err := c.Compile(a.Name, a.Prog); err != nil {
			t.Fatal(err)
		}
	}
	next := apps.BandwidthCap(19) // a novel revision: the memo evicts again, in place
	if _, err := c.Swap(next.Name, next.Prog); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	if initial.Value() != nil {
		t.Fatal("the evicted, retired initial program is still reachable")
	}
}
