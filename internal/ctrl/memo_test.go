package ctrl_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"weak"

	"eventnet/internal/apps"
	"eventnet/internal/ctrl"
	"eventnet/internal/dataplane"
	"eventnet/internal/stateful"
	"eventnet/internal/topo"
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

// TestMemoHitChecksFields: whether a program fits one schema beside the
// running program does not depend on memo history. A and X test 40
// header fields each, S one: A compiled beside S is a memo hit after the
// controller moves to X, and is refused as a controller that has always
// run X refuses it.
func TestMemoHitChecksFields(t *testing.T) {
	progs := map[string]stateful.Program{"S": wideProgram("s", 1), "A": wideProgram("f", 40), "X": wideProgram("g", 40)}
	type step struct {
		op, prog string // op is load, compile or swap
		refuse   int    // header fields the refusal counts; 0 when accepted
	}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"A fresh beside X", []step{{"load", "X", 0}, {"compile", "A", 80}}},
		{"A memoized beside S, X running", []step{{"load", "S", 0}, {"compile", "A", 0}, {"swap", "X", 0}, {"compile", "A", 80}}},
		{"swap to A memoized beside S, X running", []step{{"load", "S", 0}, {"compile", "A", 0}, {"swap", "X", 0}, {"swap", "A", 80}}},
		{"A memoized beside S, S running", []step{{"load", "S", 0}, {"compile", "A", 0}, {"compile", "A", 0}}},
		{"A memoized and running, X refused", []step{{"load", "A", 0}, {"swap", "X", 80}, {"compile", "A", 0}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := ctrl.New(topo.Firewall(), ctrl.Options{})
			defer c.Close()
			for i, s := range tc.steps {
				var err error
				switch s.op {
				case "load":
					err = c.Load(s.prog, progs[s.prog])
				case "compile":
					_, err = c.Compile(s.prog, progs[s.prog])
				case "swap":
					_, err = c.Swap(s.prog, progs[s.prog])
				}
				want := fmt.Sprintf("program uses %d header fields; the flat packet representation caps at 64", s.refuse)
				switch {
				case s.refuse == 0 && err != nil:
					t.Fatalf("step %d, %s %s: %v", i, s.op, s.prog, err)
				case s.refuse != 0 && (!errors.Is(err, dataplane.ErrFieldLimit) || !strings.HasSuffix(err.Error(), want)):
					t.Fatalf("step %d, %s %s: got %v, want a refusal ending %q", i, s.op, s.prog, err, want)
				}
			}
		})
	}
}

// TestConcurrentCompileMemoizesOnce: goroutines compiling one novel
// program together all miss the memo and all build it, and must still
// get one *Program — the documented "same *Program, same plan" — in one
// memo slot.
func TestConcurrentCompileMemoizesOnce(t *testing.T) {
	a := apps.BandwidthCap(2000)
	c := ctrl.New(a.Topo, ctrl.Options{})
	defer c.Close()
	const n = 8
	got := make([]*ctrl.Program, n)
	errs := make([]error, n)
	barrier := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-barrier
			got[i], errs[i] = c.Compile(a.Name, a.Prog)
		}()
	}
	close(barrier)
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != got[0] {
			t.Fatalf("compile %d returned a generation of its own", i)
		}
	}
	if m := ctrl.MemoLen(c); m != 1 {
		t.Fatalf("one program holds %d memo slots", m)
	}
}

// TestEvictedProgramRebuildsFromMemos: the controller's generation memo
// is the one whole-program memo. A program pushed out of it by eight
// novel revisions compiles again as a new generation, but from the
// compiler cache's structural memos: no ToFDD call, no Figure 6 walk,
// and the tables of its first build.
func TestEvictedProgramRebuildsFromMemos(t *testing.T) {
	first := apps.BandwidthCap(40)
	c := ctrl.New(first.Topo, ctrl.Options{})
	defer c.Close()
	was, err := c.Compile(first.Name, first.Prog)
	if err != nil {
		t.Fatal(err)
	}
	for k := 41; k <= 48; k++ {
		a := apps.BandwidthCap(k)
		if _, err := c.Compile(a.Name, a.Prog); err != nil {
			t.Fatal(err)
		}
	}
	again, err := c.Compile(first.Name, first.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if again == was {
		t.Fatal("eight novel revisions did not push the program out of the memo")
	}
	if st := again.Stats.Cache; st.SegmentMisses != 0 || st.TemplateMisses != 0 {
		t.Fatalf("the rebuild translated %d segments and walked Figure 6 %d times, want 0 and 0", st.SegmentMisses, st.TemplateMisses)
	}
	if len(again.ETS.Vertices) != len(was.ETS.Vertices) {
		t.Fatalf("the rebuild has %d states, the first build %d", len(again.ETS.Vertices), len(was.ETS.Vertices))
	}
	for i, v := range again.ETS.Vertices {
		if len(v.Tables) != len(was.ETS.Vertices[i].Tables) {
			t.Fatalf("vertex %d: %d tables, the first build %d", i, len(v.Tables), len(was.ETS.Vertices[i].Tables))
		}
		for sw, tbl := range v.Tables {
			if tbl != was.ETS.Vertices[i].Tables[sw] {
				t.Fatalf("vertex %d switch %d holds a table of its own, not the first build's", i, sw)
			}
		}
	}
}
