package nkc

import (
	"runtime"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/stateful"
)

// allocBytes is the TotalAlloc delta of f.
func allocBytes(f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc - m0.TotalAlloc)
}

// acquireCosts compares what Acquire of b allocates on cache c with a
// stand-alone compiler of the same program: the latter's skeleton work is
// the former's too, less the FDD context and interners only it builds.
// The returned excess is what Acquire allocates beyond that skeleton.
func acquireCosts(t *testing.T, c *ProgramCache, b apps.App) (excess, ctx float64, root *ProgramCompiler) {
	t.Helper()
	acquire := allocBytes(func() {
		var err error
		if root, err = c.Acquire(b.Prog.Cmd, b.Topo); err != nil {
			t.Fatal(err)
		}
	})
	c.Release()
	fresh := allocBytes(func() {
		if _, err := NewProgramCompiler(b.Prog.Cmd, b.Topo, nil); err != nil {
			t.Fatal(err)
		}
	})
	ctx = allocBytes(func() { NewFDDCtx(); newCompilerInterns() })
	t.Logf("%s: Acquire %.0f KB, stand-alone compiler %.0f KB of which context and interners %.0f KB", b.Name, acquire/1e3, fresh/1e3, ctx/1e3)
	return acquire - (fresh - ctx), ctx, root
}

// TestAcquireBuildsOnCacheContext: the root compiler of a novel revision
// is constructed on the cache's own FDD context and interners. Building a
// stand-alone compiler first and re-homing it allocated a whole context
// per submit, to throw it away, and left the skeleton keyed by ids of
// interners nothing else shares. Both legs run on one cache: empty, then
// holding the earlier revision.
func TestAcquireBuildsOnCacheContext(t *testing.T) {
	c := NewProgramCache()
	for _, b := range []apps.App{apps.BandwidthCap(200), apps.BandwidthCap(201)} {
		excess, ctx, root := acquireCosts(t, c, b)
		if root.ctx != c.ctx || root.intern != c.intern {
			t.Fatal("the acquired root is not on the cache's context and interners")
		}
		for i, seg := range root.segs {
			shape, _ := stateful.Shape(root.segCmd(i))
			if id, ok := c.intern.segKeys.ids[shape]; !ok || id != seg.key {
				t.Fatalf("%s: segment %d is keyed %d, the cache's interner has %d (present %v): the skeleton was built on other interners", b.Name, i, seg.key, id, ok)
			}
		}
		if excess > ctx/2 {
			t.Fatalf("%s: Acquire allocates %.1f KB beyond the skeleton, a context and interners %.1f KB: it is building a context of its own", b.Name, excess/1e3, ctx/1e3)
		}
	}
}

// TestOneRenderingPerSubmit: between Swap's entry and return the whole
// program is rendered once, by ctrl for its generation memo, the one
// whole-program memo (TestCompileMemoHitRendersOnce pins that side). The
// compiler's half renders link-free segments only — the text their
// interned ids stand for — and keys nothing by the whole program: beyond
// the skeleton, Acquire of cap-2001 allocates less than the 90 KB program
// text, where one more rendering alone is twice it. An empty cache, so
// that Acquire and the stand-alone compiler intern the same keys.
func TestOneRenderingPerSubmit(t *testing.T) {
	b := apps.BandwidthCap(2001)
	text := float64(len(b.Prog.Cmd.String()))
	if render := allocBytes(func() { _ = b.Prog.Cmd.String() }); render < 2*text {
		t.Fatalf("one rendering allocates %.0f KB for %.0f KB of text; the bound below assumes at least twice the text", render/1e3, text/1e3)
	}
	excess, _, root := acquireCosts(t, NewProgramCache(), b)
	if excess > text {
		t.Fatalf("Acquire allocates %.0f KB beyond the skeleton, the program text is %.0f KB: something renders the whole program again", excess/1e3, text/1e3)
	}
	for i := range root.segs {
		if shape, _ := stateful.Shape(root.segCmd(i)); float64(len(shape)) > text/4 {
			t.Fatalf("a segment key is %d bytes of a %.0f-byte program: the test program is not made of small segments", len(shape), text)
		}
	}
}
