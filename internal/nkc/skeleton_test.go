package nkc

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/netkat"
	"eventnet/internal/stateful"
	"eventnet/internal/stateful/statefultest"
	"eventnet/internal/topo"
)

// TestSkeletonMatchesReference holds the one-pass skeleton against the
// extraction it replaced (skeleton_ref_test.go), strand by strand and in
// order: segment key bytes and interned ids, test positions, links,
// updates, lastUpdate, walk ids and positions, the guard index
// (stateful.CollectGuards) and the strands testing each guard. Each side
// interns on an interner set of its own that every program shares, as
// the builds of a ProgramCache do, and the new side builds each program
// in the arrays of the one before; so an id that drifts, in one program
// or across them, fails here. Each segment's lazily built command renders
// (stateful.Shape) to its key. Programs that fail must fail alike.
func TestSkeletonMatchesReference(t *testing.T) {
	type prog struct {
		name string
		cmd  stateful.Cmd
		topo *topo.Topology
	}
	var progs []prog
	named := append(apps.All(), apps.FailoverDiamond(2).App, apps.FailoverWAN(2).App, apps.FailoverFatTree(4, 2).App,
		apps.BandwidthCap(10), apps.BandwidthCap(200), apps.BandwidthCap(2000), twoComponentApp())
	for _, a := range named {
		progs = append(progs, prog{a.Name, a.Prog.Cmd, a.Topo})
	}
	three := topo.New()
	for sw := 1; sw <= 3; sw++ {
		three.AddSwitch(sw)
	}
	r := rand.New(rand.NewSource(45))
	for i := 0; i < 1500; i++ {
		progs = append(progs, prog{fmt.Sprintf("random-%d", i), statefultest.RandCmd(r, 1+i%5), three})
	}

	refIn, newIn := newCompilerInterns(), newCompilerInterns()
	ctx := NewFDDCtx()
	var prev skeleton
	built, failed := 0, 0
	for _, p := range progs {
		ref, refErr := refSkeletonOf(p.cmd, refIn)
		pc, err := newProgramCompiler(p.cmd, p.topo, ctx, newIn, prev)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("%s: error %v, the reference's %v", p.name, err, refErr)
		}
		if err != nil {
			failed++
			continue
		}
		built++
		prev = pc.skeleton
		keys := map[uint32]string{}
		for k, id := range newIn.segKeys.ids {
			keys[id] = k
		}
		if got, want := pc.guards.Tests(), ref.guards.Tests(); !slices.Equal(got, want) {
			t.Fatalf("%s: guards %v, the reference's %v", p.name, got, want)
		}
		if len(pc.strands) != len(ref.strands) {
			t.Fatalf("%s: %d strands, the reference %d", p.name, len(pc.strands), len(ref.strands))
		}
		for si, s := range pc.strands {
			rs := &ref.strands[si]
			where := fmt.Sprintf("%s strand %d", p.name, si)
			if int(s.n) != len(rs.links) || s.lastUpdate != int32(rs.lastUpdate) {
				t.Fatalf("%s: %d links, last update %d; the reference %d, %d", where, s.n, s.lastUpdate, len(rs.links), rs.lastUpdate)
			}
			if links := pc.links[s.link : s.link+s.n]; !slices.Equal(links, rs.links) {
				t.Fatalf("%s: links %v, the reference's %v", where, links, rs.links)
			}
			for j, u := range pc.updates[s.link : s.link+s.n] {
				if (u == nil) != (rs.updates[j] == nil) || u != nil && !reflect.DeepEqual(*u, *rs.updates[j]) {
					t.Fatalf("%s link %d: update %v, the reference's %v", where, j, u, rs.updates[j])
				}
			}
			for j, rg := range rs.segs {
				id := int(s.seg) + j
				g := pc.segs[id]
				if rg.id != id || keys[g.key] != rg.key || g.key != ref.segKeyIDs[rg.id] {
					t.Fatalf("%s segment %d: id %d key %d %q; the reference's id %d key %d %q", where, j, id, g.key, keys[g.key], rg.id, ref.segKeyIDs[rg.id], rg.key)
				}
				if pos := pc.testPos[g.lo:g.hi]; !slices.Equal(pos, ref.segTestPos[rg.id]) {
					t.Fatalf("%s segment %d: tests at %v, the reference's at %v", where, j, pos, ref.segTestPos[rg.id])
				}
				if shape, _ := stateful.Shape(pc.segCmd(id)); shape != rg.key {
					t.Fatalf("%s segment %d: its command renders to %q, its key is %q", where, j, shape, rg.key)
				}
			}
			if s.lastUpdate >= 0 {
				walkPos := pc.testPos[pc.segs[s.seg].lo:pc.segs[s.seg+s.lastUpdate].hi]
				if s.walkID != rs.walkID || !slices.Equal(walkPos, rs.walkPos) {
					t.Fatalf("%s: walk %d at %v, the reference's %d at %v", where, s.walkID, walkPos, rs.walkID, rs.walkPos)
				}
			}
		}
		for at, on := range pc.atomStrands {
			if got := slices.Compact(slices.Clone(on)); !slices.Equal(got, ref.atomStrands[at]) {
				t.Fatalf("%s: guard %d is tested by strands %v, the reference's %v", p.name, at, got, ref.atomStrands[at])
			}
		}
	}
	built -= len(named)
	t.Logf("%d random programs built alike, %d failed alike", built, failed)
	if built < 1000 || failed == 0 {
		t.Fatalf("%d random programs built and %d failed: want at least 1 000 built and some failing", built, failed)
	}
}

// strandProduct is (l_1 + … + l_a); (l_1 + … + l_b) over plain links: a·b
// strands of two links each.
func strandProduct(a, b int) stateful.Cmd {
	alts := func(n int) stateful.Cmd {
		var cs []stateful.Cmd
		for i := 0; i < n; i++ {
			cs = append(cs, stateful.CLink{Src: netkat.Location{Switch: 1, Port: i}, Dst: netkat.Location{Switch: 2, Port: i}})
		}
		return stateful.UnionC(cs...)
	}
	return stateful.CSeq{L: alts(a), R: alts(b)}
}

// TestSkeletonAtStrandBound: a program of exactly maxStrands strands
// builds its skeleton.
func TestSkeletonAtStrandBound(t *testing.T) {
	pc, err := NewProgramCompiler(strandProduct(100, maxStrands/100), topo.Firewall(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pc.strands) != maxStrands {
		t.Fatalf("%d strands, want %d", len(pc.strands), maxStrands)
	}
}

// TestSkeletonPastStrandBound: one alternative more is errStrandLimit
// from Acquire, not a panic, and the cache builds the next program as a
// cache of its own would.
func TestSkeletonPastStrandBound(t *testing.T) {
	over := stateful.CUnion{L: strandProduct(100, maxStrands/100), R: stateful.CLink{Src: netkat.Location{Switch: 3, Port: 1}, Dst: netkat.Location{Switch: 4, Port: 1}}}
	c := NewProgramCache()
	if _, err := c.Acquire(over, topo.Firewall()); !errors.Is(err, errStrandLimit) {
		t.Fatalf("%d+1 strands: got %v, want %v", maxStrands, err, errStrandLimit)
	}
	a := apps.BandwidthCap(10)
	states, _, err := a.Prog.ReachableStates()
	if err != nil {
		t.Fatal(err)
	}
	pc, err := c.Acquire(a.Prog.Cmd, a.Topo)
	if err != nil {
		t.Fatalf("the next build: %v", err)
	}
	got, err := pc.CompileAll(states, 1)
	c.Release()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewProgramCompiler(a.Prog.Cmd, a.Topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.CompileAll(states, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range states {
		if got[i].String() != want[i].String() {
			t.Fatalf("state %v after the refused build:\n%s\nalone:\n%s", states[i], got[i], want[i])
		}
	}
}

// TestAcquireSkeletonAllocsPerStrand pins what the skeleton of a revision
// allocates, per strand: Acquire of cap-2001 on a cache that has just
// built cap-2000 makes at most 2.5 objects and 200 bytes a strand (a
// rendering and a test list per atom, and the per-position index),
// building in the arrays of the build before. A cmdNode per command
// node, a continuation closure per sequence, a key string, a CSeq and
// slices per strand and segment came to 18 objects and 1 750 bytes.
func TestAcquireSkeletonAllocsPerStrand(t *testing.T) {
	c := NewProgramCache()
	warm, rev := apps.BandwidthCap(2000), apps.BandwidthCap(2001)
	if _, err := c.Acquire(warm.Prog.Cmd, warm.Topo); err != nil {
		t.Fatal(err)
	}
	c.Release()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pc, err := c.Acquire(rev.Prog.Cmd, rev.Topo)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	c.Release()
	n := float64(len(pc.strands))
	objects, bytes := float64(m1.Mallocs-m0.Mallocs)/n, float64(m1.TotalAlloc-m0.TotalAlloc)/n
	t.Logf("Acquire of cap-2001 after cap-2000: %.0f strands, %.2f objects and %.0f bytes a strand", n, objects, bytes)
	if objects > 2.5 || bytes > 200 {
		t.Fatalf("Acquire of cap-2001 after cap-2000 allocates %.2f objects and %.0f bytes a strand, want <= 2.5 and <= 200", objects, bytes)
	}
}
