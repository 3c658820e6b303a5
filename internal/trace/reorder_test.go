package trace_test

import (
	"fmt"
	"math/rand"
	"testing"

	"eventnet/internal/trace"
)

// reorder returns nt with its points in a random linear extension of
// Definition 1's generators: each point after its tree parent and after
// the previous point at its node. Point i of nt is point pi[i] of the
// result. The node order is read from the points here, not from the
// package, so the re-order does not share the code it checks.
func reorder(nt *trace.NetTrace, r *rand.Rand) (out *trace.NetTrace, pi []int) {
	n := len(nt.Packets)
	waits := make([]int, n)  // point -> its generators not yet placed
	next := make([][]int, n) // point -> the points it generates
	last := map[int]int{}    // node -> its latest point so far
	for i, d := range nt.Packets {
		gens := []int{nt.Parent[i]}
		if j, ok := last[d.Loc.Switch]; ok {
			gens = append(gens, j)
		}
		last[d.Loc.Switch] = i
		for _, g := range gens {
			if g >= 0 {
				waits[i]++
				next[g] = append(next[g], i)
			}
		}
	}
	var ready []int
	for i, w := range waits {
		if w == 0 {
			ready = append(ready, i)
		}
	}
	pi = make([]int, n)
	order := make([]int, 0, n)
	for len(ready) > 0 {
		k := r.Intn(len(ready))
		i := ready[k]
		ready[k] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		pi[i] = len(order)
		order = append(order, i)
		for _, j := range next[i] {
			if waits[j]--; waits[j] == 0 {
				ready = append(ready, j)
			}
		}
	}
	out = &trace.NetTrace{}
	for _, i := range order {
		p := nt.Parent[i]
		if p >= 0 {
			p = pi[p]
		}
		out.Append(nt.Packets[i], p)
	}
	return out, pi
}

// TestReorderKeepsHappensBefore: a network trace's happens-before and
// packet traces depend on its generators alone, not on how the points
// interleave. Every linear extension of the generators relates the same
// points by ≺ and has the same packet traces, on machine traces of every
// oracle case, with and without controller assistance.
func TestReorderKeepsHappensBefore(t *testing.T) {
	const orders = 20
	r := rand.New(rand.NewSource(1))
	moved := 0
	for _, c := range oracleCases() {
		n := buildNES(t, c.app)
		hosts := c.app.Topo.HostLocs()
		for _, assist := range []bool{false, true} {
			nt := machineTrace(t, c, n, 1, assist)
			hb := trace.HappensBefore(nt)
			paths := map[string]bool{}
			for _, tr := range nt.Trees() {
				paths[fmt.Sprint(tr)] = true
			}
			for o := 0; o < orders; o++ {
				re, pi := reorder(nt, r)
				if err := re.Validate(hosts); err != nil {
					t.Fatalf("%s: re-ordered trace is malformed: %v", c.app.Name, err)
				}
				for i, p := range pi {
					if i != p {
						moved++
						break
					}
				}
				hr := trace.HappensBefore(re)
				for i := range nt.Packets {
					for j := range nt.Packets {
						if hb.Before(i, j) != hr.Before(pi[i], pi[j]) {
							t.Fatalf("%s, assist %v: %d ≺ %d is %v, re-ordered %d ≺ %d is %v",
								c.app.Name, assist, i, j, hb.Before(i, j), pi[i], pi[j], hr.Before(pi[i], pi[j]))
						}
					}
				}
				trees := re.Trees()
				if len(trees) != len(paths) {
					t.Fatalf("%s, assist %v: %d packet traces, re-ordered %d", c.app.Name, assist, len(paths), len(trees))
				}
				back := make([]int, len(pi)) // re-ordered point -> original point
				for i, p := range pi {
					back[p] = i
				}
				for _, tr := range trees {
					orig := make([]int, len(tr))
					for k, p := range tr {
						orig[k] = back[p]
					}
					if !paths[fmt.Sprint(orig)] {
						t.Fatalf("%s, assist %v: re-ordered packet trace %v is %v, not a packet trace of the original", c.app.Name, assist, tr, orig)
					}
				}
			}
		}
	}
	if moved == 0 {
		t.Fatal("no re-order moved a point: the test is vacuous")
	}
	t.Logf("%d of %d re-orders moved some point", moved, 2*orders*len(oracleCases()))
}
