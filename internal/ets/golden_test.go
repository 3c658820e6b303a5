package ets

import (
	"fmt"
	"hash/fnv"
	"testing"

	"eventnet/internal/apps"
)

// etsDigest hashes everything Build decides: the rendering, then each
// vertex in id order with its state and tables, then the edge list with
// its vertex and event ids.
func etsDigest(e *ETS) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, e.String())
	for _, v := range e.Vertices {
		fmt.Fprintf(h, "%d %v\n%s", v.ID, v.State, v.Tables.String())
	}
	for _, ed := range e.Edges {
		fmt.Fprintf(h, "%d %d %d\n", ed.From, ed.To, ed.Event)
	}
	return h.Sum64()
}

// TestETSGolden pins the output of the serial BFS to what the
// work-stealing pool and its canonical reassembly produced at 3805905,
// where these constants were generated: vertex numbering, edge order,
// event ids and tables. distributed-firewall is the one shipped program
// with two states on a BFS level; the unrolled toggle is the only ETS
// whose vertices are (state, round) pairs. cap-200 and cap-2000 were
// added at 61b29db, before the segment memo was keyed by shape: their
// 201 and 2001 counter branches share one segment diagram per truth
// value.
func TestETSGolden(t *testing.T) {
	want := map[string]uint64{
		"firewall":             0x5fd024fd7bb01258,
		"learning-switch":      0x15a0d5d699e47a01,
		"authentication":       0xbc24a1a551a14cd2,
		"bandwidth-cap-10":     0xceb317dd93c934b6,
		"ids":                  0xa9a9f11565e50017,
		"ring-3":               0x35699aabb43a31ea,
		"walled-garden":        0x54b7340e518e6a26,
		"distributed-firewall": 0x3467d7be73fd7937,
		"ids-fattree-4":        0x8796f92664070a42,
		"bandwidth-cap-40":     0xb456755d0527f08c,
		"failover-diamond-2":   0x81eefb5d6a7ebf46,
		"failover-wan-4":       0x110228e56b1f0be6,
		"failover-fattree-4-2": 0xd0d3b3b649804b99,
		"toggle-unrolled-3":    0x6eb5eb6353db2202,
		"bandwidth-cap-200":    0x3080618ca8994df8,
		"bandwidth-cap-2000":   0xf1bd15af9a4bdc6a,
	}
	got := map[string]uint64{}
	cases := incrementalApps()
	cases = append(cases, apps.FailoverDiamond(2).App, apps.FailoverWAN(4).App, apps.FailoverFatTree(4, 2).App,
		apps.BandwidthCap(200), apps.BandwidthCap(2000))
	for _, a := range cases {
		e, err := Build(a.Prog, a.Topo)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		got[a.Name] = etsDigest(e)
	}
	prog, tp := toggleProgram()
	e, _, _, err := Compile(prog, tp, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	got["toggle-unrolled-3"] = etsDigest(e)
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: digest %#x, want %#x", name, d, want[name])
		}
	}
	if len(got) != len(cases)+1 {
		t.Fatalf("%d digests for %d programs: two share a name", len(got), len(cases)+1)
	}
}
