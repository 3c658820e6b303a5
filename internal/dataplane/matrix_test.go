package dataplane_test

import (
	"fmt"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/ctrl"
	"eventnet/internal/dataplane"
	"eventnet/internal/netkat"
)

// This file is the determinism matrix: the delivery sequence — hosts,
// header fields, and (epoch, version) stamps, in order — must be
// bit-identical at every worker count, whether packets arrive one at a
// time or in batches, and at any chunk budget.
// The matrix is the acceptance test for the chunked engine's sort-free
// parallel merge: any observable difference from the 1-worker reference
// is a bug, not a tolerance.

// matrixRun is one cell of the matrix.
type matrixRun struct {
	opts    dataplane.Options
	batched bool
}

func (m matrixRun) String() string {
	return fmt.Sprintf("workers=%d chunk=%d batched=%v",
		m.opts.Workers, m.opts.ChunkGens, m.batched)
}

// matrixCells enumerates the full worker × ingress grid.
func matrixCells(workerCounts []int) []matrixRun {
	var out []matrixRun
	for _, batched := range []bool{false, true} {
		for _, w := range workerCounts {
			out = append(out, matrixRun{opts: dataplane.Options{Workers: w}, batched: batched})
		}
	}
	return out
}

// runCell replays the batches on a fresh engine (Run between rounds, so
// event reactions influence later stamps) and returns the stamped
// delivery sequence. When swapTo is non-nil, the midpoint round stages a
// program swap one generation into its batch's journey, so old-epoch
// packets are in flight across the flip.
func runCell(t *testing.T, a apps.App, batches [][]dataplane.Injection, mr matrixRun, swapTo apps.App) []dataplane.Delivery {
	t.Helper()
	n := buildNES(t, a)
	e := dataplane.NewEngine(n, a.Topo, mr.opts)
	swapAt := -1
	if swapTo.Name != "" {
		swapAt = len(batches) / 2
	}
	for r, batch := range batches {
		if mr.batched {
			_, errs := e.InjectBatch(batch)
			for _, err := range errs {
				if err != nil {
					t.Fatalf("%v: %v", mr, err)
				}
			}
		} else {
			for _, in := range batch {
				if _, err := injectOne(e, in); err != nil {
					t.Fatalf("%v: %v", mr, err)
				}
			}
		}
		if r == swapAt {
			e.Step(1)
			next := buildNES(t, swapTo)
			mapping, _ := ctrl.EventMapping(n, next)
			if _, err := e.StageSwap(dataplane.SwapSpec{Plan: dataplane.PlanFor(next), MapEvent: mapping}); err != nil {
				t.Fatalf("%v: stage swap: %v", mr, err)
			}
		}
		if err := e.Run(); err != nil {
			t.Fatalf("%v: %v", mr, err)
		}
	}
	return e.Deliveries()
}

// sameStamped compares delivery sequences exactly, stamps included,
// returning the first diverging index or -1 when identical.
func sameStamped(a, b []dataplane.Delivery) int {
	if len(a) != len(b) {
		if len(a) < len(b) {
			return len(a)
		}
		return len(b)
	}
	for i := range a {
		if a[i].Host != b[i].Host || a[i].Stamp != b[i].Stamp || !a[i].Fields.Equal(b[i].Fields) {
			return i
		}
	}
	return -1
}

// failoverBatches scripts a failover workload: data traffic Src -> Dst
// every round, with fail/recover notifications interleaved so the
// program walks its state chain and the stamps change version mid-run.
func failoverBatches(t *testing.T, f apps.Failover, rounds, perRound int) [][]dataplane.Injection {
	t.Helper()
	src, ok := f.Topo.HostByName(f.Src)
	if !ok {
		t.Fatalf("%s: no host %s", f.Name, f.Src)
	}
	dst, ok := f.Topo.HostByName(f.Dst)
	if !ok {
		t.Fatalf("%s: no host %s", f.Name, f.Dst)
	}
	var out [][]dataplane.Injection
	id := 0
	for r := 0; r < rounds; r++ {
		var b []dataplane.Injection
		if r%2 == 1 {
			notif := f.FailPkt.Clone()
			if (r/2)%2 == 1 {
				notif = f.RecoverPkt.Clone()
			}
			b = append(b, dataplane.Injection{Host: f.Monitor, Fields: notif})
		}
		for i := 0; i < perRound; i++ {
			b = append(b, dataplane.Injection{Host: f.Src,
				Fields: netkat.Packet{"dst": dst.ID, "src": src.ID, "id": id}})
			id++
		}
		out = append(out, b)
	}
	return out
}

// TestEngineDeliveryMatrix: paper applications plus the failover
// families, across the full worker × ingress grid. Every cell's stamped
// delivery sequence must equal the 1-worker per-packet reference bit for
// bit.
func TestEngineDeliveryMatrix(t *testing.T) {
	workerCounts := []int{1, 2, 3, 4, 8, 16}
	type tc struct {
		app     apps.App
		batches [][]dataplane.Injection
	}
	var cases []tc
	for _, a := range []apps.App{apps.Firewall(), apps.Authentication(), apps.BandwidthCap(10), apps.BandwidthCap(200), apps.IDSFatTree(4)} {
		cases = append(cases, tc{app: a, batches: loadBatches(t, a, 3, 50)})
	}
	for _, f := range []apps.Failover{apps.FailoverDiamond(3), apps.FailoverWAN(3)} {
		cases = append(cases, tc{app: f.App, batches: failoverBatches(t, f, 6, 20)})
	}
	for _, c := range cases {
		c := c
		t.Run(c.app.Name, func(t *testing.T) {
			cells := matrixCells(workerCounts)
			ref := runCell(t, c.app, c.batches, cells[0], apps.App{})
			if len(ref) == 0 {
				t.Fatal("workload delivered nothing; the matrix is vacuous")
			}
			for _, mr := range cells[1:] {
				got := runCell(t, c.app, c.batches, mr, apps.App{})
				if i := sameStamped(ref, got); i != -1 {
					t.Fatalf("%v diverges from %v at delivery %d (%d vs %d total)",
						mr, cells[0], i, len(ref), len(got))
				}
			}
		})
	}
}

// TestEngineSwapStampMatrix: the matrix with a program swap staged
// mid-run while packets are in flight, and the chunk budget varied down
// to one generation per chunk. Epoch-1 stamps must appear (the flip is
// observable) and the full stamped sequence — which packet drained under
// the old epoch, which under the new — must be identical in every cell.
func TestEngineSwapStampMatrix(t *testing.T) {
	a := apps.Firewall()
	batches := loadBatches(t, a, 4, 40)
	var cells []matrixRun
	for _, base := range matrixCells([]int{1, 2, 4, 8}) {
		for _, cg := range []int{0, 1, 3} {
			mr := base
			mr.opts.ChunkGens = cg
			cells = append(cells, mr)
		}
	}
	ref := runCell(t, a, batches, cells[0], a)
	if len(ref) == 0 {
		t.Fatal("workload delivered nothing; the matrix is vacuous")
	}
	epochs := map[int]int{}
	for _, d := range ref {
		epochs[d.Stamp.Epoch]++
	}
	if epochs[0] == 0 || epochs[1] == 0 {
		t.Fatalf("swap not observable in stamps: per-epoch deliveries %v", epochs)
	}
	for _, mr := range cells[1:] {
		got := runCell(t, a, batches, mr, a)
		if i := sameStamped(ref, got); i != -1 {
			t.Fatalf("%v diverges from %v at delivery %d (%d vs %d total)",
				mr, cells[0], i, len(ref), len(got))
		}
	}
}
