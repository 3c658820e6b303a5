package runtime

import (
	"fmt"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/dataplane"
	"eventnet/internal/trace"
)

// recorder passes the draws of a machine's chooser through and keeps
// them. It also counts the CTRLRECV draws among two or more events: the
// draw after a Step draw that picked CTRLRECV.
type recorder struct {
	m           *Machine
	c           chooser
	bound, made []int
	inRecv      bool
	recvs       int
}

func (r *recorder) Intn(n int) int {
	v := r.c.Intn(n)
	if r.inRecv {
		r.inRecv = false
		if n > 1 {
			r.recvs++
		}
	} else {
		r.inRecv = r.m.pick(v).kind == ruleCtrlRecv
	}
	r.bound, r.made = append(r.bound, n), append(r.made, v)
	return v
}

// replayer makes recorded choices again, failing the test on a draw the
// recording did not make or with another bound.
type replayer struct {
	t           *testing.T
	bound, made []int
}

func (r *replayer) Intn(n int) int {
	r.t.Helper()
	if len(r.made) == 0 {
		r.t.Fatalf("replay: draw of Intn(%d) past the end of the recording", n)
	}
	if r.bound[0] != n {
		r.t.Fatalf("replay: Intn(%d), the recording drew Intn(%d)", n, r.bound[0])
	}
	v := r.made[0]
	r.bound, r.made = r.bound[1:], r.made[1:]
	return v
}

// scheduledRun injects 24 LoadGen packets with one step after each and
// runs the machine to quiescence.
func scheduledRun(t *testing.T, m *Machine, ins []dataplane.Injection) *trace.NetTrace {
	t.Helper()
	for _, in := range ins {
		if err := m.Inject(in.Host, in.Fields); err != nil {
			t.Fatal(err)
		}
		m.Step()
	}
	if err := m.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
	return m.NetTrace()
}

// sameTrace reports the first difference between two network traces.
func sameTrace(a, b *trace.NetTrace) error {
	if len(a.Packets) != len(b.Packets) {
		return fmt.Errorf("%d points vs %d", len(a.Packets), len(b.Packets))
	}
	for i, p := range a.Packets {
		q := b.Packets[i]
		if p.Loc != q.Loc || p.Out != q.Out || p.Pkt.Key() != q.Pkt.Key() {
			return fmt.Errorf("point %d: %v vs %v", i, p, q)
		}
		if a.Parent[i] != b.Parent[i] {
			return fmt.Errorf("point %d: parent %d vs %d", i, a.Parent[i], b.Parent[i])
		}
	}
	return nil
}

// TestReplayedChoicesReproduceTrace: both of the scheduler's draws go
// through its chooser. A recorder around the default stream leaves the
// run as it was, and replaying the recorded choices on a machine seeded
// differently reproduces the trace point for point, with and without
// controller assistance (the assisted runs draw CTRLRECV's event too).
func TestReplayedChoicesReproduceTrace(t *testing.T) {
	recvs := 0
	for _, a := range append(apps.All(), apps.Ring(4)) {
		n := buildNES(t, a)
		for seed := int64(0); seed < 10; seed++ {
			for _, assist := range []bool{false, true} {
				ins := dataplane.NewLoadGen(n, a.Topo, seed).Injections(24)
				plain := scheduledRun(t, New(n, a.Topo, seed, assist), ins)

				m := New(n, a.Topo, seed, assist)
				rec := &recorder{m: m, c: m.rng}
				m.UseChooser(rec)
				if err := sameTrace(scheduledRun(t, m, ins), plain); err != nil {
					t.Fatalf("%s seed %d assist %v: recording changed the run: %v", a.Name, seed, assist, err)
				}

				r := New(n, a.Topo, seed+1000, assist)
				rep := &replayer{t: t, bound: rec.bound, made: rec.made}
				r.UseChooser(rep)
				if err := sameTrace(scheduledRun(t, r, ins), plain); err != nil {
					t.Fatalf("%s seed %d assist %v: replay diverged: %v", a.Name, seed, assist, err)
				}
				if len(rep.made) != 0 {
					t.Fatalf("%s seed %d assist %v: replay left %d choices unmade", a.Name, seed, assist, len(rep.made))
				}
				if len(r.Deliveries) != len(m.Deliveries) {
					t.Fatalf("%s seed %d assist %v: %d deliveries replayed, %d recorded", a.Name, seed, assist, len(r.Deliveries), len(m.Deliveries))
				}
				recvs += rec.recvs
			}
		}
	}
	t.Logf("%d CTRLRECV draws among two or more events", recvs)
	if recvs == 0 {
		t.Error("no CTRLRECV draw chose among two or more events; the replay did not cover that draw")
	}
}
