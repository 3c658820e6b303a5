package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/netkat"
)

// popKey is what one step runs: its key and what kind of action it is.
type popKey struct {
	at   float64
	seq  int64
	kind actionKind
}

// queued lists every action on the queue: the callbacks on the heap and
// every hop on every lane, not only the lanes' heads.
func queued(s *Sim) []popKey {
	var out []popKey
	for _, ev := range s.queue {
		if ev.slot >= 0 {
			out = append(out, popKey{ev.at, ev.seq, actFn})
		}
	}
	for _, l := range s.lanes {
		for i := 0; i < l.n; i++ {
			h := l.ring[(l.head+i)&(len(l.ring)-1)]
			out = append(out, popKey{h.at, h.seq, l.kind})
		}
	}
	return out
}

// upNext is the action the next step runs, read from the lane it sits on
// rather than from the heap's key for it.
func upNext(s *Sim) popKey {
	ev := s.queue[0]
	if ev.slot >= 0 {
		return popKey{ev.at, ev.seq, actFn}
	}
	l := s.lanes[-1-ev.slot]
	return popKey{l.ring[l.head].at, l.ring[l.head].seq, l.kind}
}

// stepAgainstOneHeap runs s to the horizon a step at a time against the
// scheduler the lanes replaced: every action goes onto one heap
// (container/heap over (at, seq), the kind in the slot) as soon as it is
// queued, and each step must run that heap's earliest. It returns the
// sequence the steps ran.
func stepAgainstOneHeap(t *testing.T, s *Sim, horizon float64) []popKey {
	t.Helper()
	var ref refHeap
	seen := map[int64]bool{}
	var ran []popKey
	catchUp := func() {
		for _, k := range queued(s) {
			if !seen[k.seq] {
				seen[k.seq] = true
				heap.Push(&ref, event{at: k.at, seq: k.seq, slot: int32(k.kind)})
			}
		}
	}
	for catchUp(); len(s.queue) > 0 && s.queue[0].at <= horizon; catchUp() {
		w := heap.Pop(&ref).(event)
		want := popKey{w.at, w.seq, actionKind(w.slot)}
		got := upNext(s)
		s.step()
		if got != want || s.now != want.at {
			t.Fatalf("step %d ran %+v at %v, the single heap runs %+v", len(ran), got, s.now, want)
		}
		ran = append(ran, got)
	}
	if left := len(queued(s)); left != ref.Len() || left > 0 && ref[0].at <= horizon {
		t.Fatalf("%d actions left queued, the single heap holds %d", left, ref.Len())
	}
	return ran
}

// randomSim sets up a random run: echo responders, pings, bulk transfers
// and receive handlers that schedule At callbacks (some of which send) on
// a random app. Link, serialization and processing times are powers of
// two, so sums of them meet exactly and actions on different lanes and
// callbacks share timestamps; tiny backlogs force drops.
func randomSim(r *rand.Rand, a apps.App, plane Plane, assist, tiny bool) (*Sim, *int) {
	pick := func(vs ...float64) float64 { return vs[r.Intn(len(vs))] }
	p := DefaultParams()
	p.LinkLatency = 1.0 / 1024
	p.LinkBandwidth = float64(p.PayloadBytes+plane.HeaderOverhead()) * 4096
	p.SwitchProcTime = pick(0, 1.0/8192, 1.0/2048)
	p.CtrlLatency = pick(1.0/1024, 5e-3)
	p.InstallDelay = pick(0, 1.0/256, 0.05)
	p.InstallJitter = pick(0, 2e-3)
	p.CtrlAssist = assist
	if tiny {
		p.MaxLinkBacklog = pick(0, 1.0/8192)
		p.MaxSwBacklog = pick(0, 1.0/8192)
	}
	s := New(a.Topo, plane, p, r.Int63())
	hosts := a.Topo.Hosts
	host := func() string { return hosts[r.Intn(len(hosts))].Name }
	for _, h := range hosts {
		if r.Intn(2) == 0 {
			EnableEcho(s, h.Name)
		}
	}
	for i := r.Intn(3); i >= 0; i-- {
		StartPings(s, host(), host(), float64(r.Intn(16))/64, pick(1.0/512, 1.0/64), 1+r.Intn(20), 1000*(i+1))
	}
	for i := r.Intn(3); i > 0; i-- {
		StartBulk(s, host(), host(), float64(r.Intn(8))/64, 1.0/16, pick(1024, 4096, 8192), 10000*i)
	}
	fired := new(int)
	for i := r.Intn(3); i >= 0; i-- {
		from, to := host(), host()
		dst, _ := a.Topo.HostByName(to)
		delay := pick(0, p.LinkLatency, 1.0/4096)
		s.OnReceive(from, func(s *Sim, _ netkat.Packet, at float64) {
			s.At(at+delay, func() {
				if *fired++; *fired%4 == 0 {
					s.Send(from, netkat.Packet{FieldDst: dst.ID, FieldID: 90000 + *fired})
				}
			})
		})
	}
	return s, fired
}

// TestLanePopOrder: on randomized runs of both planes, with controller
// assistance on and off and with backlogs small enough to drop, the lanes
// run exactly the (at, seq, kind) sequence the single heap they replaced
// runs. The runs must include drops, At callbacks scheduled from receive
// handlers, and steps that share a timestamp with the step before but are
// of another kind.
func TestLanePopOrder(t *testing.T) {
	nets := []apps.App{apps.Firewall(), apps.LearningSwitch(), apps.Ring(3)}
	r := rand.New(rand.NewSource(38))
	var steps, drops, fired, ties int
	for _, a := range nets {
		n := buildNES(t, a)
		for _, kind := range []PlaneKind{PlaneKindTagged, PlaneKindUncoord} {
			for _, assist := range []bool{false, true} {
				for _, tiny := range []bool{false, true} {
					for rep := 0; rep < 2; rep++ {
						s, f := randomSim(r, a, NewPlane(kind, n), assist, tiny)
						ran := stepAgainstOneHeap(t, s, 0.4)
						for i := 1; i < len(ran); i++ {
							if ran[i].at == ran[i-1].at && ran[i].kind != ran[i-1].kind {
								ties++
							}
						}
						steps, drops, fired = steps+len(ran), drops+s.Dropped, fired+*f
					}
				}
			}
		}
	}
	t.Logf("%d steps, %d drops, %d handler callbacks, %d equal-time steps of another kind", steps, drops, fired, ties)
	if drops == 0 || fired == 0 || ties == 0 {
		t.Fatalf("the runs miss a case: %d drops, %d handler callbacks, %d equal-time steps of another kind", drops, fired, ties)
	}
}

// TestLaneKeysNeverDecrease: lowering Params.LinkLatency while a link has
// a hop queued would put the next hop ahead of its lane's tail. The push
// panics and names the cause instead of reordering the lane.
func TestLaneKeysNeverDecrease(t *testing.T) {
	a := apps.Firewall()
	s := New(a.Topo, NewPlane(PlaneKindUncoord, buildNES(t, a)), DefaultParams(), 1)
	pkt := netkat.Packet{FieldDst: apps.H(4), FieldSrc: apps.H(1)}
	s.Send("H1", pkt)
	s.Params.LinkLatency /= 10
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "LinkLatency") {
			t.Fatalf("recovered %v, want a panic naming LinkLatency", r)
		}
	}()
	s.Send("H1", pkt)
	t.Fatal("a hop ahead of its lane's tail was queued")
}
