package apps

import (
	"fmt"
	"testing"

	"eventnet/internal/dataplane"
	"eventnet/internal/ets"
	"eventnet/internal/netkat"
)

func failoverCases(cycles int) []Failover {
	return []Failover{
		FailoverDiamond(cycles),
		FailoverWAN(cycles),
		FailoverFatTree(4, cycles),
	}
}

// TestFailoverPrograms: the failover state chain has 2*cycles+1 states,
// and the extracted events are exactly the alternating fail/recover
// notifications about the advertised link.
func TestFailoverPrograms(t *testing.T) {
	const cycles = 2
	for _, f := range failoverCases(cycles) {
		if err := f.Topo.Validate(); err != nil {
			t.Fatalf("%s: topology: %v", f.Name, err)
		}
		states, _, err := f.Prog.ReachableStates()
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if want := 2*cycles + 1; len(states) != want {
			t.Fatalf("%s: %d states, want %d", f.Name, len(states), want)
		}
		et, err := ets.Build(f.Prog, f.Topo)
		if err != nil {
			t.Fatalf("%s: ets: %v", f.Name, err)
		}
		n, err := et.ToNES()
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		fails, recovers := 0, 0
		link := netkat.LinkID(f.Failed.Src, f.Failed.Dst)
		for _, ev := range n.Events {
			down, isFail := ev.Guard.Eq(netkat.FieldLinkDown)
			up, isRecover := ev.Guard.Eq(netkat.FieldLinkUp)
			switch {
			case isFail && down == link:
				fails++
			case isRecover && up == link:
				recovers++
			case isFail || isRecover:
				t.Fatalf("%s: event %d is about link %d/%d, want %d (%v)", f.Name, ev.ID, down, up, link, f.Failed)
			}
		}
		if fails != cycles || recovers != cycles {
			t.Fatalf("%s: %d fail / %d recover events, want %d each", f.Name, fails, recovers, cycles)
		}
	}
}

// TestFailoverNoTrafficOnFailedLink is the static half of the failover
// safety property: in every odd (failed) state, no compiled rule on
// either endpoint of the failed link emits onto it, in either direction —
// while the even states' configurations do use the link (so the check is
// not vacuous).
func TestFailoverNoTrafficOnFailedLink(t *testing.T) {
	for _, f := range failoverCases(2) {
		et, err := ets.Build(f.Prog, f.Topo)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		emitsOn := func(v ets.Vertex, sw, pt int) bool {
			tab := v.Tables[sw]
			if tab == nil {
				return false
			}
			for _, r := range tab.Rules {
				for _, g := range r.Groups {
					if g.OutPort == pt {
						return true
					}
				}
			}
			return false
		}
		evenUses := false
		for _, v := range et.Vertices {
			fwd := emitsOn(v, f.Failed.Src.Switch, f.Failed.Src.Port)
			rev := emitsOn(v, f.Failed.Dst.Switch, f.Failed.Dst.Port)
			if v.State.Get(0)%2 == 1 {
				if fwd || rev {
					t.Fatalf("%s: state %v emits onto failed link %v (fwd=%v rev=%v)",
						f.Name, v.State, f.Failed, fwd, rev)
				}
			} else if fwd && rev {
				evenUses = true
			}
		}
		if !evenUses {
			t.Fatalf("%s: no even state uses the primary link — vacuous property", f.Name)
		}
	}
}

// driveFailover runs a disciplined fail/recover schedule against a fresh
// engine: data both ways, a failure notification, data (whose reverse
// direction gossips the new state back to the ingress switches), a
// recovery notification, data again — per cycle. Every injection ends in
// exactly one delivery. Returns the deliveries and the injection count.
func driveFailover(t *testing.T, f Failover, et *ets.ETS, opts dataplane.Options) ([]dataplane.Delivery, int) {
	t.Helper()
	n, err := et.ToNES()
	if err != nil {
		t.Fatal(err)
	}
	e := dataplane.NewEngine(n, f.Topo, opts)
	srcH, _ := f.Topo.HostByName(f.Src)
	dstH, ok := f.Topo.HostByName(f.Dst)
	if !ok {
		t.Fatalf("%s: no host %s", f.Name, f.Dst)
	}
	injected, id := 0, 0
	data := func(rounds int) {
		for r := 0; r < rounds; r++ {
			for _, p := range []struct {
				host string
				dst  int
			}{{f.Src, dstH.ID}, {f.Dst, srcH.ID}} {
				id++
				if err := e.Inject(p.host, netkat.Packet{FieldDst: p.dst, "id": id}); err != nil {
					t.Fatal(err)
				}
				injected++
			}
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	notify := func(pkt netkat.Packet) {
		if err := e.Inject(f.Monitor, pkt.Clone()); err != nil {
			t.Fatal(err)
		}
		injected++
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < f.Cycles; c++ {
		data(2)
		notify(f.FailPkt)
		data(2) // reverse data gossips the failure back to the ingress side
		data(2) // forwarded in the failed state
		notify(f.RecoverPkt)
		data(2) // gossip the recovery
		data(2)
	}
	data(1)
	return e.Deliveries(), injected
}

func fingerprints(ds []dataplane.Delivery) []string {
	fps := make([]string, len(ds))
	for i, d := range ds {
		fps[i] = fmt.Sprintf("%s|%s|%d.%d", d.Host, d.Fields.Key(), d.Stamp.Epoch, d.Stamp.Version)
	}
	return fps
}

// TestFailoverDeliveryDeterminism is the dynamic half of the failover
// property (and the determinism obligation the chaos harness relies on):
// the exact delivery sequence — hosts, header fields, stamps — is
// bit-identical at 1, 2 and 4 workers, nothing is dropped, and the run demonstrably forwards traffic in failed states.
func TestFailoverDeliveryDeterminism(t *testing.T) {
	cases := []Failover{FailoverDiamond(2), FailoverWAN(2)}
	if !testing.Short() {
		cases = append(cases, FailoverFatTree(4, 1))
	}
	for _, f := range cases {
		et, err := ets.Build(f.Prog, f.Topo)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		var ref []string
		for _, workers := range []int{1, 2, 4} {
			ds, injected := driveFailover(t, f, et, dataplane.Options{Workers: workers})
			if len(ds) != injected {
				t.Fatalf("%s w=%d: %d deliveries for %d injections",
					f.Name, workers, len(ds), injected)
			}
			fps := fingerprints(ds)
			if ref == nil {
				ref = fps
				// The reference run must deliver data in an odd
				// (failed) state, or the schedule never exercised
				// the backup path.
				odd := 0
				for _, d := range ds {
					if et.Vertices[d.Stamp.Version].State.Get(0)%2 == 1 {
						odd++
					}
				}
				if odd == 0 {
					t.Fatalf("%s: no delivery in a failed state", f.Name)
				}
				continue
			}
			if len(fps) != len(ref) {
				t.Fatalf("%s w=%d: %d deliveries, want %d", f.Name, workers, len(fps), len(ref))
			}
			for i := range fps {
				if fps[i] != ref[i] {
					t.Fatalf("%s w=%d: delivery %d = %q, want %q",
						f.Name, workers, i, fps[i], ref[i])
				}
			}
		}
	}
}
