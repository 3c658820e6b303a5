// Package apps contains the event-driven network applications evaluated in
// the paper (Section 5, Figures 8-9): the stateful firewall, learning
// switch, authentication, bandwidth cap, and intrusion detection system,
// plus the synthetic ring of Section 5.2. Each application bundles the
// topology of Figure 8 with the Stateful NetKAT program of Figure 9,
// transliterated into this repository's AST.
//
// Host addresses use the convention Hn = 100+n in the "dst" field (the
// paper's ip_dst).
package apps

import (
	"fmt"

	"eventnet/internal/netkat"
	"eventnet/internal/stateful"
	"eventnet/internal/topo"
)

// Field names used by the applications.
const (
	FieldDst = "dst" // the paper's ip_dst
	FieldSig = "sig" // ring reconfiguration signal
)

// H returns the address of host Hn (the value carried in dst).
func H(n int) int { return topo.HostID(n) }

// App bundles a Stateful NetKAT program with its topology.
type App struct {
	Name string
	Topo *topo.Topology
	Prog stateful.Program
}

func loc(sw, pt int) netkat.Location { return netkat.Location{Switch: sw, Port: pt} }

func ptEq(v int) stateful.Pred  { return stateful.PTest{Field: netkat.FieldPt, Value: v} }
func dstEq(v int) stateful.Pred { return stateful.PTest{Field: FieldDst, Value: v} }
func stEq(v int) stateful.Pred  { return stateful.PState{Index: 0, Value: v} }
func stNeq(v int) stateful.Pred { return stateful.PNot{P: stateful.PState{Index: 0, Value: v}} }
func ptTo(v int) stateful.Cmd   { return stateful.CAssign{Field: netkat.FieldPt, Value: v} }
func test(p stateful.Pred) stateful.Cmd {
	return stateful.CPred{P: p}
}
func and(ps ...stateful.Pred) stateful.Pred {
	out := ps[0]
	for _, p := range ps[1:] {
		out = stateful.PAnd{L: out, R: p}
	}
	return out
}
func link(a, b netkat.Location) stateful.Cmd { return stateful.CLink{Src: a, Dst: b} }
func linkSt(a, b netkat.Location, v int) stateful.Cmd {
	return stateful.CLinkState{Src: a, Dst: b, Sets: []stateful.StateSet{{Index: 0, Value: v}}}
}

// Firewall is the stateful firewall of Figure 9(a): outgoing H1->H4
// traffic is always allowed; incoming H4->H1 traffic is allowed only after
// an outgoing packet has reached s4.
//
//	pt=2 & dst=H4; pt<-1; (state=[0]; (1:1)=>(4:1)<state<-[1]>
//	                       + state!=[0]; (1:1)=>(4:1)); pt<-2
//	+ pt=2 & dst=H1; state=[1]; pt<-1; (4:1)=>(1:1); pt<-2
func Firewall() App {
	out := stateful.SeqC(
		test(and(ptEq(2), dstEq(H(4)))),
		ptTo(1),
		stateful.UnionC(
			stateful.SeqC(test(stEq(0)), linkSt(loc(1, 1), loc(4, 1), 1)),
			stateful.SeqC(test(stNeq(0)), link(loc(1, 1), loc(4, 1))),
		),
		ptTo(2),
	)
	in := stateful.SeqC(
		test(and(ptEq(2), dstEq(H(1)))),
		test(stEq(1)),
		ptTo(1),
		link(loc(4, 1), loc(1, 1)),
		ptTo(2),
	)
	return App{
		Name: "firewall",
		Topo: topo.Firewall(),
		Prog: stateful.Program{Cmd: stateful.UnionC(out, in), Init: stateful.State{0}},
	}
}

// LearningSwitch is Figure 9(b): traffic from H4 to H1 is flooded (to both
// H1 and H2) until H4's traffic is answered, at which point s4 has
// "learned" H1's location and forwards point-to-point.
//
//	pt=2 & dst=H1; (pt<-1; (4:1)=>(1:1) + state=[0]; pt<-3; (4:3)=>(2:1)); pt<-2
//	+ pt=2 & dst=H4; pt<-1; (1:1)=>(4:1)<state<-[1]>; pt<-2
//	+ pt=2; pt<-1; (2:1)=>(4:3); pt<-2
func LearningSwitch() App {
	flood := stateful.SeqC(
		test(and(ptEq(2), dstEq(H(1)))),
		stateful.UnionC(
			stateful.SeqC(ptTo(1), link(loc(4, 1), loc(1, 1))),
			stateful.SeqC(test(stEq(0)), ptTo(3), link(loc(4, 3), loc(2, 1))),
		),
		ptTo(2),
	)
	learn := stateful.SeqC(
		test(and(ptEq(2), dstEq(H(4)))),
		ptTo(1),
		linkSt(loc(1, 1), loc(4, 1), 1),
		ptTo(2),
	)
	fromH2 := stateful.SeqC(
		test(ptEq(2)),
		ptTo(1),
		link(loc(2, 1), loc(4, 3)),
		ptTo(2),
	)
	return App{
		Name: "learning-switch",
		Topo: topo.LearningSwitch(),
		Prog: stateful.Program{Cmd: stateful.UnionC(flood, learn, fromH2), Init: stateful.State{0}},
	}
}

// Authentication is Figure 9(c): untrusted H4 must contact H1 and then H2
// (in that order) before it may reach H3.
//
//	state=[0] & pt=2 & dst=H1; pt<-1; (4:1)=>(1:1)<state<-[1]>; pt<-2
//	+ state=[1] & pt=2 & dst=H2; pt<-3; (4:3)=>(2:1)<state<-[2]>; pt<-2
//	+ state=[2] & pt=2 & dst=H3; pt<-4; (4:4)=>(3:1); pt<-2
//	+ pt=2; pt<-1; ((1:1)=>(4:1) + (2:1)=>(4:3) + (3:1)=>(4:4)); pt<-2
func Authentication() App {
	b1 := stateful.SeqC(
		test(and(stEq(0), ptEq(2), dstEq(H(1)))),
		ptTo(1),
		linkSt(loc(4, 1), loc(1, 1), 1),
		ptTo(2),
	)
	b2 := stateful.SeqC(
		test(and(stEq(1), ptEq(2), dstEq(H(2)))),
		ptTo(3),
		linkSt(loc(4, 3), loc(2, 1), 2),
		ptTo(2),
	)
	b3 := stateful.SeqC(
		test(and(stEq(2), ptEq(2), dstEq(H(3)))),
		ptTo(4),
		link(loc(4, 4), loc(3, 1)),
		ptTo(2),
	)
	back := stateful.SeqC(
		test(ptEq(2)),
		ptTo(1),
		stateful.UnionC(
			link(loc(1, 1), loc(4, 1)),
			link(loc(2, 1), loc(4, 3)),
			link(loc(3, 1), loc(4, 4)),
		),
		ptTo(2),
	)
	return App{
		Name: "authentication",
		Topo: topo.Star(),
		Prog: stateful.Program{Cmd: stateful.UnionC(b1, b2, b3, back), Init: stateful.State{0}},
	}
}

// BandwidthCap is Figure 9(d) with cap n: outgoing H1->H4 traffic is
// always allowed and counted at s4; once n+1 outgoing packets have
// arrived, the incoming H4->H1 path is disabled (so exactly n
// request/reply exchanges succeed).
//
//	pt=2 & dst=H4; pt<-1; ( state=[0]; (1:1)=>(4:1)<state<-[1]>
//	                      + ... + state=[n]; (1:1)=>(4:1)<state<-[n+1]>
//	                      + state=[n+1]; (1:1)=>(4:1) ); pt<-2
//	+ pt=2 & dst=H1; state!=[n+1]; pt<-1; (4:1)=>(1:1); pt<-2
func BandwidthCap(n int) App {
	var counters []stateful.Cmd
	for i := 0; i <= n; i++ {
		counters = append(counters, stateful.SeqC(test(stEq(i)), linkSt(loc(1, 1), loc(4, 1), i+1)))
	}
	counters = append(counters, stateful.SeqC(test(stEq(n+1)), link(loc(1, 1), loc(4, 1))))
	out := stateful.SeqC(
		test(and(ptEq(2), dstEq(H(4)))),
		ptTo(1),
		stateful.UnionC(counters...),
		ptTo(2),
	)
	in := stateful.SeqC(
		test(and(ptEq(2), dstEq(H(1)))),
		test(stNeq(n+1)),
		ptTo(1),
		link(loc(4, 1), loc(1, 1)),
		ptTo(2),
	)
	return App{
		Name: fmt.Sprintf("bandwidth-cap-%d", n),
		Topo: topo.Firewall(),
		Prog: stateful.Program{Cmd: stateful.UnionC(out, in), Init: stateful.State{0}},
	}
}

// IDS is Figure 9(e): all traffic is initially allowed, but if H4 scans
// H1 and then H2 (in that order), access to H3 is cut off.
//
//	pt=2 & dst=H1; pt<-1; (state=[0]; (4:1)=>(1:1)<state<-[1]>
//	                      + state!=[0]; (4:1)=>(1:1)); pt<-2
//	+ pt=2 & dst=H2; pt<-3; (state=[1]; (4:3)=>(2:1)<state<-[2]>
//	                        + state!=[1]; (4:3)=>(2:1)); pt<-2
//	+ pt=2 & dst=H3; pt<-4; state!=[2]; (4:4)=>(3:1); pt<-2
//	+ pt=2; pt<-1; ((1:1)=>(4:1) + (2:1)=>(4:3) + (3:1)=>(4:4)); pt<-2
func IDS() App {
	b1 := stateful.SeqC(
		test(and(ptEq(2), dstEq(H(1)))),
		ptTo(1),
		stateful.UnionC(
			stateful.SeqC(test(stEq(0)), linkSt(loc(4, 1), loc(1, 1), 1)),
			stateful.SeqC(test(stNeq(0)), link(loc(4, 1), loc(1, 1))),
		),
		ptTo(2),
	)
	b2 := stateful.SeqC(
		test(and(ptEq(2), dstEq(H(2)))),
		ptTo(3),
		stateful.UnionC(
			stateful.SeqC(test(stEq(1)), linkSt(loc(4, 3), loc(2, 1), 2)),
			stateful.SeqC(test(stNeq(1)), link(loc(4, 3), loc(2, 1))),
		),
		ptTo(2),
	)
	b3 := stateful.SeqC(
		test(and(ptEq(2), dstEq(H(3)))),
		ptTo(4),
		test(stNeq(2)),
		link(loc(4, 4), loc(3, 1)),
		ptTo(2),
	)
	back := stateful.SeqC(
		test(ptEq(2)),
		ptTo(1),
		stateful.UnionC(
			link(loc(1, 1), loc(4, 1)),
			link(loc(2, 1), loc(4, 3)),
			link(loc(3, 1), loc(4, 4)),
		),
		ptTo(2),
	)
	return App{
		Name: "ids",
		Topo: topo.Star(),
		Prog: stateful.Program{Cmd: stateful.UnionC(b1, b2, b3, back), Init: stateful.State{0}},
	}
}

// Ring is the synthetic application of Section 5.2: hosts H1 and H2 sit on
// opposite sides of a ring of 2*diameter switches. Initially H1->H2
// traffic is forwarded clockwise; when switch 2 detects the arrival of a
// signal packet (sig=1), the configuration flips to counterclockwise.
// H2->H1 traffic is always forwarded clockwise (continuing around the
// ring), so that in steady state every switch sees data traffic — the
// gossip channel for event dissemination measured in Figure 16(b).
func Ring(diameter int) App {
	n := 2 * diameter
	next := func(i int) int { return i%n + 1 } // clockwise neighbor
	prev := func(i int) int { return (i+n-2)%n + 1 }

	// Clockwise H1->H2 in state 0: switches 1, 2, ..., d+1.
	var cw []stateful.Cmd
	cw = append(cw, test(and(ptEq(3), dstEq(H(2)))), test(stEq(0)))
	for i := 1; i <= diameter; i++ {
		cw = append(cw, ptTo(1), link(loc(i, 1), loc(next(i), 2)))
	}
	cw = append(cw, ptTo(3))

	// Counterclockwise H1->H2 in state 1: switches 1, 2d, ..., d+1.
	var ccw []stateful.Cmd
	ccw = append(ccw, test(and(ptEq(3), dstEq(H(2)))), test(stEq(1)))
	for i := 1; i != diameter+1; i = prev(i) {
		ccw = append(ccw, ptTo(2), link(loc(i, 2), loc(prev(i), 1)))
	}
	ccw = append(ccw, ptTo(3))

	// H2->H1 always clockwise: switches d+1, ..., 2d, 1.
	var back []stateful.Cmd
	back = append(back, test(and(ptEq(3), dstEq(H(1)))))
	for i := diameter + 1; i != 1; i = next(i) {
		back = append(back, ptTo(1), link(loc(i, 1), loc(next(i), 2)))
	}
	back = append(back, ptTo(3))

	// Signal packet: flips the state; the event is its arrival at 2:2.
	sig := stateful.SeqC(
		test(and(ptEq(3), stateful.PTest{Field: FieldSig, Value: 1})),
		test(stEq(0)),
		ptTo(1),
		linkSt(loc(1, 1), loc(2, 2), 1),
	)

	return App{
		Name: fmt.Sprintf("ring-%d", diameter),
		Topo: topo.Ring(diameter),
		Prog: stateful.Program{
			Cmd:  stateful.UnionC(stateful.SeqC(cw...), stateful.SeqC(ccw...), stateful.SeqC(back...), sig),
			Init: stateful.State{0},
		},
	}
}

// All returns the five paper applications (with the paper's n=10 cap).
func All() []App {
	return []App{Firewall(), LearningSwitch(), Authentication(), BandwidthCap(10), IDS()}
}

// Params sizes the parameterised applications; a zero or negative field
// takes its default.
type Params struct {
	Cap      int // bandwidth-cap's n (default 10)
	Diameter int // ring's diameter (default 3)
	Arity    int // fat-tree arity k of ids-fattree and failover-fattree (default 4)
	Cycles   int // fail/recover cycles of the failover apps (default 4)
}

// ByName resolves a built-in application by name.
func ByName(name string, p Params) (App, error) {
	orDefault := func(v, d int) int {
		if v > 0 {
			return v
		}
		return d
	}
	capN, diameter := orDefault(p.Cap, 10), orDefault(p.Diameter, 3)
	arity, cycles := orDefault(p.Arity, 4), orDefault(p.Cycles, 4)
	if (name == "ids-fattree" || name == "failover-fattree") && (arity < 4 || arity%2 != 0) {
		return App{}, fmt.Errorf("fat-tree arity %d is not an even number >= 4", arity)
	}
	switch name {
	case "firewall":
		return Firewall(), nil
	case "learning-switch":
		return LearningSwitch(), nil
	case "authentication":
		return Authentication(), nil
	case "bandwidth-cap":
		return BandwidthCap(capN), nil
	case "ids":
		return IDS(), nil
	case "walled-garden":
		return WalledGarden(), nil
	case "distributed-firewall":
		return DistributedFirewall(), nil
	case "ring":
		return Ring(diameter), nil
	case "ids-fattree":
		return IDSFatTree(arity), nil
	case "failover-diamond":
		return FailoverDiamond(cycles).App, nil
	case "failover-wan":
		return FailoverWAN(cycles).App, nil
	case "failover-fattree":
		return FailoverFatTree(arity, cycles).App, nil
	}
	return App{}, fmt.Errorf("unknown app %q", name)
}
