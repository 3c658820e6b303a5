package apps

import (
	"fmt"

	"eventnet/internal/stateful"
	"eventnet/internal/topo"
)

// Extension applications beyond the paper's five case studies: the walled
// garden comes from the Section 5 Protocols/Security category list, and
// the distributed firewall realizes the Figure 3(a) diamond — two
// *independent* events whose order differs between executions — which the
// paper discusses but does not evaluate.

// FieldSrc is the source-address field used by the extension apps.
const FieldSrc = "src"

func srcEq(v int) stateful.Pred { return stateful.PTest{Field: FieldSrc, Value: v} }

// WalledGarden: guest H4 initially reaches only the portal H1; once it
// has contacted the portal (packet from H4 arriving at s1), the rest of
// the internal network (H2, H3) opens up.
//
//	pt=2 & dst=H1; pt<-1; (state=[0]; (4:1)=>(1:1)<state<-[1]>
//	                      + state!=[0]; (4:1)=>(1:1)); pt<-2
//	+ state=[1] & pt=2 & dst=H2; pt<-3; (4:3)=>(2:1); pt<-2
//	+ state=[1] & pt=2 & dst=H3; pt<-4; (4:4)=>(3:1); pt<-2
//	+ pt=2; pt<-1; ((1:1)=>(4:1) + (2:1)=>(4:3) + (3:1)=>(4:4)); pt<-2
func WalledGarden() App {
	portal := stateful.SeqC(
		test(and(ptEq(2), dstEq(H(1)))),
		ptTo(1),
		stateful.UnionC(
			stateful.SeqC(test(stEq(0)), linkSt(loc(4, 1), loc(1, 1), 1)),
			stateful.SeqC(test(stNeq(0)), link(loc(4, 1), loc(1, 1))),
		),
		ptTo(2),
	)
	toH2 := stateful.SeqC(
		test(and(stEq(1), ptEq(2), dstEq(H(2)))),
		ptTo(3),
		link(loc(4, 3), loc(2, 1)),
		ptTo(2),
	)
	toH3 := stateful.SeqC(
		test(and(stEq(1), ptEq(2), dstEq(H(3)))),
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
		Name: "walled-garden",
		Topo: topo.Star(),
		Prog: stateful.Program{Cmd: stateful.UnionC(portal, toH2, toH3, back), Init: stateful.State{0}},
	}
}

// routeChain builds the command steering a packet from srcHost's edge
// switch to dstHost's host port along the topology's deterministic
// shortest path: a guard on the source attachment port and the
// destination address, then one (pt<-out; link) pair per hop. When
// stUpd >= 0 the final link — whose arrival at the destination edge
// switch is the observable event — carries the state update state(0)<-stUpd.
func routeChain(tp *topo.Topology, srcHost, dstHost string, dst int, stUpd int) stateful.Cmd {
	hs, ok := tp.HostByName(srcHost)
	if !ok {
		panic(fmt.Sprintf("apps: unknown host %q", srcHost))
	}
	hd, ok := tp.HostByName(dstHost)
	if !ok {
		panic(fmt.Sprintf("apps: unknown host %q", dstHost))
	}
	links, ok := tp.ShortestPath(hs.Attach.Switch, hd.Attach.Switch, nil)
	if !ok || len(links) == 0 {
		panic(fmt.Sprintf("apps: no multi-hop route from %s to %s", srcHost, dstHost))
	}
	cmds := []stateful.Cmd{test(and(ptEq(hs.Attach.Port), dstEq(dst)))}
	for i, l := range links {
		cmds = append(cmds, ptTo(l.Src.Port))
		if i == len(links)-1 && stUpd >= 0 {
			cmds = append(cmds, linkSt(l.Src, l.Dst, stUpd))
		} else {
			cmds = append(cmds, link(l.Src, l.Dst))
		}
		// Re-test the destination after every hop. Semantically the test is
		// idempotent (dst is never rewritten), but it keeps it in each
		// hop's match, so routes to different hosts that share fabric
		// links compile to disjoint rules instead of merging into
		// multicast at the switches where they diverge.
		cmds = append(cmds, test(dstEq(dst)))
	}
	cmds = append(cmds, ptTo(hd.Attach.Port))
	return stateful.SeqC(cmds...)
}

// IDSFatTree lifts the Figure 9(e) intrusion-detection state machine onto
// a k-ary fat-tree fabric: the monitor host (the fabric's last host)
// scans H1 and then H2 — each detected by the arrival of its multi-hop
// flow at the target's edge switch — after which the monitor's access to
// H3 is cut off. Every flow is routed over the fabric's deterministic
// shortest path, so configurations span edge, aggregation, and core
// switches, exercising the compiler on data-center-scale topologies
// rather than the paper's one-hop stars.
func IDSFatTree(k int) App {
	if k < 4 {
		// k=2 yields only 2 hosts; the IDS needs H1-H3 plus a monitor on
		// a different edge switch.
		panic(fmt.Sprintf("apps: IDSFatTree needs arity >= 4, got %d", k))
	}
	tp := topo.FatTree(k)
	mon := fmt.Sprintf("H%d", k*k*k/4)

	scan1 := stateful.UnionC(
		stateful.SeqC(test(stEq(0)), routeChain(tp, mon, "H1", H(1), 1)),
		stateful.SeqC(test(stNeq(0)), routeChain(tp, mon, "H1", H(1), -1)),
	)
	scan2 := stateful.UnionC(
		stateful.SeqC(test(stEq(1)), routeChain(tp, mon, "H2", H(2), 2)),
		stateful.SeqC(test(stNeq(1)), routeChain(tp, mon, "H2", H(2), -1)),
	)
	reach3 := stateful.SeqC(test(stNeq(2)), routeChain(tp, mon, "H3", H(3), -1))
	monN := k * k * k / 4
	back := stateful.UnionC(
		routeChain(tp, "H1", mon, H(monN), -1),
		routeChain(tp, "H2", mon, H(monN), -1),
		routeChain(tp, "H3", mon, H(monN), -1),
	)
	return App{
		Name: fmt.Sprintf("ids-fattree-%d", k),
		Topo: tp,
		Prog: stateful.Program{
			Cmd:  stateful.UnionC(scan1, scan2, reach3, back),
			Init: stateful.State{0},
		},
	}
}

// DistributedFirewall: H1 and H2 each independently open their own
// return path from H4 by sending outgoing traffic — two independent
// events (at s4's ports 1 and 3) forming the Figure 3(a) diamond:
// the events can occur in either order, and different switches may
// observe them in different orders, all of which are correct.
//
//	pt=2 & dst=H4 & src=H1; pt<-1; (state(0)=0; (1:1)=>(4:1)<state(0)<-1>
//	                               + state(0)!=0; (1:1)=>(4:1)); pt<-2
//	+ pt=2 & dst=H4 & src=H2; pt<-1; (state(1)=0; (2:1)=>(4:3)<state(1)<-1>
//	                                 + state(1)!=0; (2:1)=>(4:3)); pt<-2
//	+ pt=2 & dst=H1; state(0)=1; pt<-1; (4:1)=>(1:1); pt<-2
//	+ pt=2 & dst=H2; state(1)=1; pt<-3; (4:3)=>(2:1); pt<-2
func DistributedFirewall() App {
	st := func(i, v int) stateful.Pred { return stateful.PState{Index: i, Value: v} }
	stN := func(i, v int) stateful.Pred { return stateful.PNot{P: stateful.PState{Index: i, Value: v}} }
	lnkSt := func(a, b int, ap, bp, idx int) stateful.Cmd {
		return stateful.CLinkState{
			Src:  loc(a, ap),
			Dst:  loc(b, bp),
			Sets: []stateful.StateSet{{Index: idx, Value: 1}},
		}
	}
	out1 := stateful.SeqC(
		test(and(ptEq(2), dstEq(H(4)), srcEq(H(1)))),
		ptTo(1),
		stateful.UnionC(
			stateful.SeqC(test(st(0, 0)), lnkSt(1, 4, 1, 1, 0)),
			stateful.SeqC(test(stN(0, 0)), link(loc(1, 1), loc(4, 1))),
		),
		ptTo(2),
	)
	out2 := stateful.SeqC(
		test(and(ptEq(2), dstEq(H(4)), srcEq(H(2)))),
		ptTo(1),
		stateful.UnionC(
			stateful.SeqC(test(st(1, 0)), lnkSt(2, 4, 1, 3, 1)),
			stateful.SeqC(test(stN(1, 0)), link(loc(2, 1), loc(4, 3))),
		),
		ptTo(2),
	)
	in1 := stateful.SeqC(
		test(and(ptEq(2), dstEq(H(1)))),
		test(st(0, 1)),
		ptTo(1),
		link(loc(4, 1), loc(1, 1)),
		ptTo(2),
	)
	in2 := stateful.SeqC(
		test(and(ptEq(2), dstEq(H(2)))),
		test(st(1, 1)),
		ptTo(3),
		link(loc(4, 3), loc(2, 1)),
		ptTo(2),
	)
	return App{
		Name: "distributed-firewall",
		Topo: topo.LearningSwitch(),
		Prog: stateful.Program{Cmd: stateful.UnionC(out1, out2, in1, in2), Init: stateful.State{0, 0}},
	}
}
