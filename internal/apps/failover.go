package apps

import (
	"fmt"

	"eventnet/internal/netkat"
	"eventnet/internal/stateful"
	"eventnet/internal/topo"
)

// Failover applications: a primary/backup path pair whose selection is
// flipped by first-class link-failure and -recovery events (see
// internal/stateful/failure.go for the event model). The program's state
// is a chain 0, 1, ..., 2*cycles — even states route over the primary
// path, odd states over the link-disjoint backup — advanced by the
// arrival of linkdown/linkup notifications from a monitor host. Each
// fail/recover pair reuses the same guard and location, so repeated
// cycles exercise the NES's occurrence renaming, and the chain keeps the
// ETS acyclic for any cycle count.

// Failover bundles a failover App with the metadata a chaos driver needs:
// the notification source, the notification header fields, and the
// directed primary link the program treats as failed in its odd states.
type Failover struct {
	App
	Src, Dst   string        // the data-traffic host pair
	Monitor    string        // notification-source host
	Failed     topo.Link     // primary link that fails (odd states avoid it)
	FailPkt    netkat.Packet // header fields of a failure notification
	RecoverPkt netkat.Packet // header fields of a recovery notification
	Cycles     int           // fail/recover cycles before the chain ends
}

// reversePath reverses a chain of bidirectional-link hops.
func reversePath(path []topo.Link) []topo.Link {
	out := make([]topo.Link, len(path))
	for i, l := range path {
		out[len(path)-1-i] = topo.Link{Src: l.Dst, Dst: l.Src}
	}
	return out
}

// pathCmds appends one (pt<-out; link; retest) triple per hop of a path.
// Hop eventAt (or none if -1) crosses a state-updating link setting
// state(0) <- stUpd. The per-hop retest keeps each branch's tables
// disjoint from branches sharing fabric links (see routeChain).
func pathCmds(cmds []stateful.Cmd, path []topo.Link, eventAt, stUpd int, retest stateful.Pred) []stateful.Cmd {
	for i, l := range path {
		cmds = append(cmds, ptTo(l.Src.Port))
		if i == eventAt {
			cmds = append(cmds, stateful.CLinkState{Src: l.Src, Dst: l.Dst, Sets: []stateful.StateSet{{Index: 0, Value: stUpd}}})
		} else {
			cmds = append(cmds, link(l.Src, l.Dst))
		}
		cmds = append(cmds, test(retest))
	}
	return cmds
}

// buildFailover assembles the failover program. primary[failIdx] is the
// link that fails; its failure is detected at primary[failIdx-1].Dst (the
// switch upstream of the break, so failIdx must be >= 1), and recovery is
// detected at backup[0].Dst. Both notifications travel from the monitor
// to the dst host, so every notification journey ends in an audited
// delivery.
func buildFailover(name string, tp *topo.Topology, srcH, dstH, monitor string, primary, backup []topo.Link, failIdx, cycles int) Failover {
	host := func(n string) topo.Host {
		h, ok := tp.HostByName(n)
		if !ok {
			panic(fmt.Sprintf("apps: unknown host %q", n))
		}
		return h
	}
	hs, hd, hm := host(srcH), host(dstH), host(monitor)
	if failIdx < 1 || failIdx >= len(primary) {
		panic(fmt.Sprintf("apps: failover fail index %d outside [1,%d)", failIdx, len(primary)))
	}
	if cycles < 1 {
		panic("apps: failover needs at least one fail/recover cycle")
	}
	failed := primary[failIdx]
	downT := stateful.LinkDownTest(failed.Src, failed.Dst)
	upT := stateful.LinkUpTest(failed.Src, failed.Dst)
	rprimary, rbackup := reversePath(primary), reversePath(backup)

	dataBranch := func(st int, from, to topo.Host, path []topo.Link) stateful.Cmd {
		d := dstEq(to.ID)
		cmds := []stateful.Cmd{test(and(ptEq(from.Attach.Port), d, stEq(st)))}
		cmds = pathCmds(cmds, path, -1, 0, d)
		cmds = append(cmds, ptTo(to.Attach.Port))
		return stateful.SeqC(cmds...)
	}
	notifBranch := func(st int, guard stateful.Pred, path []topo.Link, eventAt, next int) stateful.Cmd {
		cmds := []stateful.Cmd{test(and(ptEq(hm.Attach.Port), guard, stEq(st)))}
		cmds = pathCmds(cmds, path, eventAt, next, guard)
		cmds = append(cmds, ptTo(hd.Attach.Port))
		return stateful.SeqC(cmds...)
	}

	var branches []stateful.Cmd
	for c := 0; c <= cycles; c++ {
		even := 2 * c
		branches = append(branches,
			dataBranch(even, hs, hd, primary),
			dataBranch(even, hd, hs, rprimary),
		)
		if c == cycles {
			break
		}
		odd := even + 1
		branches = append(branches,
			notifBranch(even, downT, primary, failIdx-1, odd),
			dataBranch(odd, hs, hd, backup),
			dataBranch(odd, hd, hs, rbackup),
			notifBranch(odd, upT, backup, 0, even+2),
		)
	}
	id := netkat.LinkID(failed.Src, failed.Dst)
	return Failover{
		App: App{
			Name: name,
			Topo: tp,
			Prog: stateful.Program{Cmd: stateful.UnionC(branches...), Init: stateful.State{0}},
		},
		Src:        srcH,
		Dst:        dstH,
		Monitor:    monitor,
		Failed:     failed,
		FailPkt:    netkat.Packet{netkat.FieldLinkDown: id},
		RecoverPkt: netkat.Packet{netkat.FieldLinkUp: id},
		Cycles:     cycles,
	}
}

// FailoverDiamond is failover on the minimal diamond: primary s1-s2-s4,
// backup s1-s3-s4, the s2->s4 link failing. Failure is detected at s2,
// recovery at s3.
func FailoverDiamond(cycles int) Failover {
	primary := []topo.Link{
		{Src: loc(1, 1), Dst: loc(2, 1)},
		{Src: loc(2, 2), Dst: loc(4, 1)},
	}
	backup := []topo.Link{
		{Src: loc(1, 2), Dst: loc(3, 1)},
		{Src: loc(3, 2), Dst: loc(4, 2)},
	}
	return buildFailover(fmt.Sprintf("failover-diamond-%d", cycles),
		topo.Diamond(), "H1", "H2", "M", primary, backup, 1, cycles)
}

// FailoverWAN is failover on the six-switch WAN graph: two link-disjoint
// equal-cost three-hop paths (the ECMP pair), the s3->s4 link failing.
// Failure is detected at s3, recovery at s5.
func FailoverWAN(cycles int) Failover {
	primary := []topo.Link{
		{Src: loc(1, 1), Dst: loc(2, 1)},
		{Src: loc(2, 2), Dst: loc(3, 1)},
		{Src: loc(3, 2), Dst: loc(4, 1)},
	}
	backup := []topo.Link{
		{Src: loc(1, 2), Dst: loc(5, 1)},
		{Src: loc(5, 2), Dst: loc(6, 1)},
		{Src: loc(6, 2), Dst: loc(4, 2)},
	}
	return buildFailover(fmt.Sprintf("failover-wan-%d", cycles),
		topo.WAN(), "H1", "H2", "M", primary, backup, 2, cycles)
}

// FailoverFatTree is failover on a k-ary fat-tree: H1 (first edge switch)
// sends to the fabric's last host over the deterministic shortest path;
// the path's aggregation->core uplink fails, and the backup path routes
// through the surviving core. H2, on H1's edge switch, is the monitor.
func FailoverFatTree(k, cycles int) Failover {
	tp := topo.FatTree(k)
	if k < 4 {
		panic(fmt.Sprintf("apps: FailoverFatTree needs arity >= 4, got %d", k))
	}
	src, _ := tp.HostByName("H1")
	dstName := fmt.Sprintf("H%d", k*k*k/4)
	dst, _ := tp.HostByName(dstName)
	primary, ok := tp.ShortestPath(src.Attach.Switch, dst.Attach.Switch, nil)
	if !ok || len(primary) < 3 {
		panic("apps: fat-tree fabric path missing")
	}
	const failIdx = 1 // the aggregation->core uplink
	banned := map[topo.Link]bool{
		primary[failIdx]: true,
		{Src: primary[failIdx].Dst, Dst: primary[failIdx].Src}: true,
	}
	backup, ok := tp.ShortestPath(src.Attach.Switch, dst.Attach.Switch, banned)
	if !ok {
		panic("apps: fat-tree has no backup path")
	}
	return buildFailover(fmt.Sprintf("failover-fattree-%d-%d", k, cycles),
		tp, "H1", dstName, "H2", primary, backup, failIdx, cycles)
}
