package trace_test

import (
	"fmt"
	"slices"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/dataplane"
	"eventnet/internal/nes"
	"eventnet/internal/netkat"
	"eventnet/internal/sim"
	"eventnet/internal/syntax"
	"eventnet/internal/topo"
	"eventnet/internal/trace"
)

// rewriteApp is the Figure 9(a) firewall with header rewrites: outgoing
// packets are marked tos=1 before the event and tos=2 after it, and the
// return path multicasts a copy marked mark=7 beside an unmarked one on
// the same port. No paper application's tables rewrite a field, so this
// is the case that holds Succ's group-by-group field check.
func rewriteApp(t *testing.T) apps.App {
	t.Helper()
	prog, err := syntax.ParseProgram(`
pt=2 & dst=H4; pt<-1; (state=[0]; tos<-1; (1:1)=>(4:1)<state<-[1]>
                      + state!=[0]; tos<-2; (1:1)=>(4:1)); pt<-2
+ pt=2 & dst=H1; state=[1]; (mark<-7; pt<-1 + pt<-1); (4:1)=>(1:1); pt<-2
`, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	return apps.App{Name: "firewall-rewrite", Topo: topo.Firewall(), Prog: prog}
}

// simTrace records a tagged-plane simulator run: pings both ways between
// every pair of hosts.
func simTrace(app apps.App, n *nes.NES, seed int64) *trace.NetTrace {
	s := sim.New(app.Topo, sim.NewPlane(sim.PlaneKindTagged, n), sim.DefaultParams(), seed)
	s.Record = true
	id := 0
	for _, src := range app.Topo.Hosts {
		sim.EnableEcho(s, src.Name)
		for _, dst := range app.Topo.Hosts {
			if src.Name != dst.Name {
				sim.StartPings(s, src.Name, dst.Name, 0.2*float64(id), 0.35, 2, 1000*id)
				id++
			}
		}
	}
	s.Run(10)
	return s.NetTrace()
}

// perturbed returns d and its near misses: each field changed or
// dropped, a field added, the port moved, the direction flipped.
func perturbed(d netkat.DPacket) []netkat.DPacket {
	out := []netkat.DPacket{d}
	with := func(p netkat.Packet) netkat.DPacket { return netkat.DPacket{Pkt: p, Loc: d.Loc, Out: d.Out} }
	for f, v := range d.Pkt {
		dropped := d.Pkt.Clone()
		delete(dropped, f)
		out = append(out, with(d.Pkt.With(f, v+1)), with(dropped))
	}
	moved, flipped := d, d
	moved.Loc.Port++
	flipped.Out = !d.Out
	return append(out, with(d.Pkt.With("probe", 1)), moved, flipped)
}

// TestSuccMatchesDStep holds every configuration's Succ to membership in
// its DStep, on the paper's five applications, failover-wan-4,
// bandwidth-cap-200 and a firewall with header rewrites: at every point d
// of seeded machine traces and a simulator trace, under every
// configuration, Succ(d, n) must say whether n is in DStep(d) for each n
// of DStep(d) under any configuration, of d's recorded successors and of
// d itself, and for each of those perturbed.
func TestSuccMatchesDStep(t *testing.T) {
	type succCase struct {
		app    apps.App
		signal []dataplane.Injection
	}
	var cases []succCase
	for _, a := range apps.All() {
		cases = append(cases, succCase{app: a})
	}
	fo := apps.FailoverWAN(4)
	cases = append(cases,
		succCase{fo.App, []dataplane.Injection{{Host: fo.Monitor, Fields: fo.FailPkt}, {Host: fo.Monitor, Fields: fo.RecoverPkt}}},
		succCase{app: apps.BandwidthCap(200)},
		succCase{app: rewriteApp(t)},
	)
	for _, c := range cases {
		t.Run(c.app.Name, func(t *testing.T) {
			n := buildNES(t, c.app)
			var traces []*trace.NetTrace
			for seed := int64(0); seed < 4; seed++ {
				traces = append(traces, machineTrace(t, oracleCase{app: c.app, signal: c.signal}, n, seed, seed%2 == 0))
			}
			traces = append(traces, simTrace(c.app, n, 1))
			checks, members, rewrites := 0, 0, 0
			for ti, nt := range traces {
				next := make([][]netkat.DPacket, len(nt.Packets)) // point -> its recorded successors
				for _, tr := range nt.Trees() {
					for i := 0; i+1 < len(tr); i++ {
						next[tr[i]] = append(next[tr[i]], nt.Packets[tr[i+1]])
					}
				}
				for k, d := range nt.Packets {
					base := append(slices.Clone(next[k]), d)
					for _, cfg := range n.Configs {
						base = append(base, cfg.Rel.DStep(d)...)
					}
					seen := map[string]bool{}
					var cands []netkat.DPacket
					for _, b := range base {
						for _, x := range perturbed(b) {
							if key := x.Key(); !seen[key] {
								seen[key] = true
								cands = append(cands, x)
							}
						}
					}
					for ci, cfg := range n.Configs {
						steps := cfg.Rel.DStep(d)
						for _, x := range cands {
							want := slices.ContainsFunc(steps, x.Equal)
							if got := cfg.Rel.Succ(d, x); got != want {
								t.Fatalf("trace %d point %d, config %d: Succ(%v, %v) = %v, DStep gives %v", ti, k, ci, d, x, got, fmt.Sprint(steps))
							}
							checks++
							if want {
								members++
								if !x.Pkt.Equal(d.Pkt) {
									rewrites++
								}
							}
						}
					}
				}
			}
			t.Logf("%d traces, %d configs: %d candidates checked, %d successors, %d of them rewritten", len(traces), len(n.Configs), checks, members, rewrites)
			if members == 0 {
				t.Fatal("no candidate was a successor: the test is vacuous")
			}
			if c.app.Name == "firewall-rewrite" && rewrites == 0 {
				t.Fatal("no rewritten successor was checked")
			}
		})
	}
}
