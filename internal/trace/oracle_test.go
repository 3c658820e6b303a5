package trace_test

import (
	"errors"
	"maps"
	"math/rand"
	goruntime "runtime"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/dataplane"
	"eventnet/internal/ets"
	"eventnet/internal/nes"
	"eventnet/internal/netkat"
	"eventnet/internal/runtime"
	"eventnet/internal/sim"
	"eventnet/internal/stateful"
	"eventnet/internal/trace"
)

func buildNES(t testing.TB, a apps.App) *nes.NES {
	t.Helper()
	e, err := ets.Build(a.Prog, a.Topo)
	if err != nil {
		t.Fatalf("Build(%s): %v", a.Name, err)
	}
	n, err := e.ToNES()
	if err != nil {
		t.Fatalf("ToNES(%s): %v", a.Name, err)
	}
	return n
}

// checkNESByDefinition is Definition 6 read literally: CheckUpdate, from
// scratch, for the empty sequence and every sequence AllowedSequences
// lists, with the pending events of each enumerated per event from
// Enables and Con. It is the reference CheckNES is held to.
func checkNESByDefinition(nt *trace.NetTrace, n *nes.NES, hosts map[netkat.Location]bool) error {
	seqs, err := n.AllowedSequences()
	if err != nil {
		return err
	}
	var lastErr error
	for _, seq := range append([][]int{{}}, seqs...) {
		u, final, ok := updateFor(n, seq)
		if !ok {
			continue
		}
		var pending []nes.Event
		for _, ev := range n.Events {
			if !final.Has(ev.ID) && n.Enables(final, ev.ID) && n.Con(final.With(ev.ID)) {
				pending = append(pending, ev)
			}
		}
		if lastErr = trace.CheckUpdate(nt, u, pending, hosts); lastErr == nil {
			return nil
		}
	}
	if lastErr == nil {
		lastErr = errors.New("no allowed event sequence matches the trace")
	}
	return lastErr
}

// updateFor builds the update g(∅) -e0-> g({e0}) -e1-> ... for an allowed
// sequence, returning also the sequence's final event-set.
func updateFor(n *nes.NES, seq []int) (trace.Update, nes.Set, bool) {
	var u trace.Update
	s := nes.Empty
	c, ok := n.ConfigAt(s)
	if !ok {
		return trace.Update{}, s, false
	}
	u.Configs = append(u.Configs, n.Configs[c].Rel)
	for _, e := range seq {
		s = s.With(e)
		c, ok := n.ConfigAt(s)
		if !ok {
			return trace.Update{}, s, false
		}
		u.Configs = append(u.Configs, n.Configs[c].Rel)
		u.Events = append(u.Events, n.Events[e])
	}
	return u, s, true
}

// oracleCase is an application and the extra packets its events need:
// LoadGen's packets carry src, dst and id only, and the ring's event is
// a signal packet.
type oracleCase struct {
	app    apps.App
	signal []dataplane.Injection
}

func oracleCases() []oracleCase {
	var cs []oracleCase
	for _, a := range apps.All() {
		cs = append(cs, oracleCase{app: a})
	}
	return append(cs,
		oracleCase{app: apps.Ring(4), signal: []dataplane.Injection{{Host: "H1", Fields: netkat.Packet{apps.FieldSig: 1}}}},
		oracleCase{app: apps.DistributedFirewall()},
		oracleCase{app: apps.WalledGarden()},
	)
}

// machineTrace runs 24 LoadGen packets (and the case's signal packets,
// at random positions) through the Figure 7 machine, stepping a random
// number of times between injections, and returns the recorded trace.
func machineTrace(t *testing.T, c oracleCase, n *nes.NES, seed int64, assist bool) *trace.NetTrace {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	ins := dataplane.NewLoadGen(n, c.app.Topo, seed).Injections(24)
	for _, s := range c.signal {
		i := r.Intn(len(ins) + 1)
		ins = append(ins[:i], append([]dataplane.Injection{s}, ins[i:]...)...)
	}
	m := runtime.New(n, c.app.Topo, seed, assist)
	for _, in := range ins {
		if err := m.Inject(in.Host, in.Fields); err != nil {
			t.Fatal(err)
		}
		for i := r.Intn(4); i > 0; i-- {
			m.Step()
		}
	}
	if err := m.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
	return m.NetTrace()
}

// TestInjectLeavesMapsUnchanged: Inject keeps the caller's header map —
// the queued packet and its trace point hold it — so no rule may write
// one. Every oracle case, and a firewall whose every hop marks the packet
// (the paper's applications rewrite no header), run to quiescence with
// the assist on and off, leaves each injected map as it was.
func TestInjectLeavesMapsUnchanged(t *testing.T) {
	marked := apps.Firewall()
	marked.Name += "+mark"
	marked.Prog.Cmd = stateful.SeqC(stateful.CAssign{Field: "mark", Value: 1}, marked.Prog.Cmd)
	for _, c := range append(oracleCases(), oracleCase{app: marked}) {
		n := buildNES(t, c.app)
		for seed := int64(0); seed < 4; seed++ {
			ins := append(dataplane.NewLoadGen(n, c.app.Topo, seed).Injections(24), c.signal...)
			before := make([]netkat.Packet, len(ins))
			m := runtime.New(n, c.app.Topo, seed, seed%2 == 0)
			for i, in := range ins {
				before[i] = in.Fields.Clone()
				if err := m.Inject(in.Host, in.Fields); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.RunToQuiescence(); err != nil {
				t.Fatal(err)
			}
			for i, in := range ins {
				if !maps.Equal(in.Fields, before[i]) {
					t.Fatalf("%s, seed %d: injection %d's map went from %v to %v", c.app.Name, seed, i, before[i], in.Fields)
				}
			}
		}
	}
}

// withoutTail returns nt with tree ti of trees (nt.Trees()) cut back to
// its first keep points: the cut points leave the trace, and no other
// tree may pass through them.
func withoutTail(nt *trace.NetTrace, trees [][]int, ti, keep int) *trace.NetTrace {
	cut := map[int]bool{}
	for _, k := range trees[ti][keep:] {
		cut[k] = true
	}
	renum := make([]int, len(nt.Packets))
	out := &trace.NetTrace{}
	for k, d := range nt.Packets {
		if cut[k] {
			continue
		}
		p := nt.Parent[k]
		if p >= 0 {
			p = renum[p]
		}
		renum[k] = out.Append(d, p)
	}
	return out
}

// lateDrop cuts the latest-emitted packet tree that crosses a switch
// and is not shared with another tree back to its last switch ingress,
// so it reads as a drop there. It returns nil if no tree qualifies.
func lateDrop(nt *trace.NetTrace, hosts map[netkat.Location]bool) *trace.NetTrace {
	trees := nt.Trees()
	shared := map[int]int{}
	for _, tr := range trees {
		for _, k := range tr {
			shared[k]++
		}
	}
	for ti := len(trees) - 1; ti >= 0; ti-- {
		tr := trees[ti]
		for j := len(tr) - 2; j > 0; j-- {
			if shared[tr[j+1]] > 1 {
				break
			}
			if d := nt.Packets[tr[j]]; !d.Out && !hosts[d.Loc] {
				return withoutTail(nt, trees, ti, j+1)
			}
		}
	}
	return nil
}

// rotated returns n with each configuration's flow tables taken from
// the next configuration: a machine running it forwards under the wrong
// configuration at every event-set, so its traces hit the too-early,
// too-late and wrong-trigger clauses when judged against n.
func rotated(t *testing.T, n *nes.NES) *nes.NES {
	t.Helper()
	family := map[nes.Set]int{}
	for _, s := range n.Family() {
		family[s], _ = n.ConfigAt(s)
	}
	configs := append([]nes.Config(nil), n.Configs...)
	for i := range configs {
		configs[i].Tables = n.Configs[(i+1)%len(configs)].Tables
	}
	r, err := nes.New(n.Events, family, configs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// headerFlip changes the dst header of one point in the middle of the
// trace's longest tree. Points share their header maps, so the flipped
// point gets a copy.
func headerFlip(nt *trace.NetTrace) *trace.NetTrace {
	trees := nt.Trees()
	long := 0
	for ti, tr := range trees {
		if len(tr) > len(trees[long]) {
			long = ti
		}
	}
	if len(trees) == 0 || len(trees[long]) < 3 {
		return nil
	}
	k := trees[long][len(trees[long])/2]
	out := &trace.NetTrace{Packets: append([]netkat.DPacket(nil), nt.Packets...), Parent: nt.Parent}
	d := out.Packets[k]
	d.Pkt = d.Pkt.Clone()
	d.Pkt[apps.FieldDst] = d.Pkt[apps.FieldDst] + 1
	out.Packets[k] = d
	return out
}

// TestCheckNESMatchesDefinition holds CheckNES's one-pass search to the
// definitional oracle, verdict for verdict: on machine traces of the
// paper's five applications, ring(4), the distributed firewall and the
// walled garden (the last two have concurrent events, so the search
// branches), with and without controller assistance; on those traces
// doctored into a late drop and a header flip; on traces of a machine
// forwarding with rotated configurations; and on the simulator's
// tagged and uncoordinated planes. Agreement is the assertion: that
// machine traces pass is TestTheorem1RandomSchedules's to hold.
func TestCheckNESMatchesDefinition(t *testing.T) {
	const seeds = 200
	type tally struct{ traces, rejected int }
	var all tally
	judge := func(t *testing.T, what string, nt *trace.NetTrace, n *nes.NES, hosts map[netkat.Location]bool, tl *tally) {
		t.Helper()
		got, want := trace.CheckNES(nt, n, hosts), checkNESByDefinition(nt, n, hosts)
		if (got == nil) != (want == nil) {
			t.Fatalf("%s: CheckNES says %v, the definition says %v", what, got, want)
		}
		tl.traces++
		if got != nil {
			tl.rejected++
		}
	}
	for _, c := range oracleCases() {
		t.Run(c.app.Name, func(t *testing.T) {
			n := buildNES(t, c.app)
			rot := rotated(t, n)
			hosts := c.app.Topo.HostLocs()
			var plain, doctored tally
			for seed := int64(0); seed < seeds; seed++ {
				for _, assist := range []bool{false, true} {
					nt := machineTrace(t, c, n, seed, assist)
					judge(t, "machine", nt, n, hosts, &plain)
					if d := lateDrop(nt, hosts); d != nil {
						judge(t, "late drop", d, n, hosts, &doctored)
					}
					if d := headerFlip(nt); d != nil {
						judge(t, "header flip", d, n, hosts, &doctored)
					}
					judge(t, "rotated", machineTrace(t, c, rot, seed, assist), n, hosts, &doctored)
				}
			}
			t.Logf("machine traces: %d, both reject %d; doctored: %d, both reject %d", plain.traces, plain.rejected, doctored.traces, doctored.rejected)
			all.traces += plain.traces + doctored.traces
			all.rejected += plain.rejected + doctored.rejected
		})
	}
	t.Run("sim", func(t *testing.T) {
		var tl tally
		for _, a := range apps.All() {
			n := buildNES(t, a)
			hosts := a.Topo.HostLocs()
			for _, kind := range []sim.PlaneKind{sim.PlaneKindTagged, sim.PlaneKindUncoord} {
				for seed := int64(1); seed <= 3; seed++ {
					p := sim.DefaultParams()
					p.InstallDelay = 0.5 * float64(seed)
					s := sim.New(a.Topo, sim.NewPlane(kind, n), p, seed)
					s.Record = true
					id := 0
					for _, src := range a.Topo.Hosts {
						sim.EnableEcho(s, src.Name)
						for _, dst := range a.Topo.Hosts {
							if src.Name != dst.Name {
								sim.StartPings(s, src.Name, dst.Name, 0.2*float64(id), 0.35, 2, 1000*id)
								id++
							}
						}
					}
					s.Run(20)
					judge(t, a.Name, s.NetTrace(), n, hosts, &tl)
				}
			}
		}
		if tl.rejected == 0 {
			t.Error("no simulator trace rejected: the uncoordinated plane should be convicted")
		}
		t.Logf("simulator traces: %d, both reject %d", tl.traces, tl.rejected)
		all.traces += tl.traces
		all.rejected += tl.rejected
	})
	t.Logf("%d traces judged alike, %d rejected by both", all.traces, all.rejected)
}

// countingConfig counts the DStep and Succ calls made on a configuration.
type countingConfig struct {
	netkat.DConfig
	calls *int
}

func (c countingConfig) DStep(d netkat.DPacket) []netkat.DPacket {
	*c.calls++
	return c.DConfig.DStep(d)
}

func (c countingConfig) Succ(d, next netkat.DPacket) bool {
	*c.calls++
	return c.DConfig.Succ(d, next)
}

// TestCheckNESWorkBound: the oracle decides each packet tree's
// membership in Traces(C) at most once per configuration, one Succ call
// per step and at most one DStep call at the leaf, so its Succ and DStep
// calls together stay within |Configs| × Σ|tree| however many sequences
// it tries;
// and on a long ring(4) run its allocation stays linear in the trace's
// points, so no n×n happens-before closure is built.
func TestCheckNESWorkBound(t *testing.T) {
	run := func(t *testing.T, a apps.App, drive func(m *runtime.Machine)) (points int, alloc uint64) {
		n := buildNES(t, a)
		calls := 0
		for i := range n.Configs {
			n.Configs[i].Rel = countingConfig{DConfig: n.Configs[i].Rel, calls: &calls}
		}
		m := runtime.New(n, a.Topo, 1, false)
		drive(m)
		if err := m.RunToQuiescence(); err != nil {
			t.Fatal(err)
		}
		nt := m.NetTrace()
		trees := nt.Trees()
		steps := 0
		for _, tr := range trees {
			steps += len(tr)
		}
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		err := trace.CheckNES(nt, n, a.Topo.HostLocs())
		goruntime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("machine trace rejected: %v", err)
		}
		if bound := len(n.Configs) * steps; calls > bound {
			t.Errorf("%d Succ and DStep calls, want <= |Configs| × Σ|tree| = %d × %d", calls, len(n.Configs), steps)
		}
		alloc = after.TotalAlloc - before.TotalAlloc
		t.Logf("%d points, %d trees, %d configs: %d Succ and DStep calls (bound %d), %d bytes allocated",
			len(nt.Packets), len(trees), len(n.Configs), calls, len(n.Configs)*steps, alloc)
		return len(nt.Packets), alloc
	}
	t.Run("bandwidth-cap-10", func(t *testing.T) {
		run(t, apps.BandwidthCap(10), func(m *runtime.Machine) {
			for i := 0; i < 14; i++ {
				for _, send := range []struct {
					host string
					dst  int
				}{{"H1", apps.H(4)}, {"H4", apps.H(1)}} {
					if err := m.Inject(send.host, netkat.Packet{apps.FieldDst: send.dst}); err != nil {
						t.Fatal(err)
					}
					m.Step()
				}
			}
			if err := m.RunToQuiescence(); err != nil {
				t.Fatal(err)
			}
			if got := m.SwitchView(4).Count(); got < 10 {
				t.Fatalf("only %d events reached s4: the search would not go deep", got)
			}
		})
	})
	t.Run("ring-4", func(t *testing.T) {
		const injections = 5000
		points, alloc := run(t, apps.Ring(4), func(m *runtime.Machine) {
			for i := 0; i < injections; i++ {
				h, dst := "H1", netkat.Packet{apps.FieldDst: apps.H(2)}
				switch {
				case i == injections/2:
					dst = netkat.Packet{apps.FieldSig: 1}
				case i%2 == 1:
					h, dst = "H2", netkat.Packet{apps.FieldDst: apps.H(1)}
				}
				if err := m.Inject(h, dst); err != nil {
					t.Fatal(err)
				}
				for j := 0; j < 4; j++ {
					m.Step()
				}
			}
		})
		// The closure alone would take points²/8 bytes.
		if perPoint := alloc / uint64(points); perPoint > 512 {
			t.Errorf("CheckNES allocated %d bytes per point, want <= 512", perPoint)
		}
	})
}
