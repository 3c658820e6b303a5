package dataplane_test

import (
	"math/rand"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/dataplane"
	"eventnet/internal/ets"
	"eventnet/internal/flowtable"
	"eventnet/internal/nes"
	"eventnet/internal/netkat"
	"eventnet/internal/nkc"
	"eventnet/internal/stateful"
	"eventnet/internal/topo"
)

// propApps is the property-test application set: the paper five plus the
// ring, every extension app and a failover family (with the ring, the
// ones whose buckets hold rules lacking the bucket's key field).
func propApps() []apps.App {
	out := apps.All()
	out = append(out, apps.Ring(3), apps.WalledGarden(), apps.DistributedFirewall(), apps.IDSFatTree(4), apps.FailoverDiamond(2).App)
	return out
}

// buildETS runs the production pipeline: configuration i of the NES is
// vertex i of the ETS, so a test that needs the policy behind a
// configuration projects the program onto Vertices[i].State.
func buildETS(t testing.TB, a apps.App) (*ets.ETS, *nes.NES) {
	t.Helper()
	e, err := ets.Build(a.Prog, a.Topo)
	if err != nil {
		t.Fatalf("%s: ets.Build: %v", a.Name, err)
	}
	n, err := e.ToNES()
	if err != nil {
		t.Fatalf("%s: ToNES: %v", a.Name, err)
	}
	return e, n
}

func buildNES(t testing.TB, a apps.App) *nes.NES {
	t.Helper()
	_, n := buildETS(t, a)
	return n
}

// sameOutputs compares two output sequences exactly: the same winning
// rule must fire, so order and contents coincide.
func sameOutputs(a, b []flowtable.Output) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Port != b[i].Port || !a[i].Pkt.Equal(b[i].Pkt) {
			return false
		}
	}
	return true
}

// randProbe draws a packet/port/tag triple from the app's plausible value
// universe: host addresses plus small integers, over the fields the
// applications test.
func randProbe(r *rand.Rand, hosts []int) (netkat.Packet, int, uint32) {
	vals := append([]int{0, 1, 2}, hosts...)
	pkt := netkat.Packet{}
	for _, f := range []string{"dst", "src", "sig", "kind"} {
		if r.Intn(3) > 0 {
			pkt[f] = vals[r.Intn(len(vals))]
		}
	}
	tag := uint32(0)
	if r.Intn(4) == 0 {
		tag = uint32(r.Intn(8))
	}
	return pkt, r.Intn(6), tag
}

// aimAt overlays, half the time, the equality literals of a random rule
// of the table onto a probe, so that rules testing fields outside
// randProbe's universe (a failover program's link notifications) are
// reached as well.
func aimAt(r *rand.Rand, pkt netkat.Packet, tbl *flowtable.Table) {
	if tbl.Len() == 0 || r.Intn(2) == 0 {
		return
	}
	for _, l := range tbl.Rules[r.Intn(tbl.Len())].Match.Cond.Lits() {
		if l.Eq && l.F != netkat.FieldPt {
			pkt[l.F] = l.V
		}
	}
}

func hostAddrs(tp *topo.Topology) []int {
	var out []int
	for _, lk := range tp.AllLinks() {
		if h, ok := tp.HostByID(lk.Dst.Switch); ok {
			out = append(out, h.ID)
		}
	}
	return out
}

// refOf is the linear-scan reference for a switch of a configuration: the
// configuration's own table, or the drop-everything Scan where it
// installs none.
func refOf(n *nes.NES, ci, sw int) dataplane.Scan {
	return dataplane.Scan{Table: n.Configs[ci].Tables[sw]}
}

// TestFlatMatcherEquivalence is the compiled table's acceptance property:
// on every reachable state of every application, for randomized packets,
// in-ports and tags, forwarding through the lowered, indexed table is
// byte-equal to flowtable.Table's linear scan of the same table.
func TestFlatMatcherEquivalence(t *testing.T) {
	for _, a := range propApps() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			states, _, err := a.Prog.ReachableStates()
			if err != nil {
				t.Fatal(err)
			}
			hosts := hostAddrs(a.Topo)
			r := rand.New(rand.NewSource(71))
			for _, st := range states {
				pol := stateful.Project(a.Prog.Cmd, st)
				tables, err := compilePolicy(pol, a.Topo)
				if err != nil {
					t.Fatalf("state %v: %v", st, err)
				}
				schema := dataplane.SchemaForTables(tables)
				for _, sw := range tables.Switches() {
					tbl := tables[sw]
					ref := dataplane.Scan{Table: tbl}
					flat := dataplane.CompileFlat(tbl, schema)
					if flat.Len() != tbl.Len() {
						t.Fatalf("state %v sw %d: rule counts differ", st, sw)
					}
					for i := 0; i < 200; i++ {
						pkt, port, tag := randProbe(r, hosts)
						aimAt(r, pkt, tbl)
						want := ref.Process(nil, pkt, port, tag)
						got := flat.Process(nil, pkt, port, tag)
						if !sameOutputs(got, want) {
							t.Fatalf("state %v sw %d pkt %v port %d tag %d:\nflat %v\nscan %v\ntable:\n%v",
								st, sw, pkt, port, tag, got, want, tbl)
						}
					}
				}
			}
		})
	}
}

// TestMatcherEquivalence is the same property one level up, on what the
// engine actually forwards with: for every configuration and switch of
// every application's NES (tables from the production ETS pipeline,
// lowered against the whole program's schema by PlanFor), the plan's
// compiled table agrees with the plan's reference view of that table.
func TestMatcherEquivalence(t *testing.T) {
	for _, a := range propApps() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			n := buildNES(t, a)
			plan := dataplane.PlanFor(n)
			hosts := hostAddrs(a.Topo)
			r := rand.New(rand.NewSource(23))
			probed := 0
			for ci := range n.Configs {
				for _, sw := range a.Topo.Switches {
					flat, ok := plan.Flat(ci, sw)
					if _, has := n.Configs[ci].Tables[sw]; ok != has {
						t.Fatalf("config %d sw %d: plan has table=%v, NES has table=%v", ci, sw, ok, has)
					}
					if !ok {
						continue
					}
					ref := plan.Matcher(ci, sw)
					for i := 0; i < 100; i++ {
						pkt, port, tag := randProbe(r, hosts)
						aimAt(r, pkt, ref.Table)
						got := flat.Process(nil, pkt, port, tag)
						want := ref.Process(nil, pkt, port, tag)
						if !sameOutputs(got, want) {
							t.Fatalf("config %d sw %d pkt %v port %d tag %d:\nflat %v\nscan %v\ntable:\n%v",
								ci, sw, pkt, port, tag, got, want, ref.Table)
						}
						probed += len(want)
					}
				}
			}
			if probed == 0 {
				t.Fatal("no probe forwarded; test is vacuous")
			}
		})
	}
}

// processor is what a journey needs of a switch: Scan and FlatMatcher
// both have it.
type processor interface {
	Process(dst []flowtable.Output, pkt netkat.Packet, inPort int, tag uint32) []flowtable.Output
}

// switchConfig realizes the configuration relation through per-switch
// processors (the test-side analogue of nkc.CompiledConfig), for the
// netkat.Eval leg of the equivalence property.
type switchConfig struct {
	ms   map[int]processor
	topo *topo.Topology
}

func (c switchConfig) DStep(d netkat.DPacket) []netkat.DPacket {
	var outs []netkat.DPacket
	switch {
	case c.topo.IsHostNode(d.Loc.Switch):
		if !d.Out {
			return nil
		}
		h, _ := c.topo.HostByID(d.Loc.Switch)
		outs = append(outs, netkat.DPacket{Pkt: d.Pkt, Loc: h.Attach})
	case d.Out:
		if lk, ok := c.topo.LinkFrom(d.Loc); ok {
			if h, isHost := c.topo.HostByID(lk.Dst.Switch); isHost {
				outs = append(outs, netkat.DPacket{Pkt: d.Pkt, Loc: h.Loc()})
			} else {
				outs = append(outs, netkat.DPacket{Pkt: d.Pkt, Loc: lk.Dst})
			}
		}
	default:
		if m, ok := c.ms[d.Loc.Switch]; ok {
			for _, o := range m.Process(nil, d.Pkt, d.Loc.Port, 0) {
				outs = append(outs, netkat.DPacket{Pkt: o.Pkt, Loc: netkat.Location{Switch: d.Loc.Switch, Port: o.Port}, Out: true})
			}
		}
	}
	return outs
}

func (c switchConfig) Succ(d, next netkat.DPacket) bool {
	for _, n := range c.DStep(d) {
		if n.Equal(next) {
			return true
		}
	}
	return false
}

// journey drives a DConfig exhaustively from a start point, returning the
// visited directed-packet set and the reached located-packet set.
func journey(t *testing.T, cfg netkat.DConfig, start netkat.DPacket) (map[string]bool, map[string]bool) {
	t.Helper()
	visited := map[string]bool{}
	reached := map[string]bool{}
	frontier := []netkat.DPacket{start}
	for steps := 0; len(frontier) > 0; steps++ {
		if steps > 10000 {
			t.Fatalf("journey from %v did not terminate", start)
		}
		var next []netkat.DPacket
		for _, d := range frontier {
			k := d.Key()
			if visited[k] {
				continue
			}
			visited[k] = true
			reached[d.LP().Key()] = true
			next = append(next, cfg.DStep(d)...)
		}
		frontier = next
	}
	return visited, reached
}

// evalApps is the application set of the journey/Eval triangle tests.
func evalApps() []apps.App {
	return []apps.App{apps.Firewall(), apps.LearningSwitch(), apps.Authentication(), apps.BandwidthCap(10), apps.IDS(), apps.WalledGarden(), apps.DistributedFirewall(), apps.Ring(3), apps.IDSFatTree(4)}
}

// checkJourneys closes the triangle with the reference evaluator for one
// configuration: journeying every host's emissions through the compiled
// tables visits exactly the directed packets the linear scan visits, and
// every output netkat.Eval predicts for the configuration's policy is
// reached. The second emission of each pair carries a field no
// application tests ("probe"), so inert-field carriage is on the path.
func checkJourneys(t *testing.T, tp *topo.Topology, pol netkat.Policy, flat, scan switchConfig, ctx string) {
	t.Helper()
	hosts := hostAddrs(tp)
	for _, lk := range tp.AllLinks() {
		h, ok := tp.HostByID(lk.Dst.Switch)
		if !ok {
			continue
		}
		for _, dst := range hosts {
			for _, pkt := range []netkat.Packet{
				{"dst": dst, "src": h.ID},
				{"dst": dst, "sig": 1, "probe": 7},
			} {
				start := netkat.DPacket{Pkt: pkt, Loc: h.Loc(), Out: true}
				visF, reachF := journey(t, flat, start)
				visS, _ := journey(t, scan, start)
				if len(visF) != len(visS) {
					t.Fatalf("%s from %v: flat visits %d, scan visits %d", ctx, start, len(visF), len(visS))
				}
				for k := range visF {
					if !visS[k] {
						t.Fatalf("%s from %v: flat visits %s, scan does not", ctx, start, k)
					}
				}
				// The policy processes packets at switch ingress; the host
				// emission enters at the attachment port.
				ingress := netkat.LocatedPacket{Pkt: pkt, Loc: h.Attach}
				for _, want := range netkat.Eval(pol, ingress) {
					if !reachF[want.Key()] {
						t.Fatalf("%s: Eval predicts %v from %v but the compiled tables never reach it", ctx, want, ingress)
					}
				}
			}
		}
	}
}

// TestFlatEvalEquivalence runs the triangle on every reachable state's
// scratch-compiled tables, each lowered against its own tables' schema.
func TestFlatEvalEquivalence(t *testing.T) {
	for _, a := range evalApps() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			states, _, err := a.Prog.ReachableStates()
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range states {
				pol := stateful.Project(a.Prog.Cmd, st)
				tables, err := compilePolicy(pol, a.Topo)
				if err != nil {
					t.Fatalf("state %v: %v", st, err)
				}
				schema := dataplane.SchemaForTables(tables)
				flat := switchConfig{ms: map[int]processor{}, topo: a.Topo}
				scan := switchConfig{ms: map[int]processor{}, topo: a.Topo}
				for _, sw := range tables.Switches() {
					flat.ms[sw] = dataplane.CompileFlat(tables[sw], schema)
					scan.ms[sw] = dataplane.Scan{Table: tables[sw]}
				}
				checkJourneys(t, a.Topo, pol, flat, scan, "state "+st.Key())
			}
		})
	}
}

// TestMatcherEvalEquivalence runs the triangle on the plan: every
// configuration of the NES the production pipeline builds, through the
// tables PlanFor compiled against the program schema, against the plan's
// reference view and the policy of the configuration's ETS state.
func TestMatcherEvalEquivalence(t *testing.T) {
	for _, a := range evalApps() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			e, n := buildETS(t, a)
			plan := dataplane.PlanFor(n)
			for ci := range n.Configs {
				flat := switchConfig{ms: map[int]processor{}, topo: a.Topo}
				scan := switchConfig{ms: map[int]processor{}, topo: a.Topo}
				for _, sw := range a.Topo.Switches {
					if m, ok := plan.Flat(ci, sw); ok {
						flat.ms[sw] = m
					}
					scan.ms[sw] = plan.Matcher(ci, sw)
				}
				st := e.Vertices[ci].State
				checkJourneys(t, a.Topo, stateful.Project(a.Prog.Cmd, st), flat, scan, "config "+st.Key())
			}
		})
	}
}

// TestMergedGuardEquivalence checks a merged table that holds every
// configuration's rules twice over (MergedPair of a program with itself):
// looked up under tag c or under c's second copy, it behaves exactly like
// configuration c's own table, through both the compiled index — whose
// hash slots then hold every configuration's copy, told apart by each
// rule's guard — and the linear scan of the merged table.
func TestMergedGuardEquivalence(t *testing.T) {
	for _, a := range []apps.App{apps.Firewall(), apps.BandwidthCap(10), apps.IDS()} {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			n := buildNES(t, a)
			merged, off := dataplane.MergedPair(n, n)
			schema := dataplane.SchemaForTables(merged)
			hosts := hostAddrs(a.Topo)
			r := rand.New(rand.NewSource(31))
			for _, sw := range merged.Switches() {
				flat := dataplane.CompileFlat(merged[sw], schema)
				mscan := dataplane.Scan{Table: merged[sw]}
				for ci := range n.Configs {
					ref := refOf(n, ci, sw)
					for i := 0; i < 100; i++ {
						pkt, port, _ := randProbe(r, hosts)
						tag := uint32(ci + i%2*off)
						got := flat.Process(nil, pkt, port, tag)
						viaScan := mscan.Process(nil, pkt, port, tag)
						want := ref.Process(nil, pkt, port, 0)
						if !sameOutputs(got, want) || !sameOutputs(viaScan, want) {
							t.Fatalf("sw %d config %d tag %d pkt %v port %d:\nflat-merged %v\nmerged-scan %v\nper-config %v",
								sw, ci, tag, pkt, port, got, viaScan, want)
						}
					}
				}
			}
		})
	}
}

// TestMergedPairFlatSharedSchema pins the swap-epoch schema property:
// the staged MergedPair table — one physical table holding both
// programs' rules behind disjoint guards — compiles flat under ONE
// schema spanning both programs' fields, and looking up a packet
// under either program's tag is byte-equal to that program's own
// per-config table under the linear scan. Interning through the shared
// schema cannot change the matched rule.
func TestMergedPairFlatSharedSchema(t *testing.T) {
	old := buildNES(t, apps.Firewall())
	new_ := buildNES(t, apps.BandwidthCap(10))
	tables, off := dataplane.MergedPair(old, new_)
	schema := dataplane.NewSchema(append(dataplane.ProgramFields(old), dataplane.ProgramFields(new_)...))
	hostsOld := hostAddrs(apps.Firewall().Topo)
	r := rand.New(rand.NewSource(97))
	for _, sw := range tables.Switches() {
		flat := dataplane.CompileFlat(tables[sw], schema)
		check := func(tag uint32, ref dataplane.Scan) {
			for i := 0; i < 100; i++ {
				pkt, port, _ := randProbe(r, hostsOld)
				got := flat.Process(nil, pkt, port, tag)
				want := ref.Process(nil, pkt, port, 0)
				if !sameOutputs(got, want) {
					t.Fatalf("sw %d tag %d pkt %v port %d:\nflat-merged %v\nper-config %v", sw, tag, pkt, port, got, want)
				}
			}
		}
		for ci := range old.Configs {
			check(uint32(ci), refOf(old, ci, sw))
		}
		for ci := range new_.Configs {
			check(uint32(off+ci), refOf(new_, ci, sw))
		}
	}
}

// TestEngineFlatDeliveryHeaders pins the egress conversion end-to-end:
// for a seeded workload, the engine's delivered headers (flat vals +
// inert carrier materialized at the accessor) carry inert fields through
// unchanged, identically at 1 and 2 workers.
func TestEngineFlatDeliveryHeaders(t *testing.T) {
	for _, a := range []apps.App{apps.Firewall(), apps.BandwidthCap(10), apps.WalledGarden()} {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			batches := loadBatches(t, a, 2, 40)
			// Tag every injection with an inert marker to prove carriage.
			for _, b := range batches {
				for i := range b {
					b[i].Fields["trace_marker"] = 1000 + i
				}
			}
			one := runEngine(t, a, dataplane.Options{Workers: 1}, batches)
			two := runEngine(t, a, dataplane.Options{Workers: 2}, batches)
			if len(one) == 0 {
				t.Fatal("workload delivered nothing; test is vacuous")
			}
			if !sameDeliveries(one, two) {
				t.Fatalf("deliveries differ between worker counts: %d vs %d", len(one), len(two))
			}
			for _, d := range one {
				if _, ok := d.Fields["trace_marker"]; !ok {
					t.Fatalf("delivery to %s lost its inert field: %v", d.Host, d.Fields)
				}
			}
		})
	}
}

// TestInjectRejectsOutOfDomainValues: flat values are int32; rather than
// silently truncating (which would diverge from the reference and
// netkat.Eval semantics), Inject rejects schema-field values outside the
// domain.
func TestInjectRejectsOutOfDomainValues(t *testing.T) {
	a := apps.Firewall()
	n := buildNES(t, a)
	e := dataplane.NewEngine(n, a.Topo, dataplane.Options{})
	if err := e.Inject("H1", netkat.Packet{"dst": 1 << 40}); err == nil {
		t.Fatal("Inject accepted a header value outside the int32 flat-value domain")
	}
	if err := e.Inject("H1", netkat.Packet{"dst": apps.H(4), "src": apps.H(1)}); err != nil {
		t.Fatalf("in-domain injection rejected: %v", err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// compilePolicy compiles a state-free policy from scratch: the one-state
// program it is the projection of.
func compilePolicy(p netkat.Policy, t *topo.Topology) (flowtable.Tables, error) {
	pc, err := nkc.NewProgramCompiler(stateful.Lift(p), t, nil)
	if err != nil {
		return nil, err
	}
	return pc.Compile(nil)
}
