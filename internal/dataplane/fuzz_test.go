package dataplane_test

import (
	"slices"
	"strings"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/dataplane"
	"eventnet/internal/flowtable"
	"eventnet/internal/nes"
	"eventnet/internal/netkat"
	"eventnet/internal/runtime"
)

// fuzzFields are the header fields a fuzzed table may test or write; "z"
// only ever appears on probe packets, so it is inert under every schema.
var fuzzFields = [3]string{"a", "b", "c"}

// fuzzTable decodes a small hand-shaped (IR-less) table and its probes
// from fuzz bytes. Byte 0 picks 1-6 rules; each rule is 8 bytes:
//
//	0 priority      %3, so equal priorities are common
//	1 in-port       %5: 0-3 a "pt" equality, 4 bits 3-6 as "pt" exclusions
//	2 guard         %4: none, mask 1, mask 3, mask 2; value in bits 2-3
//	3 equalities    2 bits per field: 0 none, 1-3 the value 0-2
//	4 exclusions    2 bits per field: 0 none, 1 {0}, 2 {1}, 3 {2,0}
//	5 groups        %3 of them (0 = drop); out-ports in bits 2-3, 4-5
//	6,7 group sets  per group: field in bits 0-1 (0 none), value in bits 2-3
//
// and every following byte pair is a probe: 2 bits per field (0 absent,
// 1-3 the value 0-2), bit 6 adds the inert field; then in-port %5 and the
// tag in bits 3-4. Missing bytes read as zero.
func fuzzTable(data []byte) (*flowtable.Table, []dataplane.Probe) {
	at := 0
	next := func() int {
		if at >= len(data) {
			return 0
		}
		at++
		return int(data[at-1])
	}
	var rules []flowtable.Rule
	for n := 1 + next()%6; n > 0; n-- {
		prio, port, guard, eq, neq, groups := next()%3, next(), next(), next(), next(), next()
		sets := [2]int{next(), next()}
		c := netkat.NewConj()
		if port%5 < 4 {
			c.AddEq(netkat.FieldPt, port%5)
		}
		for p := 0; p < 4 && port%5 == 4; p++ {
			if port>>(3+p)&1 == 1 {
				c.AddNeq(netkat.FieldPt, p)
			}
		}
		// A contradicted literal makes the rule match nothing, and a rule
		// that matches nothing is the same table as no rule.
		sat := true
		for i, f := range fuzzFields {
			if v := eq >> (2 * i) & 3; v != 0 {
				sat = sat && c.AddEq(f, v-1)
			}
			if v := neq >> (2 * i) & 3; v != 0 {
				for _, x := range [][]int{nil, {0}, {1}, {2, 0}}[v] {
					sat = sat && c.AddNeq(f, x)
				}
			}
		}
		if !sat {
			continue
		}
		m := flowtable.Match{Cond: c, Guard: flowtable.VersionGuard{Value: uint32(guard >> 2 & 3), Mask: [4]uint32{0, 1, 3, 2}[guard%4]}}
		r := flowtable.Rule{Priority: prio, Match: m}
		for g := 0; g < groups%3; g++ {
			ag := flowtable.ActionGroup{Sets: map[string]int{}, OutPort: groups >> (2 + 2*g) & 3}
			if f := sets[g] & 3; f != 0 {
				ag.Sets[fuzzFields[f-1]] = sets[g] >> 2 & 3
			}
			r.Groups = append(r.Groups, ag)
		}
		rules = append(rules, r)
	}
	t := &flowtable.Table{}
	t.AddAll(rules)

	var probes []dataplane.Probe
	for at < len(data) && len(probes) < 64 {
		fields, where := next(), next()
		pkt := netkat.Packet{}
		for i, f := range fuzzFields {
			if v := fields >> (2 * i) & 3; v != 0 {
				pkt[f] = v - 1
			}
		}
		if fields>>6&1 == 1 {
			pkt["z"] = 7
		}
		probes = append(probes, dataplane.Probe{Fields: pkt, InPort: where % 5, Tag: uint32(where >> 3 & 3)})
	}
	return t, probes
}

// FuzzFlatIndex fuzzes the one index there is: any table — exact and
// wildcard in-ports with excluded ports, exclusion literals, rules that
// lack their cell's key field, several guard masks, equal priorities —
// lowered from derived IR and indexed, must forward every probe (absent
// and inert fields included) exactly as flowtable.Table's linear scan
// does. The seed corpus (testdata/fuzz/FuzzFlatIndex) holds one table
// per shape.
func FuzzFlatIndex(f *testing.F) {
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, probes := fuzzTable(data)
		flat := dataplane.CompileFlat(tbl, dataplane.SchemaForTables(flowtable.Tables{0: tbl}))
		if flat.Len() != tbl.Len() {
			t.Fatalf("compiled %d rules of %d", flat.Len(), tbl.Len())
		}
		for _, p := range probes {
			got := flat.Process(nil, p.Fields, p.InPort, p.Tag)
			want := tbl.AppendProcess(nil, p.Fields, p.InPort, p.Tag)
			if !sameOutputs(got, want) {
				t.Fatalf("pkt %v port %d tag %d:\nflat %v\nscan %v\ntable:\n%v", p.Fields, p.InPort, p.Tag, got, want, flowtable.Tables{0: tbl})
			}
		}
	})
}

// Vocabulary of FuzzIngressEquivalence: hosts the topologies have and
// one they lack; field names in some schema, in none, empty, and longer
// than a wire decoder would accept.
var (
	ingressHosts = [5]string{"H1", "H2", "H3", "H4", "H9"}
	ingressNames = [6]string{"dst", "src", "id", "sig", "", strings.Repeat("n", 70)}
)

// fuzzIngress decodes batches of injections from fuzz bytes, at most 32
// packets in all. Each packet is a head byte — host in bits 0-2 (%5),
// field count in bits 3-4, bit 7 ends the batch after it — and a byte
// per field: name in bits 0-2 (%6), and in bits 3-4 the kind of value,
// with bits 5-7 choosing among a host address (so packets route), a
// small negative, 1<<31 and -(1<<31)-1. Missing bytes read as zero.
func fuzzIngress(data []byte) [][]dataplane.Injection {
	at := 0
	next := func() int {
		if at >= len(data) {
			return 0
		}
		at++
		return int(data[at-1])
	}
	var batches [][]dataplane.Injection
	var batch []dataplane.Injection
	for n := 0; at < len(data) && n < 32; n++ {
		head := next()
		fields := netkat.Packet{}
		for k := head >> 3 & 3; k > 0; k-- {
			b := next()
			fields[ingressNames[b&7%6]] = [4]int{apps.H(1 + b>>5%4), -1 - b>>5, 1 << 31, -(1 << 31) - 1}[b>>3&3]
		}
		batch = append(batch, dataplane.Injection{Host: ingressHosts[head&7%5], Fields: fields})
		if head>>7 == 1 {
			batches, batch = append(batches, batch), nil
		}
	}
	if batch != nil {
		batches = append(batches, batch)
	}
	return batches
}

// FuzzIngressEquivalence: the map-form ways in agree. Any batches —
// unknown hosts, out-of-domain values in any field and any number of
// them, empty and oversized names, empty packets — admitted by
// one-packet InjectBatch calls, by InjectBatch, and by InjectAsyncBatch on a
// non-serving engine, reject the same packets, stamp the rest alike, and
// deliver the same sequence in the same number of hops. Those three
// share Batch.fill and admit, so a fourth leg holds them against code
// that shares neither: an engine given one packet and one Run at
// a time delivers what the Figure 7 machine (internal/runtime, which
// forwards map-form packets by flowtable's scan) delivers from the
// packets that engine admitted, each run to quiescence. Byte 0 picks the
// program. The seed corpus (testdata/fuzz/FuzzIngressEquivalence) holds
// the four shapes of rejected packet TestRejectedPacketLeavesNothing
// replays.
func FuzzIngressEquivalence(f *testing.F) {
	progs := []apps.App{apps.DistributedFirewall(), apps.WalledGarden()}
	nets := []*nes.NES{buildNES(f, progs[0]), buildNES(f, progs[1])}
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		a, n := progs[data[0]%2], nets[data[0]%2]
		var es [3]*dataplane.Engine
		for i := range es {
			es[i] = dataplane.NewEngine(n, a.Topo, dataplane.Options{Workers: 1})
		}
		one := dataplane.NewEngine(n, a.Topo, dataplane.Options{Workers: 1})
		m := runtime.New(n, a.Topo, 1, false)
		for bi, batch := range fuzzIngress(data[1:]) {
			seqStamps, seqErrs := make([]dataplane.Stamp, len(batch)), make([]error, len(batch))
			for i, in := range batch {
				seqStamps[i], seqErrs[i] = injectOne(es[0], in)
			}
			stamps, errs := es[1].InjectBatch(batch)
			flatErrs := es[2].InjectAsyncBatch(batch)
			for i := range batch {
				bad := seqErrs[i] != nil
				if bad != (errs != nil && errs[i] != nil) || bad != (flatErrs != nil && flatErrs[i] != nil) {
					t.Fatalf("batch %d packet %d (%v): one at a time %v, InjectBatch %v, flat %v", bi, i, batch[i], seqErrs[i], errs, flatErrs)
				}
				if stamps[i] != seqStamps[i] || (bad && stamps[i] != dataplane.Stamp{}) {
					t.Fatalf("batch %d packet %d (%v): stamped %+v sequentially, %+v in the batch, error %v", bi, i, batch[i], seqStamps[i], stamps[i], seqErrs[i])
				}
				if _, err := injectOne(one, batch[i]); (err != nil) != bad {
					t.Fatalf("batch %d packet %d (%v): %v alone, %v in sequence", bi, i, batch[i], err, seqErrs[i])
				} else if err == nil {
					if err := one.Run(); err != nil {
						t.Fatal(err)
					}
					if err := m.Inject(batch[i].Host, batch[i].Fields); err != nil {
						t.Fatalf("batch %d packet %d (%v): the engine admitted it, the machine says %v", bi, i, batch[i], err)
					}
					if err := m.RunToQuiescence(); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, e := range es {
				if err := e.Run(); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := es[0].Deliveries()
		for i, e := range es[1:] {
			if at := sameStamped(want, e.Deliveries()); at != -1 {
				t.Fatalf("way %d delivers differently from sequential injection at %d", i+1, at)
			}
			if e.Processed() != es[0].Processed() {
				t.Fatalf("way %d took %d hops, sequential injection %d", i+1, e.Processed(), es[0].Processed())
			}
		}
		var machine []dataplane.Delivery
		for _, d := range m.Deliveries {
			machine = append(machine, dataplane.Delivery{Host: d.Host, Fields: d.Fields})
		}
		if got, ref := deliveryKeys(one.Deliveries()), deliveryKeys(machine); !slices.Equal(got, ref) {
			t.Fatalf("one packet at a time, the engine delivered\n%v\nand the machine\n%v", got, ref)
		}
	})
}
