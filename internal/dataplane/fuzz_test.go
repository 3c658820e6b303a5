package dataplane_test

import (
	"testing"

	"eventnet/internal/dataplane"
	"eventnet/internal/flowtable"
	"eventnet/internal/netkat"
)

// fuzzFields are the header fields a fuzzed table may test or write; "z"
// only ever appears on probe packets, so it is inert under every schema.
var fuzzFields = [3]string{"a", "b", "c"}

// fuzzTable decodes a small hand-shaped (IR-less) table and its probes
// from fuzz bytes. Byte 0 picks 1-6 rules; each rule is 8 bytes:
//
//	0 priority      %3, so equal priorities are common
//	1 in-port       %5: 0-3 exact, 4 wildcard with bits 3-6 as ExcludePorts
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
		m := flowtable.Match{InPort: port % 5, Fields: map[string]int{}, Excludes: map[string][]int{}}
		if m.InPort == 4 {
			m.InPort = flowtable.Wildcard
			for p := 0; p < 4; p++ {
				if port>>(3+p)&1 == 1 {
					m.ExcludePorts = append(m.ExcludePorts, p)
				}
			}
		}
		m.Guard = flowtable.VersionGuard{Value: uint32(guard >> 2 & 3), Mask: [4]uint32{0, 1, 3, 2}[guard%4]}
		for i, f := range fuzzFields {
			if v := eq >> (2 * i) & 3; v != 0 {
				m.Fields[f] = v - 1
			}
			if v := neq >> (2 * i) & 3; v != 0 {
				m.Excludes[f] = [][]int{nil, {0}, {1}, {2, 0}}[v]
			}
		}
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
