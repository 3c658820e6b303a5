package flowtable

import (
	"testing"

	"eventnet/internal/netkat"
)

// benchTable builds an n-rule table shaped like a compiled configuration:
// exact in-port rules discriminating on dst, one wildcard-port rule with an
// exclusion, and a low-priority drop region.
func benchTable(n int) *Table {
	t := &Table{}
	var rs []Rule
	for i := 0; i < n; i++ {
		rs = append(rs, Rule{
			Priority: 10 + i,
			Match:    Match{Cond: cond(eq(netkat.FieldPt, 2), eq("dst", 100+i))},
			Groups:   []ActionGroup{{Sets: map[string]int{"pt": 1}, OutPort: 1}},
		})
	}
	rs = append(rs, Rule{
		Priority: 5,
		Match:    Match{Cond: cond(neq(netkat.FieldPt, 9), neq("dst", 100))},
		Groups:   []ActionGroup{{OutPort: 3}},
	})
	t.AddAll(rs)
	return t
}

// BenchmarkTableScanLookup is the reference number for the linear-scan
// matcher: it guards the satellite requirement that hot-path refactors for
// the indexed dataplane leave the scan itself no slower (compare medians
// across PRs; see docs/BENCHMARKS.md).
func BenchmarkTableScanLookup(b *testing.B) {
	t := benchTable(32)
	pkt := netkat.Packet{"dst": 100, "src": 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := 0
		for r < len(t.Rules) && !t.Rules[r].Match.Matches(pkt, 2, 0) {
			r++
		}
		if r == len(t.Rules) {
			b.Fatal("no match")
		}
	}
}

// BenchmarkTableAppendProcess measures the full scan-and-apply path in its
// buffer-reusing form; the only allocation per op is the clone the
// rewriting action group inherently needs.
func BenchmarkTableAppendProcess(b *testing.B) {
	t := benchTable(32)
	pkt := netkat.Packet{"dst": 116, "src": 7}
	var buf []Output
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = t.AppendProcess(buf[:0], pkt, 2, 0)
		if len(buf) != 1 {
			b.Fatal("unexpected outputs")
		}
	}
}
