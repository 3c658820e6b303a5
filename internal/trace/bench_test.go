package trace

import (
	"testing"

	"eventnet/internal/netkat"
)

// benchTrace builds a synthetic 200-point network trace of sequential
// firewall-style journeys.
func benchTrace() (*NetTrace, map[netkat.Location]bool) {
	hosts := map[netkat.Location]bool{loc(101, 0): true, loc(104, 0): true}
	nt := &NetTrace{}
	p := netkat.Packet{"dst": 104}
	for i := 0; i < 25; i++ {
		a := nt.Append(dp(p, loc(101, 0), true), -1)
		b := nt.Append(dp(p, loc(1, 2), false), a)
		c := nt.Append(dp(p, loc(1, 1), true), b)
		d := nt.Append(dp(p, loc(4, 1), false), c)
		e := nt.Append(dp(p, loc(4, 2), true), d)
		nt.Append(dp(p, loc(104, 0), false), e)
	}
	return nt, hosts
}

func BenchmarkHappensBefore(b *testing.B) {
	nt, _ := benchTrace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		HappensBefore(nt)
	}
}

func BenchmarkValidate(b *testing.B) {
	nt, hosts := benchTrace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := nt.Validate(hosts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckUpdate(b *testing.B) {
	nt, hosts := benchTrace()
	u, _, _ := firewallish()
	// All journeys are outgoing; the first one triggers the event.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := CheckUpdate(nt, u, nil, hosts); err != nil {
			b.Fatal(err)
		}
	}
}
