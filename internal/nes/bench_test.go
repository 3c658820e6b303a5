package nes

import (
	"testing"

	"eventnet/internal/netkat"
)

func benchNES(b *testing.B) *NES {
	b.Helper()
	var events []Event
	family := map[Set]int{Empty: 0}
	configs := []Config{{ID: 0}}
	s := Empty
	for i := 0; i < 11; i++ {
		events = append(events, mkEventB(i))
		s = s.With(i)
		family[s] = i + 1
		configs = append(configs, Config{ID: i + 1})
	}
	n, err := New(events, family, configs)
	if err != nil {
		b.Fatal(err)
	}
	return n
}

func mkEventB(id int) Event {
	return Event{ID: id, Guard: guard("dst", 104), Loc: netkat.Location{Switch: 4, Port: 1}, Occurrence: id + 1}
}

func BenchmarkCon(b *testing.B) {
	n := benchNES(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.Con(FromMask(0b1111))
	}
}

func BenchmarkEnables(b *testing.B) {
	n := benchNES(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.Enables(FromMask(0b1111), 4)
	}
}

func BenchmarkAllowedSequences(b *testing.B) {
	n := benchNES(b)
	for i := 0; i < b.N; i++ {
		if _, err := n.AllowedSequences(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNonLocal(b *testing.B) {
	n := benchNES(b)
	for i := 0; i < b.N; i++ {
		if nl := n.NonLocal(); nl != nil {
			b.Fatal(nl)
		}
	}
}
