package obs

import (
	"encoding/json"
	"slices"
	"testing"
)

// TestFlightShardOverflow: the ring keeps the most recent records,
// counts evictions, and tracks the largest evicted generation (the
// truncation watermark).
func TestFlightShardOverflow(t *testing.T) {
	f := NewFlight(4, 0)
	for g := int64(1); g <= 10; g++ {
		f.Add(FlightRec{Kind: FlightDeliver, Gen: g, Seq: g})
	}
	if f.Evicted() != 6 || f.cutGen != 6 {
		t.Errorf("evicted = %d, cutGen = %d; want 6 and 6", f.Evicted(), f.cutGen)
	}
	d := f.Dump()
	if !d.Truncated || d.TruncatedGen != 6 {
		t.Fatalf("dump truncation = (%v, gen %d), want (true, gen 6)", d.Truncated, d.TruncatedGen)
	}
	if len(d.Records) != 4 {
		t.Fatalf("dump has %d records, want the 4 surviving (gens 7-10)", len(d.Records))
	}
	for i, r := range d.Records {
		if want := int64(7 + i); r.Gen != want {
			t.Errorf("record %d: gen %d, want %d", i, r.Gen, want)
		}
	}
	if d.Evicted != 6 {
		t.Errorf("dump Evicted = %d, want 6", d.Evicted)
	}
}

// TestFlightDumpCutoffByValue: records reach the ring out of generation
// order (the engine feeds one worker's log after another), so the cutoff
// is the largest evicted generation, not the last one. Here the gen-5
// record is evicted before the gen-2 one; a watermark of 2 would pass
// off a dump missing gen 5 as complete. The dump must be exactly the
// records written above the cutoff, and a record written below it
// after the eviction is cut and counted.
func TestFlightDumpCutoffByValue(t *testing.T) {
	f := NewFlight(4, 0)
	written := []int64{5, 2, 6, 7, 8, 3}
	for i, g := range written {
		f.Add(FlightRec{Kind: FlightDeliver, Gen: g, Seq: int64(i)})
	}
	d := f.Dump()
	if !d.Truncated || d.TruncatedGen != 5 {
		t.Fatalf("truncation = (%v, gen %d), want (true, gen 5)", d.Truncated, d.TruncatedGen)
	}
	var want []int64
	for _, g := range written {
		if g > d.TruncatedGen {
			want = append(want, g)
		}
	}
	var got []int64
	for _, r := range d.Records {
		got = append(got, r.Gen)
	}
	if !slices.Equal(got, want) {
		t.Errorf("dump gens = %v, want the complete suffix %v", got, want)
	}
	if d.Evicted != 3 {
		t.Errorf("Evicted = %d, want 3 (2 overwritten + the gen-3 record cut)", d.Evicted)
	}
}

// TestFlightSerial: serial records get a monotone Branch tiebreak, and
// a negative Gen (the controller's stage phase has no engine generation
// in hand) is backfilled with the newest generation seen, keeping ring
// writes nondecreasing in Gen.
func TestFlightSerial(t *testing.T) {
	f := NewFlight(8, 0)
	f.Serial(FlightRec{Kind: FlightSwap, Phase: "flip", Gen: 5})
	f.Serial(FlightRec{Kind: FlightSwap, Phase: "stage", Gen: -1})
	f.Serial(FlightRec{Kind: FlightStats, Gen: 7})
	d := f.Dump()
	if len(d.Records) != 3 {
		t.Fatalf("dump has %d records, want 3", len(d.Records))
	}
	// Canonical order: gen 5 flip, gen 5 stage (backfilled), gen 7 stats.
	if d.Records[0].Phase != "flip" || d.Records[0].Gen != 5 {
		t.Errorf("record 0 = %+v, want the gen-5 flip", d.Records[0])
	}
	if d.Records[1].Phase != "stage" || d.Records[1].Gen != 5 {
		t.Errorf("record 1 = %+v, want the stage backfilled to gen 5", d.Records[1])
	}
	if d.Records[0].Branch >= d.Records[1].Branch {
		t.Errorf("serial Branch not monotone: %d then %d", d.Records[0].Branch, d.Records[1].Branch)
	}
	if d.Records[2].Kind != "stats" || d.Records[2].Gen != 7 {
		t.Errorf("record 2 = %+v, want the gen-7 stats", d.Records[2])
	}
}

// TestFlightDumpRepeatable: dumping does not consume the recorder.
func TestFlightDumpRepeatable(t *testing.T) {
	f := NewFlight(8, 1)
	f.Add(FlightRec{Kind: FlightDetect, Gen: 1, Seq: 1, Bits: "\x05"})
	a, _ := json.Marshal(f.Dump())
	b, _ := json.Marshal(f.Dump())
	if string(a) != string(b) {
		t.Fatalf("repeated dumps differ:\n%s\n%s", a, b)
	}
}

// TestFlightBitsetDecode: detection records decode the raw nes.Set
// bitset into ascending event IDs on the wire.
func TestFlightBitsetDecode(t *testing.T) {
	f := NewFlight(8, 1)
	f.Add(FlightRec{Kind: FlightDetect, Gen: 1, Seq: 1, Bits: "\x05\x01"}) // bits 0,2,8
	d := f.Dump()
	got := d.Records[0].Events
	if len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 8 {
		t.Fatalf("Events = %v, want [0 2 8]", got)
	}
}

// TestFlightShardAddDoesNotAllocate: the engine feeds the ring a record
// per delivery and detection, so Add must be a locked plain store.
func TestFlightShardAddDoesNotAllocate(t *testing.T) {
	f := NewFlight(64, 1)
	r := FlightRec{Kind: FlightDeliver, Gen: 1, Seq: 2, Host: "H1"}
	if n := testing.AllocsPerRun(1000, func() { f.Add(r) }); n != 0 {
		t.Fatalf("Flight.Add allocates %.1f/op, want 0", n)
	}
}

// TestFlightDefaults: capacity defaulting, and a ring holding the
// per-worker capacity once for each worker and once for serial records.
func TestFlightDefaults(t *testing.T) {
	f := NewFlight(0, 3)
	if f.cap != DefaultFlightCap {
		t.Errorf("cap = %d, want DefaultFlightCap", f.cap)
	}
	if got, want := len(f.recs), 4*DefaultFlightCap; got != want {
		t.Errorf("ring holds %d records, want %d", got, want)
	}
	if d := f.Dump(); len(d.Records) != 0 || d.Truncated {
		t.Errorf("fresh recorder dumps %+v, want empty untruncated", d)
	}
}
