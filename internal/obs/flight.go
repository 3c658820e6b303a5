package obs

import (
	"slices"
	"sync"
)

// Flight recorder: one bounded ring of full-fidelity recent history —
// every delivery with its stamp, every detection, every swap phase, and
// the chunk-boundary stats deltas — always on, overwritten circularly so
// the moments *before* an anomaly are recoverable after the fact (a
// wedged swap, a chaos violation, a SIGQUIT).
//
// The hop loop writes nothing here. The engine already logs every
// delivery and detection in its workers' own logs, and feeds the records
// logged since its last feed into the ring from serial contexts:
// boundaries, dumps and the delivery merge. The controller's stage phase
// writes from the Swap caller's goroutine, so one mutex guards the ring.
//
// Dump sorts the ring into the canonical (Gen, Seq, Kind, Branch) order —
// the same total order the delivery merge and the tracer use — and
// normalizes overflow to a *generation cutoff*: the largest generation
// among the evicted records. Every record of a newer generation that was
// ever written is still in the ring, whatever order the records arrived
// in, so the dump after the cutoff is a complete, execution-deterministic
// suffix of history. Records carry no wall-clock stamps, so equal
// executions that evict nothing dump bit-identically at any worker
// count (TestEngineFlightDeterminism).

// FlightKind classifies one flight record. The numeric order is the
// canonical-sort tiebreak at equal (Gen, Seq): a detection sorts before
// the delivery the same consumed packet produced, and serial records
// (swap, stats) sort after the generation's packet records.
type FlightKind uint8

const (
	FlightDetect FlightKind = iota
	FlightDeliver
	FlightSwap
	FlightStats
)

var flightKindNames = [...]string{
	FlightDetect:  "detect",
	FlightDeliver: "deliver",
	FlightSwap:    "swap",
	FlightStats:   "stats",
}

// String returns the record kind's wire name.
func (k FlightKind) String() string {
	if int(k) < len(flightKindNames) {
		return flightKindNames[k]
	}
	return "unknown"
}

// FlightRec is one flat flight record, copied without allocating (the
// only pointers are string headers and the Stats pointer, set only by
// serial-context records), so the engine's workers log detections in
// this form on the hop loop. It deliberately carries no timestamp:
// flight dumps must be bit-identical across equal executions, and
// wall-clock stamps are the one field that never is.
type FlightRec struct {
	Kind    FlightKind
	Switch  int32
	Branch  int32
	From    int32 // FlightSwap: old epoch
	To      int32 // FlightSwap: new epoch
	Epoch   int32
	Version int32
	Gen     int64
	Seq     int64
	Host    string      // FlightDeliver: destination host
	Phase   string      // FlightSwap: stage|flip|drain|retire
	Bits    string      // FlightDetect: the raw nes.Set bitset
	Stats   *StatsDelta // FlightStats only (serial context)
}

// DefaultFlightCap is the per-worker record capacity default.
const DefaultFlightCap = 4096

// Flight is the recorder: one circular ring that overwrites its *oldest*
// records, because its job is to retain the most recent history at the
// moment someone asks for it. Every method is safe from any goroutine.
type Flight struct {
	cap int // per-worker capacity; the ring holds cap × (workers+1)

	mu      sync.Mutex
	recs    []FlightRec
	n       uint64 // total records ever written
	evicted int64  // records overwritten
	// cutGen is the largest generation among the overwritten records,
	// the truncation watermark: every record with Gen > cutGen that was
	// ever written is still in the ring, in whatever order it came.
	cutGen    int64
	serialSeq int32 // deterministic Branch tiebreak for serial records
	serialGen int64 // newest generation of a serial record
}

// NewFlight builds a recorder holding capPerRing (<=0 uses
// DefaultFlightCap) records for each of `workers` engine workers plus
// one more share for serial records.
func NewFlight(capPerRing, workers int) *Flight {
	if capPerRing <= 0 {
		capPerRing = DefaultFlightCap
	}
	return &Flight{cap: capPerRing, recs: make([]FlightRec, capPerRing*(max(workers, 0)+1))}
}

// Add appends a record, overwriting the oldest once the ring is full. It
// never allocates.
func (f *Flight) Add(r FlightRec) {
	f.mu.Lock()
	f.add(r)
	f.mu.Unlock()
}

func (f *Flight) add(r FlightRec) {
	i := int(f.n % uint64(len(f.recs)))
	if f.n >= uint64(len(f.recs)) {
		f.evicted++
		f.cutGen = max(f.cutGen, f.recs[i].Gen)
	}
	f.recs[i] = r
	f.n++
}

// Evicted returns the total records overwritten.
func (f *Flight) Evicted() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.evicted
}

// Serial records from a serial context: engine boundaries (flips,
// retires, stats deltas) and the controller's stage phase. The record's
// Branch is overwritten with a monotone counter, giving simultaneous
// serial records a deterministic canonical-sort tiebreak. A negative
// Gen (a writer with no engine generation in hand, like the
// controller's stage phase) is backfilled with the newest generation
// of a serial record so far.
func (f *Flight) Serial(r FlightRec) {
	f.mu.Lock()
	f.serialSeq++
	r.Branch = f.serialSeq
	if r.Gen < 0 {
		r.Gen = f.serialGen
	} else if r.Gen > f.serialGen {
		f.serialGen = r.Gen
	}
	f.add(r)
	f.mu.Unlock()
}

// FlightWireRec is one flight record in dump (wire) form.
type FlightWireRec struct {
	Kind    string      `json:"kind"`
	Gen     int64       `json:"gen"`
	Seq     int64       `json:"seq"`
	Branch  int32       `json:"branch"`
	Switch  int32       `json:"switch,omitempty"`
	Epoch   int32       `json:"epoch"`
	Version int32       `json:"version,omitempty"`
	Host    string      `json:"host,omitempty"`
	Events  []int       `json:"events,omitempty"`
	Phase   string      `json:"phase,omitempty"`
	From    int32       `json:"from,omitempty"`
	To      int32       `json:"to,omitempty"`
	Stats   *StatsDelta `json:"stats,omitempty"`
}

// FlightDump is the sorted recorder state. When the ring overflowed,
// Truncated is set, TruncatedGen is the cutoff generation, and Records
// holds only the complete suffix with Gen > TruncatedGen; Evicted
// counts every record lost to overwriting or the cutoff filter. RingCap
// is the per-worker capacity.
type FlightDump struct {
	RingCap      int             `json:"ring_cap"`
	Records      []FlightWireRec `json:"records"`
	Truncated    bool            `json:"truncated,omitempty"`
	TruncatedGen int64           `json:"truncated_gen,omitempty"`
	Evicted      int64           `json:"evicted,omitempty"`
}

// Dump returns the ring in canonical order. The recorder is not
// consumed: dumping is repeatable and never clears the ring.
func (f *Flight) Dump() *FlightDump {
	f.mu.Lock()
	recs := slices.Clone(f.recs[:min(f.n, uint64(len(f.recs)))])
	evicted, cutGen := f.evicted, f.cutGen
	f.mu.Unlock()

	d := &FlightDump{RingCap: f.cap}
	if evicted > 0 {
		// Apply the generation cutoff: records at or below it are a
		// ragged remainder of their generations, so they are discarded
		// (and counted) and the dump is a deterministic suffix.
		kept := recs[:0]
		for _, r := range recs {
			if r.Gen > cutGen {
				kept = append(kept, r)
			} else {
				evicted++
			}
		}
		recs = kept
		d.Truncated, d.TruncatedGen, d.Evicted = true, cutGen, evicted
	}
	slices.SortFunc(recs, func(a, b FlightRec) int {
		if a.Gen != b.Gen {
			return int(a.Gen - b.Gen)
		}
		if a.Seq != b.Seq {
			return int(a.Seq - b.Seq)
		}
		if a.Kind != b.Kind {
			return int(a.Kind) - int(b.Kind)
		}
		return int(a.Branch - b.Branch)
	})
	d.Records = make([]FlightWireRec, len(recs))
	for i := range recs {
		r := &recs[i]
		d.Records[i] = FlightWireRec{
			Kind: r.Kind.String(), Gen: r.Gen, Seq: r.Seq, Branch: r.Branch,
			Switch: r.Switch, Epoch: r.Epoch, Version: r.Version,
			Host: r.Host, Events: bitsetElems(r.Bits), Phase: r.Phase,
			From: r.From, To: r.To, Stats: r.Stats,
		}
	}
	return d
}

// bitsetElems decodes a little-endian bitset (the nes.Set encoding: 8
// events per byte) into ascending event IDs. Kept local so obs stays
// dependency-free; the encoding is pinned by internal/nes.
func bitsetElems(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for i := 0; i < len(s); i++ {
		b := s[i]
		for j := 0; j < 8; j++ {
			if b&(1<<uint(j)) != 0 {
				out = append(out, i*8+j)
			}
		}
	}
	return out
}
