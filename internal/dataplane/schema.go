package dataplane

import (
	"fmt"
	"math/bits"
	"sort"

	"eventnet/internal/flowtable"
	"eventnet/internal/nes"
	"eventnet/internal/netkat"
)

// maxSchemaFields caps a schema at the width of the flat packet's
// presence bitmap. A program's header universe is derived from its rules
// and event guards — a handful of fields in every workload this system
// compiles — so the cap is a sanity bound in the spirit of nes.MaxEvents,
// not a practical limit.
const maxSchemaFields = 64

// Schema is a compiled program's header schema: every field name the
// program can test or write, interned to a small dense integer. It is
// built once per Plan (from the NES's flow tables and event guards) and
// shared by every matcher of that plan, so a packet interned at ingress
// stays valid at every switch and configuration of its program.
//
// Fields outside the schema are *inert*: no rule tests or writes them, so
// they cannot influence forwarding and pass through a journey unchanged.
// The flat representation therefore carries only schema fields; inert
// fields ride along as a share of an immutable inertSet and are folded
// back in at delivery (see materialize).
//
// Schemas are immutable after construction and safe for concurrent use.
type Schema struct {
	fields []string // index -> name, sorted for determinism
}

// slot returns the interned index of a field name, or -1 when the
// program cannot see the field. It is the one resolver intern, admit and
// Index share. It scans: a shipped program's schema is one to three
// fields wide, and admit resolves each name once per batch, lowering
// once per literal, so comparing a few short strings beats hashing.
func (s *Schema) slot(f string) int {
	for i, name := range s.fields {
		if name == f {
			return i
		}
	}
	return -1
}

// ErrFieldLimit is what CheckFields' error wraps.
var ErrFieldLimit = fmt.Errorf("the flat packet representation caps at %d", maxSchemaFields)

// CheckFields reports field names — ProgramFields of one program, or of
// the two a staged swap installs side by side — that outnumber what a
// schema holds. NewSchema's panic is the assertion behind it.
func CheckFields(names []string) error {
	uniq := map[string]bool{}
	for _, f := range names {
		uniq[f] = true
	}
	if len(uniq) > maxSchemaFields {
		return fmt.Errorf("program uses %d header fields; %w", len(uniq), ErrFieldLimit)
	}
	return nil
}

// NewSchema interns the given field names (deduplicated, sorted). It
// panics beyond maxSchemaFields; see the constant.
func NewSchema(names []string) *Schema {
	uniq := map[string]bool{}
	for _, f := range names {
		uniq[f] = true
	}
	s := &Schema{}
	for f := range uniq {
		s.fields = append(s.fields, f)
	}
	sort.Strings(s.fields)
	if len(s.fields) > maxSchemaFields {
		panic(fmt.Sprintf("dataplane: program uses %d header fields; %v", len(s.fields), ErrFieldLimit))
	}
	return s
}

// SchemaFor builds the schema of one compiled program: the union of every
// field its flow tables match, exclude, or set, plus every packet field
// its event guards test ("sw" and "pt" are location pseudo-fields,
// resolved statically against each event's location — see compileEvents —
// and never interned).
func SchemaFor(n *nes.NES) *Schema {
	return NewSchema(ProgramFields(n))
}

// ProgramFields collects the field names of one program (with possible
// duplicates; NewSchema dedups), reading each distinct table and guard once.
func ProgramFields(n *nes.NES) []string {
	var out []string
	seen := map[*flowtable.Table]bool{}
	for ci := range n.Configs {
		for _, t := range n.Configs[ci].Tables {
			if !seen[t] {
				seen[t] = true
				out = appendTableFields(out, t)
			}
		}
	}
	prev := ""
	for _, ev := range n.Events {
		if ev.Label != "" && ev.Label == prev {
			continue // the occurrences of one event: one label, one guard
		}
		prev = ev.Label
		out = appendCondFields(out, ev.Guard)
	}
	return out
}

// appendCondFields appends the packet fields a conjunction tests: every
// field but the location pseudo-fields "sw" and "pt".
func appendCondFields(out []string, c *netkat.Conj) []string {
	for _, l := range c.Lits() {
		if l.F != netkat.FieldSw && l.F != netkat.FieldPt {
			out = append(out, l.F)
		}
	}
	return out
}

func appendTableFields(out []string, t *flowtable.Table) []string {
	for ri := range t.Rules {
		r := &t.Rules[ri]
		out = appendCondFields(out, r.Match.Cond)
		for _, g := range r.Groups {
			for f := range g.Sets {
				out = append(out, f)
			}
		}
	}
	return out
}

// Len returns the number of interned fields — the width of every flat
// value array of this schema.
func (s *Schema) Len() int { return len(s.fields) }

// Index returns the interned index of a field name.
func (s *Schema) Index(f string) (int, bool) {
	i := s.slot(f)
	return i, i >= 0
}

// fieldPair is one header field in flat form: the id of its name in
// some table (an inertSet's, or a Batch's) and its value.
type fieldPair struct {
	id  int32
	val int32
}

// inertSet holds the inert fields — those outside the program's schema —
// of the packets that entered the engine together (one admitted Batch):
// every packet's pairs in one pointer-free array, their names in a table
// of the set's own. No rule can test or write an inert field, so a set
// is immutable once its packets are queued. It is owned by the garbage
// collector: an ingress set lives while packets of its batch are in
// flight or wait in a worker's delivery log, and the sets the merged log
// copies their pairs into (rehomeInert) until the deliveries they serve
// are trimmed.
type inertSet struct {
	names []string // pair id -> field name
	pairs []fieldPair
}

// inertRef is one packet's share of its inert set, pairs[lo:hi]; the
// zero value carries nothing. Every copy of a journey shares it, and it
// is read again only where a Delivery is materialized.
type inertRef struct {
	set    *inertSet
	lo, hi int32
}

// nameID returns the id of a field name in the set's table, adding it
// on first sight (a linear scan: a set has a handful of names).
func (is *inertSet) nameID(f string) int32 {
	for i, n := range is.names {
		if n == f {
			return int32(i)
		}
	}
	is.names = append(is.names, f)
	return int32(len(is.names) - 1)
}

// len returns the number of pairs in the set (nil: none).
func (is *inertSet) len() int {
	if is == nil {
		return 0
	}
	return len(is.pairs)
}

// since returns the share of a packet whose pairs were appended from
// index lo on.
func (is *inertSet) since(lo int) inertRef {
	if is.len() == lo {
		return inertRef{}
	}
	return inertRef{set: is, lo: int32(lo), hi: int32(len(is.pairs))}
}

// intern is the map-form walk FlatMatcher.Process gives each packet:
// every value is checked against the int32 flat-value domain, schema
// fields are loaded into vals (bit i of the returned presence bitmap set
// ⇔ field i present; other slots are left as-is, since matching and
// materialization read values only under their bit), and the fields
// outside the schema go into an inert set of their own.
//
// Flat values are int32: header values in this system are host
// addresses, ports and small program constants. The boundaries enforce
// the domain — here, in Batch.fill and the wire decoders for everything
// the engine admits, and lowerValue panics on out-of-range rule
// constants at compile time — so interning can never silently truncate
// and diverge from the reference semantics.
func (s *Schema) intern(fields netkat.Packet, vals []int32) (uint64, *inertSet, error) {
	pres := uint64(0)
	var inert *inertSet
	for f, v := range fields {
		if int(int32(v)) != v {
			return 0, nil, domainErr(f, v)
		}
		if i := s.slot(f); i >= 0 {
			vals[i] = int32(v)
			pres |= 1 << uint(i)
			continue
		}
		if inert == nil {
			inert = &inertSet{pairs: make([]fieldPair, 0, len(fields))}
		}
		inert.pairs = append(inert.pairs, fieldPair{id: inert.nameID(f), val: int32(v)})
	}
	return pres, inert, nil
}

// domainErr is the rejection of a header value no flat packet can carry.
func domainErr(f string, v int) error {
	return fmt.Errorf("dataplane: header field %q value %d outside the int32 flat-value domain", f, v)
}

// materialize rebuilds the full header map of a flat packet: its inert
// fields plus the current value of every present schema field. This is
// the single egress-boundary conversion — the only place the hot path
// ever builds a header map.
func (s *Schema) materialize(inert inertRef, vals []int32, pres uint64) netkat.Packet {
	out := make(netkat.Packet, int(inert.hi-inert.lo)+bits.OnesCount64(pres))
	if inert.set != nil {
		for _, p := range inert.set.pairs[inert.lo:inert.hi] {
			out[inert.set.names[p.id]] = int(p.val)
		}
	}
	for p := pres; p != 0; p &= p - 1 {
		i := bits.TrailingZeros64(p)
		out[s.fields[i]] = int(vals[i])
	}
	return out
}
