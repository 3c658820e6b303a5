package dataplane

import (
	"maps"
	"slices"

	"eventnet/internal/flowtable"
	"eventnet/internal/nes"
	"eventnet/internal/netkat"
)

// This file is the compiled form of a flow table — the only one. Every
// flowtable.Rule of a plan is lowered once, at plan-build time, from its
// Match's conjunction and its Groups maps into integer-indexed
// match/action arrays, and the lowered rules are indexed two ways,
// mirroring how a packet narrows the search:
//
//  1. In-port: rules split into exact-port buckets (a "pt" equality)
//     plus one wildcard bucket (whose "pt" exclusions are verified per
//     rule).
//  2. Discriminating fields: within a bucket, the equality-tested fields
//     shared by all rules (or, failing that, the single most-tested field,
//     ties to the lowest schema index) key a hash of the rules' required
//     values. Rules not constraining every key field form a small
//     rank-ordered fallback list — the decision-tree residue for
//     wildcard/exclusion rules.
//
// The version guard is not an index level: it is checked per candidate,
// with the rule's other literals. A plan's tables are per configuration
// (PlanFor lowers each distinct table once and the configurations holding
// it share it), so their guards are all-pass; a merged table — MergedPair's
// staged install, or one a FlatMatcher embedder builds — finds every
// configuration's copy of a rule in the same hash slot and skips the
// copies whose guard rejects the tag, exactly as the linear scan does.
//
// Lookup runs directly on a flat packet's value array and presence bitmap
// — no map lookups, no string hashing, no per-packet allocation: it folds
// the packet's values of each candidate bucket's key fields (integer FNV
// mixing), then rank-merges the hash hits with the fallback list, fully
// verifying each candidate with flatRule.admits, so indexing can never
// change semantics, only skip rules that provably cannot win.
//
// Lowering is a bijection on rule structure: one flatRule per rule in the
// same priority rank order, one flatGroup per action group in the same
// order, every literal translated through the plan's Schema. Because the
// schema interning is injective (one index per field name) and both the
// rules and the packets are translated through the same schema, a flat
// lookup selects exactly the rank flowtable.Table's linear scan selects —
// property-tested on every reachable state of every application and
// fuzzed on hand-shaped tables (flat_test.go, fuzz_test.go).

// flatConj is a conjunction of packet-field literals lowered against a
// schema: the field tests of a rule's match and of an event's guard.
type flatConj struct {
	eqIdx  []int32 // equality literals: field index ...
	eqVal  []int32 // ... and required value, parallel
	eqMask uint64  // presence bits of every equality field
	neqIdx []int32 // exclusion literals: field index ...
	neqVal []int32 // ... and excluded value, parallel
}

// matches is netkat.Conj.Eval on the flat form: an absent field (presence
// bit clear) fails an equality literal and passes an exclusion literal.
func (c *flatConj) matches(vals []int32, pres uint64) bool {
	if pres&c.eqMask != c.eqMask {
		return false
	}
	for i, fi := range c.eqIdx {
		if vals[fi] != c.eqVal[i] {
			return false
		}
	}
	for i, fi := range c.neqIdx {
		if pres&(1<<uint(fi)) != 0 && vals[fi] == c.neqVal[i] {
			return false
		}
	}
	return true
}

// lowerConj lowers c's packet-field literals, in (field, value) order —
// ascending schema index, as schema indices follow sorted names. The
// "sw" and "pt" literals are left to the caller.
func lowerConj(c *netkat.Conj, s *Schema) flatConj {
	var fc flatConj
	for _, l := range c.Lits() {
		if l.F == netkat.FieldSw || l.F == netkat.FieldPt {
			continue
		}
		i := mustIndex(s, l.F)
		if l.Eq {
			fc.eqIdx = append(fc.eqIdx, i)
			fc.eqVal = append(fc.eqVal, lowerValue(l.V))
			fc.eqMask |= 1 << uint(i)
		} else {
			fc.neqIdx = append(fc.neqIdx, i)
			fc.neqVal = append(fc.neqVal, lowerValue(l.V))
		}
	}
	return fc
}

// flatRule is one rule lowered against a schema.
type flatRule struct {
	guardValue uint32 // pre-masked
	guardMask  uint32
	inPort     int32 // flowtable.Wildcard for the wildcard bucket
	exPorts    []int32
	flatConj
	groups []flatGroup
}

// flatGroup is one action group lowered against a schema: in-place field
// writes plus the presence bits they establish.
type flatGroup struct {
	setIdx  []int32
	setVal  []int32
	setMask uint64
	outPort int32
}

// admits is flowtable.Match.Matches on the flat form.
func (r *flatRule) admits(vals []int32, pres uint64, inPort int, tag uint32) bool {
	if tag&r.guardMask != r.guardValue {
		return false
	}
	if r.inPort != flowtable.Wildcard {
		if int(r.inPort) != inPort {
			return false
		}
	} else {
		for _, p := range r.exPorts {
			if int(p) == inPort {
				return false
			}
		}
	}
	return r.matches(vals, pres)
}

// flatTable is one switch's compiled table: rules in priority rank order
// plus the port/hash index over them.
type flatTable struct {
	rules []flatRule
	exact []flatBucket // one per exact in-port, ascending port
	wild  flatBucket   // InPort == Wildcard rules (empty if none)
}

// flatBucket indexes the rules of one in-port cell.
type flatBucket struct {
	port     int32              // the exact in-port; unused by the wildcard bucket
	keyIdx   []int32            // nil: no index, everything in fallback
	index    map[uint64][]int32 // value hash -> ranks, ascending
	fallback []int32            // ranks, ascending
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashFlat folds the values of the key fields into one hash. The second
// result is false when a key field is absent — in which case no indexed
// rule can match, since every indexed rule tests all key fields for
// equality and an absent field fails an equality match.
func hashFlat(vals []int32, pres uint64, keyIdx []int32) (uint64, bool) {
	h := uint64(fnvOffset64)
	for _, fi := range keyIdx {
		if pres&(1<<uint(fi)) == 0 {
			return 0, false
		}
		h ^= uint64(uint32(vals[fi]))
		h *= fnvPrime64
	}
	return h, true
}

// bestIn scans the bucket's candidates for the packet and returns the
// lowest matching rank below bound, or bound if none beats it. Candidate
// lists are rank-ascending, so each list is scanned only until its first
// full match (or past bound).
func (b *flatBucket) bestIn(rules []flatRule, vals []int32, pres uint64, inPort int, tag uint32, bound int32) int32 {
	if b.keyIdx != nil {
		if h, ok := hashFlat(vals, pres, b.keyIdx); ok {
			for _, r := range b.index[h] {
				if r >= bound {
					break
				}
				if rules[r].admits(vals, pres, inPort, tag) {
					bound = r
					break
				}
			}
		}
	}
	for _, r := range b.fallback {
		if r >= bound {
			break
		}
		if rules[r].admits(vals, pres, inPort, tag) {
			bound = r
			break
		}
	}
	return bound
}

// lookup returns the winning rule's rank, or -1 on default drop: the
// minimum-rank match over the packet's in-port bucket and the wildcard
// bucket.
func (ft *flatTable) lookup(vals []int32, pres uint64, inPort int, tag uint32) int32 {
	best := int32(len(ft.rules))
	for i := range ft.exact { // no app's table has more than four: a scan, not a map
		if int(ft.exact[i].port) == inPort {
			best = ft.exact[i].bestIn(ft.rules, vals, pres, inPort, tag, best)
			break
		}
	}
	best = ft.wild.bestIn(ft.rules, vals, pres, inPort, tag, best)
	if best == int32(len(ft.rules)) {
		return -1
	}
	return best
}

// newFlatTable lowers a table's rules against a schema and indexes them.
// The rules are copied into flat form, so later table mutation does not
// affect the compiled table.
func newFlatTable(t *flowtable.Table, s *Schema) *flatTable {
	ft := &flatTable{rules: make([]flatRule, len(t.Rules))}
	cells := map[int32][]int32{} // in-port -> ranks ascending: rules are walked in order
	for i := range t.Rules {
		ft.rules[i] = lowerRule(&t.Rules[i], s)
		p := ft.rules[i].inPort
		cells[p] = append(cells[p], int32(i))
	}
	for _, p := range slices.Sorted(maps.Keys(cells)) {
		b := newFlatBucket(ft.rules, cells[p])
		if p == flowtable.Wildcard {
			ft.wild = b
		} else {
			b.port = p
			ft.exact = append(ft.exact, b)
		}
	}
	return ft
}

// newFlatBucket picks the cell's discriminating fields and hashes its
// rules by them.
func newFlatBucket(rules []flatRule, ranks []int32) flatBucket {
	var b flatBucket

	// How many of the cell's rules equality-test each schema field.
	var freq [maxSchemaFields]int
	for _, r := range ranks {
		for _, fi := range rules[r].eqIdx {
			freq[fi]++
		}
	}
	best, bestN := int32(-1), 0
	for fi, n := range freq {
		if n == len(ranks) {
			b.keyIdx = append(b.keyIdx, int32(fi)) // shared by every rule
		}
		if n > bestN {
			best, bestN = int32(fi), n
		}
	}
	switch {
	case b.keyIdx != nil:
	case bestN > 0:
		b.keyIdx = []int32{best}
	default:
		// No rule tests any field: pure port/guard/exclusion rules.
		b.fallback = ranks
		return b
	}

	b.index = map[uint64][]int32{}
	var vals [maxSchemaFields]int32
	for _, r := range ranks {
		// A rule's index key is the fold of its required values — the
		// same fold a matching packet's values produce. A rule missing a
		// key field is not indexable and scans from the fallback list.
		fr := &rules[r]
		for i, fi := range fr.eqIdx {
			vals[fi] = fr.eqVal[i]
		}
		if h, ok := hashFlat(vals[:], fr.eqMask, b.keyIdx); ok {
			b.index[h] = append(b.index[h], r)
		} else {
			b.fallback = append(b.fallback, r)
		}
	}
	return b
}

// lowerRule translates one rule to flat form: guard from the Match, the
// "pt" literals of its conjunction into the port fields, the other
// literals by lowerConj, and its action groups.
func lowerRule(r *flowtable.Rule, s *Schema) flatRule {
	m := &r.Match
	fr := flatRule{
		guardValue: m.Guard.Value & m.Guard.Mask,
		guardMask:  m.Guard.Mask,
		inPort:     flowtable.Wildcard,
		flatConj:   lowerConj(m.Cond, s),
	}
	if p, ok := m.Cond.Eq(netkat.FieldPt); ok {
		fr.inPort = int32(p)
	}
	for _, p := range m.Cond.Neq(netkat.FieldPt) {
		fr.exPorts = append(fr.exPorts, int32(p))
	}
	for gi := range r.Groups {
		g := &r.Groups[gi]
		fg := flatGroup{outPort: int32(g.OutPort)}
		fg.setIdx, fg.setVal, fg.setMask = lowerAssignments(g.Sets, s)
		fr.groups = append(fr.groups, fg)
	}
	return fr
}

// lowerAssignments lowers a field->value map to parallel (schema index,
// value) arrays in field-name order, with their presence mask (nil, nil,
// 0 for an empty map).
func lowerAssignments(m map[string]int, s *Schema) (idx, val []int32, mask uint64) {
	for _, f := range slices.Sorted(maps.Keys(m)) {
		i := mustIndex(s, f)
		idx = append(idx, i)
		val = append(val, lowerValue(m[f]))
		mask |= 1 << uint(i)
	}
	return idx, val, mask
}

// lowerValue checks a rule/guard constant into the int32 flat-value
// domain at lowering (compile) time; see Schema.intern for the domain.
func lowerValue(v int) int32 {
	if int(int32(v)) != v {
		panic("dataplane: rule constant out of the int32 flat-value domain")
	}
	return int32(v)
}

func mustIndex(s *Schema, f string) int32 {
	i, ok := s.Index(f)
	if !ok {
		panic("dataplane: rule field " + f + " missing from plan schema")
	}
	return int32(i)
}

// flatEvent is one NES event precompiled against a schema for the
// engine's detection step: its guard's packet-field literals lowered by
// lowerConj. "sw" and "pt" literals are resolved statically against the
// event's own location (Event.Matches only consults the guard at that
// location); an event whose guard is statically false there can never
// fire and is dropped from the per-switch candidate lists entirely.
type flatEvent struct {
	id   int
	port int
	flatConj
}

// lowerEvent compiles one event's guard; live is false when the guard is
// statically unsatisfiable at the event's location.
func lowerEvent(ev nes.Event, s *Schema) (flatEvent, bool) {
	for _, l := range ev.Guard.Lits() {
		var at int
		switch l.F {
		case netkat.FieldSw:
			at = ev.Loc.Switch
		case netkat.FieldPt:
			at = ev.Loc.Port
		default:
			continue
		}
		if (at == l.V) != l.Eq {
			return flatEvent{}, false
		}
	}
	return flatEvent{id: ev.ID, port: ev.Loc.Port, flatConj: lowerConj(ev.Guard, s)}, true
}

// FlatMatcher is the exported face of one compiled table: it accepts
// map-form packets, interns them against its schema per call (on the
// stack — the matcher itself allocates nothing), and emits map-form
// outputs. The Engine does not use this path — it interns once at
// ingress — but the equivalence tests and the fuzz target drive it to
// prove the compiled table byte-equal to flowtable.Table's linear scan,
// and it is the embedding surface for callers that want flat matching
// without the engine.
type FlatMatcher struct {
	schema *Schema
	ft     *flatTable
}

// Process interns the packet, finds the winning rule on the flat path,
// applies its groups on flat copies, and materializes the emitted
// packets back to map form, appending to dst (untouched on default
// drop).
func (m FlatMatcher) Process(dst []flowtable.Output, pkt netkat.Packet, inPort int, tag uint32) []flowtable.Output {
	var buf [maxSchemaFields]int32
	vals := buf[:m.schema.Len()]
	pres, set, err := m.schema.intern(pkt, vals)
	if err != nil {
		// Truncating would silently diverge from the reference semantics,
		// so refuse loudly; the Engine rejects such packets at injection
		// with an error.
		panic("dataplane: FlatMatcher.Process: " + err.Error())
	}
	ri := m.ft.lookup(vals, pres, inPort, tag)
	if ri < 0 {
		return dst
	}
	inert := set.since(0)
	var tmp [maxSchemaFields]int32
	for gi := range m.ft.rules[ri].groups {
		g := &m.ft.rules[ri].groups[gi]
		gv := tmp[:len(vals)]
		copy(gv, vals)
		for si, fi := range g.setIdx {
			gv[fi] = g.setVal[si]
		}
		dst = append(dst, flowtable.Output{Pkt: m.schema.materialize(inert, gv, pres|g.setMask), Port: int(g.outPort)})
	}
	return dst
}
