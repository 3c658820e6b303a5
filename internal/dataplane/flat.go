package dataplane

import (
	"sort"

	"eventnet/internal/flowtable"
	"eventnet/internal/nes"
	"eventnet/internal/netkat"
)

// This file is the flat (schema-interned) mirror of the matcher layer:
// every flowtable.Rule of a compiled plan is lowered once, at
// plan-compile time, into integer-indexed match/action arrays, and
// lookups run directly on a flat packet's value array and presence
// bitmap — no map lookups, no string hashing, no per-packet allocation.
//
// Lowering is a bijection on rule structure: one flatRule per rule in the
// same priority rank order, one flatGroup per action group in the same
// order, every literal translated through the plan's Schema. Because the
// schema interning is injective (one index per field name) and both the
// rules and the packets are translated through the same schema, a flat
// lookup selects exactly the rank the map-form lookup selects — the
// equivalence is property-tested on every reachable state of every
// application (flat_test.go).
//
// The indexed flat table reuses the map-form CompiledTable's bucketing
// verbatim: the guard partition, port buckets, discriminating-field
// choice, hash maps, and fallback lists are shared (the FNV fold over a
// rule's required values is identical whether the values are read from a
// map or a flat array), so the two forms cannot disagree on which
// candidates are probed, only verify them at different speeds.

// flatRule is one rule lowered against a schema.
type flatRule struct {
	guardValue uint32 // pre-masked
	guardMask  uint32
	inPort     int32 // flowtable.Wildcard for the wildcard bucket
	exPorts    []int32
	eqIdx      []int32 // equality literals: field index ...
	eqVal      []int32 // ... and required value, parallel
	eqMask     uint64  // presence bits of every equality field
	neqIdx     []int32 // exclusion literals: field index ...
	neqVal     []int32 // ... and excluded value, parallel
	groups     []flatGroup
}

// flatGroup is one action group lowered against a schema: in-place field
// writes plus the presence bits they establish.
type flatGroup struct {
	setIdx  []int32
	setVal  []int32
	setMask uint64
	outPort int32
}

// matches is flowtable.Match.Matches on the flat form: an absent field
// (presence bit clear) fails an equality literal and passes an exclusion
// literal.
func (r *flatRule) matches(vals []int32, pres uint64, inPort int, tag uint32) bool {
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
	if pres&r.eqMask != r.eqMask {
		return false
	}
	for i, fi := range r.eqIdx {
		if vals[fi] != r.eqVal[i] {
			return false
		}
	}
	for i, fi := range r.neqIdx {
		if pres&(1<<uint(fi)) != 0 && vals[fi] == r.neqVal[i] {
			return false
		}
	}
	return true
}

// flatTable is one switch's table in flat form: rules in priority rank
// order, plus (in indexed mode) the guard-partition/port/hash structure
// shared with the map-form CompiledTable.
type flatTable struct {
	schema  *Schema
	rules   []flatRule
	parts   []flatPart
	indexed bool
}

// flatPart mirrors guardPart.
type flatPart struct {
	mask   uint32
	groups map[uint32]*flatPortIndex
}

// flatPortIndex mirrors portIndex.
type flatPortIndex struct {
	byPort map[int]*flatBucket
	wild   *flatBucket
}

// flatBucket mirrors bucket: the hash and fallback candidate lists are
// the *same slices and maps* as the map-form bucket's (hash values
// coincide, see hashFlat); only the key fields are resolved to schema
// indices.
type flatBucket struct {
	keyIdx   []int32 // nil: no index, everything in fallback
	index    map[uint64][]int32
	fallback []int32
}

// hashFlat folds the packet's values of the key fields into one hash —
// the identical FNV fold hashFields performs on the map form (both fold
// uint32 truncations of the same values in the same field order), so the
// shared bucket hash maps serve both forms. The second result is false
// when a key field is absent: no indexed rule can then match.
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

// bestIn mirrors bucket.bestIn on the flat form.
func (b *flatBucket) bestIn(rules []flatRule, vals []int32, pres uint64, inPort int, tag uint32, bound int32) int32 {
	if b == nil {
		return bound
	}
	if b.keyIdx != nil {
		if h, ok := hashFlat(vals, pres, b.keyIdx); ok {
			for _, r := range b.index[h] {
				if r >= bound {
					break
				}
				if rules[r].matches(vals, pres, inPort, tag) {
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
		if rules[r].matches(vals, pres, inPort, tag) {
			bound = r
			break
		}
	}
	return bound
}

// lookup returns the winning rule's rank, or -1 on default drop. Scan
// mode walks the rules in priority order; indexed mode rank-merges the
// guard partition's candidate lists exactly as CompiledTable.Lookup.
func (ft *flatTable) lookup(vals []int32, pres uint64, inPort int, tag uint32) int32 {
	if !ft.indexed {
		for i := range ft.rules {
			if ft.rules[i].matches(vals, pres, inPort, tag) {
				return int32(i)
			}
		}
		return -1
	}
	best := int32(len(ft.rules))
	for pi := range ft.parts {
		p := &ft.parts[pi]
		g := p.groups[tag&p.mask]
		if g == nil {
			continue
		}
		best = g.byPort[inPort].bestIn(ft.rules, vals, pres, inPort, tag, best)
		best = g.wild.bestIn(ft.rules, vals, pres, inPort, tag, best)
	}
	if best == int32(len(ft.rules)) {
		return -1
	}
	return best
}

// newFlatIndexed lowers a CompiledTable against a schema, sharing its
// bucket structure.
func newFlatIndexed(ct *CompiledTable, s *Schema) *flatTable {
	ft := &flatTable{schema: s, indexed: true, rules: lowerRules(ct.rules, s)}
	ft.parts = make([]flatPart, len(ct.parts))
	for pi := range ct.parts {
		p := &ct.parts[pi]
		fp := flatPart{mask: p.mask, groups: make(map[uint32]*flatPortIndex, len(p.groups))}
		for v, g := range p.groups {
			fpi := &flatPortIndex{byPort: make(map[int]*flatBucket, len(g.byPort))}
			for pt, b := range g.byPort {
				fpi.byPort[pt] = lowerBucket(b, s)
			}
			if g.wild != nil {
				fpi.wild = lowerBucket(g.wild, s)
			}
			fp.groups[v] = fpi
		}
		ft.parts[pi] = fp
	}
	return ft
}

// newFlatScan lowers a table for the linear-scan reference plane.
func newFlatScan(t *flowtable.Table, s *Schema) *flatTable {
	return &flatTable{schema: s, rules: lowerRules(t.Rules, s)}
}

func lowerBucket(b *bucket, s *Schema) *flatBucket {
	fb := &flatBucket{index: b.index, fallback: b.fallback}
	for _, f := range b.keyFields {
		i, ok := s.Index(f)
		if !ok {
			panic("dataplane: bucket key field missing from plan schema")
		}
		fb.keyIdx = append(fb.keyIdx, int32(i))
	}
	return fb
}

func lowerRules(rs []flowtable.Rule, s *Schema) []flatRule {
	out := make([]flatRule, len(rs))
	for i := range rs {
		out[i] = lowerRule(&rs[i], s)
	}
	return out
}

func lowerRule(r *flowtable.Rule, s *Schema) flatRule {
	m := &r.Match
	fr := flatRule{
		guardValue: m.Guard.Value & m.Guard.Mask,
		guardMask:  m.Guard.Mask,
		inPort:     int32(m.InPort),
	}
	for _, p := range m.ExcludePorts {
		fr.exPorts = append(fr.exPorts, int32(p))
	}
	if r.IR != nil {
		lowerIR(&fr, r, s)
		return fr
	}
	for _, f := range sortedFieldKeys(m.Fields) {
		i := mustIndex(s, f)
		fr.eqIdx = append(fr.eqIdx, i)
		fr.eqVal = append(fr.eqVal, lowerValue(m.Fields[f]))
		fr.eqMask |= 1 << uint(i)
	}
	exFields := make([]string, 0, len(m.Excludes))
	for f := range m.Excludes {
		exFields = append(exFields, f)
	}
	sort.Strings(exFields)
	for _, f := range exFields {
		i := mustIndex(s, f)
		for _, v := range m.Excludes[f] {
			fr.neqIdx = append(fr.neqIdx, i)
			fr.neqVal = append(fr.neqVal, lowerValue(v))
		}
	}
	for _, g := range r.Groups {
		fg := flatGroup{outPort: int32(g.OutPort)}
		for _, f := range sortedFieldKeys(g.Sets) {
			i := mustIndex(s, f)
			fg.setIdx = append(fg.setIdx, i)
			fg.setVal = append(fg.setVal, lowerValue(g.Sets[f]))
			fg.setMask |= 1 << uint(i)
		}
		fr.groups = append(fr.groups, fg)
	}
	return fr
}

// lowerIR fills a flat rule's field literals and action groups from the
// compiler's pre-sorted flat IR, skipping the map-form rederivation (key
// gathering + sort.Strings per rule and per group) entirely. The IR
// invariants — EqFields strictly ascending, Neq pairs sorted by (field,
// value) with no entry for an Eq field, Groups parallel to Rule.Groups —
// make this a straight array walk producing byte-for-byte the same flat
// rule as the map path; TestLowerRuleIRMatchesMapPath holds the two
// together.
func lowerIR(fr *flatRule, r *flowtable.Rule, s *Schema) {
	ir := r.IR
	for fi, f := range ir.EqFields {
		i := mustIndex(s, f)
		fr.eqIdx = append(fr.eqIdx, i)
		fr.eqVal = append(fr.eqVal, lowerValue(ir.EqValues[fi]))
		fr.eqMask |= 1 << uint(i)
	}
	for fi, f := range ir.NeqFields {
		fr.neqIdx = append(fr.neqIdx, mustIndex(s, f))
		fr.neqVal = append(fr.neqVal, lowerValue(ir.NeqValues[fi]))
	}
	for gi := range ir.Groups {
		g := &ir.Groups[gi]
		fg := flatGroup{outPort: int32(r.Groups[gi].OutPort)}
		for fi, f := range g.SetFields {
			i := mustIndex(s, f)
			fg.setIdx = append(fg.setIdx, i)
			fg.setVal = append(fg.setVal, lowerValue(g.SetValues[fi]))
			fg.setMask |= 1 << uint(i)
		}
		fr.groups = append(fr.groups, fg)
	}
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

func sortedFieldKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for f := range m {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// flatEvent is one NES event precompiled against a schema for the
// engine's detection step: its guard's packet-field literals as interned
// index/value arrays. "sw" and "pt" literals are resolved statically
// against the event's own location (Event.Matches only consults the
// guard at that location); an event whose guard is statically false
// there can never fire and is dropped from the per-switch candidate
// lists entirely.
type flatEvent struct {
	id     int
	port   int
	eqIdx  []int32
	eqVal  []int32
	eqMask uint64
	neqIdx []int32
	neqVal []int32
}

// matches evaluates the precompiled guard on a flat packet (the location
// was already narrowed by the per-switch candidate list and the port
// field).
func (fe *flatEvent) matches(vals []int32, pres uint64) bool {
	if pres&fe.eqMask != fe.eqMask {
		return false
	}
	for i, fi := range fe.eqIdx {
		if vals[fi] != fe.eqVal[i] {
			return false
		}
	}
	for i, fi := range fe.neqIdx {
		if pres&(1<<uint(fi)) != 0 && vals[fi] == fe.neqVal[i] {
			return false
		}
	}
	return true
}

// lowerEvent compiles one event's guard; live is false when the guard is
// statically unsatisfiable at the event's location.
func lowerEvent(ev nes.Event, s *Schema) (flatEvent, bool) {
	fe := flatEvent{id: ev.ID, port: ev.Loc.Port}
	for _, f := range ev.Guard.EqFields() {
		v, _ := ev.Guard.Eq(f)
		switch f {
		case netkat.FieldSw:
			if v != ev.Loc.Switch {
				return flatEvent{}, false
			}
		case netkat.FieldPt:
			if v != ev.Loc.Port {
				return flatEvent{}, false
			}
		default:
			i := mustIndex(s, f)
			fe.eqIdx = append(fe.eqIdx, i)
			fe.eqVal = append(fe.eqVal, lowerValue(v))
			fe.eqMask |= 1 << uint(i)
		}
	}
	for _, f := range ev.Guard.NeqFields() {
		for _, v := range ev.Guard.Neq(f) {
			switch f {
			case netkat.FieldSw:
				if v == ev.Loc.Switch {
					return flatEvent{}, false
				}
			case netkat.FieldPt:
				if v == ev.Loc.Port {
					return flatEvent{}, false
				}
			default:
				i := mustIndex(s, f)
				fe.neqIdx = append(fe.neqIdx, i)
				fe.neqVal = append(fe.neqVal, lowerValue(v))
			}
		}
	}
	return fe, true
}

// FlatMatcher is the exported face of one flat-lowered table: it accepts
// map-form packets, interns them against its schema per call (on the
// stack — the matcher itself allocates nothing), and emits map-form
// outputs. The Engine does not use this path — it interns once at
// ingress — but equivalence tests drive it to prove the flat lowering
// byte-equal to the map-form matchers, and it is the embedding surface
// for callers that want flat matching without the engine.
type FlatMatcher struct {
	schema *Schema
	ft     *flatTable
}

// CompileFlat lowers a table's compiled index against a schema (which
// must cover every field the table mentions — SchemaForTables or a
// program schema).
func CompileFlat(t *flowtable.Table, s *Schema) FlatMatcher {
	return FlatMatcher{schema: s, ft: newFlatIndexed(Compile(t), s)}
}

// FlatScanOf lowers a table for linear-scan flat matching.
func FlatScanOf(t *flowtable.Table, s *Schema) FlatMatcher {
	return FlatMatcher{schema: s, ft: newFlatScan(t, s)}
}

// Len returns the number of rules behind the matcher.
func (m FlatMatcher) Len() int { return len(m.ft.rules) }

// Process interns the packet, finds the winning rule on the flat path,
// applies its groups on flat copies, and materializes the emitted
// packets back to map form, appending to dst (untouched on default
// drop).
func (m FlatMatcher) Process(dst []flowtable.Output, pkt netkat.Packet, inPort int, tag uint32) []flowtable.Output {
	var buf [maxSchemaFields]int32
	vals := buf[:m.schema.Len()]
	if err := ValidateDomain(pkt); err != nil {
		// Truncating would silently diverge from the map-form semantics,
		// so refuse loudly; the Engine rejects such packets at injection
		// with an error.
		panic("dataplane: FlatMatcher.Process: " + err.Error())
	}
	pres, set := m.schema.intern(pkt, vals, nil, len(pkt))
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
