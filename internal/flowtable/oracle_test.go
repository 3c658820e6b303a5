package flowtable_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/ets"
	"eventnet/internal/flowtable"
	"eventnet/internal/netkat"
)

// This file holds the map form of a conjunction of field tests, as
// netkat.Conj and flowtable.Match were before both became one sorted
// literal slice, and holds the slice form against it: the map form keys
// literals by field, so its canonical order comes from sorting at every
// read rather than from keeping the literals in order.

// mapConj is the map-form conjunction.
type mapConj struct {
	eq  map[string]int          // field -> required value
	neq map[string]map[int]bool // field -> excluded values
}

func newMapConj() *mapConj {
	return &mapConj{eq: map[string]int{}, neq: map[string]map[int]bool{}}
}

func (c *mapConj) clone() *mapConj {
	d := newMapConj()
	for f, v := range c.eq {
		d.eq[f] = v
	}
	for f, vs := range c.neq {
		m := map[int]bool{}
		for v := range vs {
			m[v] = true
		}
		d.neq[f] = m
	}
	return d
}

func (c *mapConj) addEq(f string, v int) bool {
	if w, ok := c.eq[f]; ok {
		return w == v
	}
	if c.neq[f][v] {
		return false
	}
	c.eq[f] = v
	delete(c.neq, f)
	return true
}

func (c *mapConj) addNeq(f string, v int) bool {
	if w, ok := c.eq[f]; ok {
		return w != v
	}
	if c.neq[f] == nil {
		c.neq[f] = map[int]bool{}
	}
	c.neq[f][v] = true
	return true
}

func (c *mapConj) exists(f string) {
	delete(c.eq, f)
	delete(c.neq, f)
}

func (c *mapConj) neqOf(f string) []int {
	var out []int
	for v := range c.neq[f] {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func (c *mapConj) eqFields() []string {
	out := make([]string, 0, len(c.eq))
	for f := range c.eq {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

func (c *mapConj) neqFields() []string {
	out := make([]string, 0, len(c.neq))
	for f := range c.neq {
		if len(c.neq[f]) > 0 {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

func (c *mapConj) eval(lp netkat.LocatedPacket) bool {
	get := func(f string) (int, bool) {
		switch f {
		case netkat.FieldSw:
			return lp.Loc.Switch, true
		case netkat.FieldPt:
			return lp.Loc.Port, true
		default:
			v, ok := lp.Pkt[f]
			return v, ok
		}
	}
	for f, v := range c.eq {
		w, ok := get(f)
		if !ok || w != v {
			return false
		}
	}
	for f, vs := range c.neq {
		if w, ok := get(f); ok && vs[w] {
			return false
		}
	}
	return true
}

func (c *mapConj) mergeWith(d *mapConj) bool {
	for f, v := range d.eq {
		if !c.addEq(f, v) {
			return false
		}
	}
	for f, vs := range d.neq {
		for v := range vs {
			if !c.addNeq(f, v) {
				return false
			}
		}
	}
	return true
}

func (c *mapConj) key() string {
	var b strings.Builder
	for _, f := range c.eqFields() {
		fmt.Fprintf(&b, "%s=%d;", f, c.eq[f])
	}
	for _, f := range c.neqFields() {
		for _, v := range c.neqOf(f) {
			fmt.Fprintf(&b, "%s!=%d;", f, v)
		}
	}
	return b.String()
}

func (c *mapConj) String() string {
	var parts []string
	for _, f := range c.eqFields() {
		parts = append(parts, fmt.Sprintf("%s=%d", f, c.eq[f]))
	}
	for _, f := range c.neqFields() {
		for _, v := range c.neqOf(f) {
			parts = append(parts, fmt.Sprintf("%s!=%d", f, v))
		}
	}
	if len(parts) == 0 {
		return "true"
	}
	return strings.Join(parts, " & ")
}

// mapMatch is the map-form rule match: the ingress port apart from the
// other fields, each with its own exclusion list.
type mapMatch struct {
	inPort       int
	excludePorts []int
	fields       map[string]int
	excludes     map[string][]int
	guard        flowtable.VersionGuard
}

func (m mapMatch) matches(pkt netkat.Packet, inPort int, tag uint32) bool {
	if !m.guard.Matches(tag) {
		return false
	}
	if m.inPort != flowtable.Wildcard && m.inPort != inPort {
		return false
	}
	if m.inPort == flowtable.Wildcard && slices.Contains(m.excludePorts, inPort) {
		return false
	}
	for f, v := range m.fields {
		if w, ok := pkt[f]; !ok || w != v {
			return false
		}
	}
	for f, vs := range m.excludes {
		if w, ok := pkt[f]; ok && slices.Contains(vs, w) {
			return false
		}
	}
	return true
}

func (m mapMatch) specificity() int {
	s := 0
	if m.inPort != flowtable.Wildcard {
		s += 10
	}
	s += len(m.excludePorts)
	s += 10 * len(m.fields)
	for _, vs := range m.excludes {
		s += len(vs)
	}
	return s
}

func (m mapMatch) key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "in=%d;", m.inPort)
	ps := slices.Sorted(slices.Values(m.excludePorts))
	for _, v := range ps {
		fmt.Fprintf(&b, "in!=%d;", v)
	}
	fs := make([]string, 0, len(m.fields))
	for f := range m.fields {
		fs = append(fs, f)
	}
	sort.Strings(fs)
	for _, f := range fs {
		fmt.Fprintf(&b, "%s=%d;", f, m.fields[f])
	}
	es := make([]string, 0, len(m.excludes))
	for f := range m.excludes {
		es = append(es, f)
	}
	sort.Strings(es)
	for _, f := range es {
		for _, v := range slices.Sorted(slices.Values(m.excludes[f])) {
			fmt.Fprintf(&b, "%s!=%d;", f, v)
		}
	}
	return b.String()
}

func (m mapMatch) clone() mapMatch {
	n := mapMatch{inPort: m.inPort, guard: m.guard, fields: map[string]int{}, excludes: map[string][]int{}}
	n.excludePorts = append(n.excludePorts, m.excludePorts...)
	for f, v := range m.fields {
		n.fields[f] = v
	}
	for f, vs := range m.excludes {
		n.excludes[f] = append([]int{}, vs...)
	}
	return n
}

func (m mapMatch) intersect(o mapMatch) (mapMatch, bool) {
	out := m.clone()
	if o.inPort != flowtable.Wildcard {
		if out.inPort == flowtable.Wildcard {
			if slices.Contains(out.excludePorts, o.inPort) {
				return mapMatch{}, false
			}
			out.inPort = o.inPort
		} else if out.inPort != o.inPort {
			return mapMatch{}, false
		}
	} else {
		for _, v := range o.excludePorts {
			if out.inPort == v {
				return mapMatch{}, false
			}
			if out.inPort == flowtable.Wildcard && !slices.Contains(out.excludePorts, v) {
				out.excludePorts = append(out.excludePorts, v)
			}
		}
	}
	if out.inPort != flowtable.Wildcard {
		out.excludePorts = nil
	} else {
		sort.Ints(out.excludePorts)
	}
	for f, v := range o.fields {
		if w, ok := out.fields[f]; ok {
			if w != v {
				return mapMatch{}, false
			}
			continue
		}
		if slices.Contains(out.excludes[f], v) {
			return mapMatch{}, false
		}
		out.fields[f] = v
	}
	for f, vs := range o.excludes {
		for _, v := range vs {
			if w, ok := out.fields[f]; ok && w == v {
				return mapMatch{}, false
			}
			out.excludes[f] = append(out.excludes[f], v)
		}
	}
	for f := range out.excludes {
		if _, ok := out.fields[f]; ok {
			delete(out.excludes, f)
			continue
		}
		out.excludes[f] = slices.Compact(slices.Sorted(slices.Values(out.excludes[f])))
	}
	return out, true
}

func (m mapMatch) subsumes(o mapMatch) bool {
	if m.inPort != flowtable.Wildcard && m.inPort != o.inPort {
		return false
	}
	for _, v := range m.excludePorts {
		if o.inPort != flowtable.Wildcard && o.inPort != v {
			continue
		}
		if !slices.Contains(o.excludePorts, v) {
			return false
		}
	}
	for f, v := range m.fields {
		if w, ok := o.fields[f]; !ok || w != v {
			return false
		}
	}
	for f, vs := range m.excludes {
		for _, v := range vs {
			if w, ok := o.fields[f]; ok && w != v {
				continue
			}
			if !slices.Contains(o.excludes[f], v) {
				return false
			}
		}
	}
	return true
}

// toMapConj rebuilds a conjunction in map form from its literals, added
// in a random order.
func toMapConj(r *rand.Rand, c *netkat.Conj) *mapConj {
	lits := slices.Clone(c.Lits())
	r.Shuffle(len(lits), func(i, j int) { lits[i], lits[j] = lits[j], lits[i] })
	o := newMapConj()
	for _, l := range lits {
		if l.Eq {
			o.addEq(l.F, l.V)
		} else {
			o.addNeq(l.F, l.V)
		}
	}
	return o
}

// toMapMatch splits a match's "pt" literals off into the ingress port.
func toMapMatch(m flowtable.Match) mapMatch {
	o := mapMatch{inPort: flowtable.Wildcard, fields: map[string]int{}, excludes: map[string][]int{}, guard: m.Guard}
	for _, l := range m.Cond.Lits() {
		switch {
		case l.F == netkat.FieldPt && l.Eq:
			o.inPort = l.V
		case l.F == netkat.FieldPt:
			o.excludePorts = append(o.excludePorts, l.V)
		case l.Eq:
			o.fields[l.F] = l.V
		default:
			o.excludes[l.F] = append(o.excludes[l.F], l.V)
		}
	}
	return o
}

// sameConj fails the test unless c and o agree on every read: key,
// rendering, the per-field reads, and evaluation on every packet given.
func sameConj(t *testing.T, c *netkat.Conj, o *mapConj, fields []string, lps []netkat.LocatedPacket) {
	t.Helper()
	if c.Key() != o.key() || c.String() != o.String() {
		t.Fatalf("key %q string %q, map form %q %q", c.Key(), c.String(), o.key(), o.String())
	}
	for _, f := range fields {
		v, ok := c.Eq(f)
		w, wok := o.eq[f]
		if v != w || ok != wok || !slices.Equal(c.Neq(f), o.neqOf(f)) {
			t.Fatalf("%s: field %s reads (%d %v %v), map form (%d %v %v)", c, f, v, ok, c.Neq(f), w, wok, o.neqOf(f))
		}
	}
	for _, lp := range lps {
		if c.Eval(lp) != o.eval(lp) {
			t.Fatalf("%s on %v: %v, map form %v", c, lp, c.Eval(lp), o.eval(lp))
		}
	}
}

// sameMatch fails the test unless m and o agree on specificity, key and
// every probe.
func sameMatch(t *testing.T, m flowtable.Match, o mapMatch, probes []probe) {
	t.Helper()
	if m.Specificity() != o.specificity() || m.Key() != o.key() {
		t.Fatalf("match %s (%d), map form %s (%d)", m.Key(), m.Specificity(), o.key(), o.specificity())
	}
	for _, p := range probes {
		if m.Matches(p.pkt, p.port, p.tag) != o.matches(p.pkt, p.port, p.tag) {
			t.Fatalf("match %s g=%v on %v port %d tag %d: %v, map form %v", m.Key(), m.Guard, p.pkt, p.port, p.tag, m.Matches(p.pkt, p.port, p.tag), o.matches(p.pkt, p.port, p.tag))
		}
	}
}

// samePair fails the test unless the two forms agree on subsumption both
// ways and on the intersection: whether it is empty and, if not, the
// match it is.
func samePair(t *testing.T, a, b flowtable.Match, oa, ob mapMatch, probes []probe) {
	t.Helper()
	if a.Cond.Subsumes(b.Cond) != oa.subsumes(ob) || b.Cond.Subsumes(a.Cond) != ob.subsumes(oa) {
		t.Fatalf("subsumes %s / %s: %v %v, map form %v %v", a.Key(), b.Key(),
			a.Cond.Subsumes(b.Cond), b.Cond.Subsumes(a.Cond), oa.subsumes(ob), ob.subsumes(oa))
	}
	inter := flowtable.Match{Cond: a.Cond.Clone(), Guard: a.Guard}
	ok := inter.Cond.MergeWith(b.Cond)
	oi, ook := oa.intersect(ob)
	if ok != ook {
		t.Fatalf("intersect %s / %s: %v, map form %v", a.Key(), b.Key(), ok, ook)
	}
	if ok {
		sameMatch(t, inter, oi, probes)
	}
}

type probe struct {
	pkt  netkat.Packet
	port int
	tag  uint32
}

// smallFields is the random tests' field domain: two packet fields and
// the two location fields, over the values 0-2.
var smallFields = []string{"a", "b", netkat.FieldSw, netkat.FieldPt}

// smallGrid is every located packet over smallFields, a packet field
// absent or 0-2.
func smallGrid() []netkat.LocatedPacket {
	var out []netkat.LocatedPacket
	for a := -1; a < 3; a++ {
		for b := -1; b < 3; b++ {
			pkt := netkat.Packet{}
			if a >= 0 {
				pkt["a"] = a
			}
			if b >= 0 {
				pkt["b"] = b
			}
			for sw := 0; sw < 3; sw++ {
				for pt := 0; pt < 3; pt++ {
					out = append(out, netkat.LocatedPacket{Pkt: pkt, Loc: netkat.Location{Switch: sw, Port: pt}})
				}
			}
		}
	}
	return out
}

// TestConjAgainstMapForm applies random literal sequences over a small
// domain (so literals repeat, contradict and meet the location fields)
// to both forms and compares every answer and every read after each
// step. A step whose conjunct is contradicted ends the sequence: the
// conjunction is unspecified after it.
func TestConjAgainstMapForm(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	grid := smallGrid()
	randLit := func() netkat.Lit {
		return netkat.Lit{F: smallFields[r.Intn(len(smallFields))], V: r.Intn(3), Eq: r.Intn(3) == 0}
	}
	for seq := 0; seq < 1500; seq++ {
		c, o := netkat.NewConj(), newMapConj()
		for step := 0; step < 10; step++ {
			var got, want bool
			switch op := r.Intn(10); {
			case op < 6:
				l := randLit()
				if l.Eq {
					got, want = c.AddEq(l.F, l.V), o.addEq(l.F, l.V)
				} else {
					got, want = c.AddNeq(l.F, l.V), o.addNeq(l.F, l.V)
				}
			case op < 7:
				f := smallFields[r.Intn(len(smallFields))]
				c.Exists(f)
				o.exists(f)
				got, want = true, true
			case op < 9:
				d, od := netkat.NewConj(), newMapConj()
				for n := r.Intn(4); n > 0; n-- {
					if l := randLit(); l.Eq && d.AddEq(l.F, l.V) {
						od.addEq(l.F, l.V)
					} else if !l.Eq && d.AddNeq(l.F, l.V) {
						od.addNeq(l.F, l.V)
					}
				}
				got, want = c.MergeWith(d), o.mergeWith(od)
			default:
				// A clone is independent of its original both ways.
				d := c.Clone()
				d.AddNeq("a", 9)
				d.Exists("b")
				got, want = c.AddNeq("b", 7), o.addNeq("b", 7)
				if d.Neq("b") != nil {
					t.Fatalf("seq %d step %d: the original's literal reached its clone %v", seq, step, d)
				}
			}
			if got != want {
				t.Fatalf("seq %d step %d: %v answered %v, map form %v", seq, step, c, got, want)
			}
			if !got {
				break
			}
			sameConj(t, c, o, smallFields, grid)
		}
	}
}

// randMatch builds a random satisfiable match over a, b and pt with a
// random guard.
func randMatch(r *rand.Rand) flowtable.Match {
	for {
		c, sat := netkat.NewConj(), true
		for n := r.Intn(5); n > 0; n-- {
			f, v := []string{"a", "b", netkat.FieldPt}[r.Intn(3)], r.Intn(3)
			if r.Intn(3) == 0 {
				sat = sat && c.AddEq(f, v)
			} else {
				sat = sat && c.AddNeq(f, v)
			}
		}
		if sat {
			g := [3]flowtable.VersionGuard{{}, flowtable.ExactGuard(uint32(r.Intn(4)), 2), {Value: 2, Mask: 2}}[r.Intn(3)]
			return flowtable.Match{Cond: c, Guard: g}
		}
	}
}

// smallProbes is every packet over a and b, absent or 0-2, at ports 0-3
// and tags 0-3.
func smallProbes() []probe {
	var out []probe
	for _, lp := range smallGrid() {
		if lp.Loc.Switch != 0 {
			continue
		}
		for port := 0; port < 4; port++ {
			for tag := uint32(0); tag < 4; tag++ {
				out = append(out, probe{pkt: lp.Pkt, port: port, tag: tag})
			}
		}
	}
	return out
}

// TestMatchAgainstMapForm holds random matches, and the pairs of them,
// against the map-form match: matching, specificity, key, subsumption
// and intersection.
func TestMatchAgainstMapForm(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	probes := smallProbes()
	for i := 0; i < 1500; i++ {
		a, b := randMatch(r), randMatch(r)
		oa, ob := toMapMatch(a), toMapMatch(b)
		sameMatch(t, a, oa, probes)
		sameMatch(t, b, ob, probes)
		samePair(t, a, b, oa, ob, probes)
	}
}

// aimedProbes returns packets around a conjunction's literals: one
// meeting every equality, and per literal one with the literal's field
// at the literal's value, at the next value, and absent (a location
// field is never absent).
func aimedProbes(c *netkat.Conj, at netkat.Location) []netkat.LocatedPacket {
	base := netkat.LocatedPacket{Pkt: netkat.Packet{}, Loc: at}
	set := func(lp *netkat.LocatedPacket, f string, v int) {
		switch f {
		case netkat.FieldSw:
			lp.Loc.Switch = v
		case netkat.FieldPt:
			lp.Loc.Port = v
		default:
			lp.Pkt[f] = v
		}
	}
	for _, l := range c.Lits() {
		if l.Eq {
			set(&base, l.F, l.V)
		}
	}
	out := []netkat.LocatedPacket{base}
	for _, l := range c.Lits() {
		for _, v := range []int{l.V, l.V + 1, -1} {
			lp := netkat.LocatedPacket{Pkt: base.Pkt.Clone(), Loc: base.Loc}
			if v >= 0 {
				set(&lp, l.F, v)
			} else {
				delete(lp.Pkt, l.F)
			}
			out = append(out, lp)
		}
	}
	return out
}

// TestConjFormsOnApps holds every event guard and every rule that the
// paper's applications and the failover applications compile to against
// the map forms, and every pair of one application's rules on
// subsumption and intersection.
func TestConjFormsOnApps(t *testing.T) {
	progs := append(apps.All(), apps.FailoverDiamond(2).App, apps.FailoverWAN(2).App, apps.FailoverFatTree(4, 1).App)
	r := rand.New(rand.NewSource(39))
	guards, rules, pairs := 0, 0, 0
	for _, a := range progs {
		e, err := ets.Build(a.Prog, a.Topo)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		n, err := e.ToNES()
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		for _, ev := range n.Events {
			var fields []string
			for _, l := range ev.Guard.Lits() {
				fields = append(fields, l.F)
			}
			sameConj(t, ev.Guard, toMapConj(r, ev.Guard), fields, aimedProbes(ev.Guard, ev.Loc))
			guards++
		}
		// The app's distinct rules, each with the probes aimed at it.
		var ms []flowtable.Match
		var aimed [][]probe
		seen := map[*flowtable.Table]bool{}
		for ci := range n.Configs {
			for _, tbl := range n.Configs[ci].Tables {
				if seen[tbl] {
					continue
				}
				seen[tbl] = true
				for _, rl := range tbl.Rules {
					var ps []probe
					for _, lp := range aimedProbes(rl.Match.Cond, netkat.Location{}) {
						ps = append(ps, probe{pkt: lp.Pkt, port: lp.Loc.Port})
					}
					ms, aimed = append(ms, rl.Match), append(aimed, ps)
				}
			}
		}
		for i, m := range ms {
			sameMatch(t, m, toMapMatch(m), aimed[i])
			rules++
			for j := i + 1; j < len(ms); j++ {
				samePair(t, m, ms[j], toMapMatch(m), toMapMatch(ms[j]), append(slices.Clip(aimed[i]), aimed[j]...))
				pairs++
			}
		}
	}
	t.Logf("%d guards, %d rules, %d rule pairs", guards, rules, pairs)
	if guards == 0 || rules == 0 || pairs == 0 {
		t.Fatal("the applications compiled to nothing to compare")
	}
}
