package chaos

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/ctrl"
	"eventnet/internal/dataplane"
	"eventnet/internal/flowtable"
	"eventnet/internal/nes"
	"eventnet/internal/optimize"
)

// deepCopy copies a table down to the last map and slice, nil-ness kept,
// so reflect.DeepEqual against the original sees any later write.
func deepCopy(t *flowtable.Table) *flowtable.Table {
	out := &flowtable.Table{Rules: slices.Clone(t.Rules)}
	for i := range out.Rules {
		r := &out.Rules[i]
		r.Match.Cond = r.Match.Cond.Clone()
		r.Groups = slices.Clone(r.Groups)
		for gi := range r.Groups {
			r.Groups[gi].Sets = maps.Clone(r.Groups[gi].Sets)
		}
	}
	return out
}

// TestSharedTablesReadOnly is the aliasing guard for the read-only
// contract on compiled tables. One *flowtable.Table now stands in every
// configuration — of every program generation compiled through one
// cache — whose switch behaves the same, so a consumer that edits "its"
// table edits everyone's. Every consumer downstream of the compiler runs
// here over tables known to be shared, and every distinct table must come
// out deep-equal to the copy taken before.
func TestSharedTablesReadOnly(t *testing.T) {
	a, b := apps.BandwidthCap(50), apps.BandwidthCap(51)
	c := ctrl.New(a.Topo, ctrl.Options{Workers: 2})
	defer c.Close()
	var gens []*nes.NES
	for _, app := range []apps.App{a, b} {
		g, err := c.Compile(app.Name, app.Prog)
		if err != nil {
			t.Fatal(err)
		}
		gens = append(gens, g.NES)
	}
	sc, err := buildScenario("storm-swap")
	if err != nil {
		t.Fatal(err)
	}
	rotation, err := compileScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rotation {
		gens = append(gens, p.n)
	}

	before := map[*flowtable.Table]*flowtable.Table{}
	slots := 0
	for _, n := range gens {
		for ci := range n.Configs {
			for _, tbl := range n.Configs[ci].Tables {
				if before[tbl] == nil {
					before[tbl] = deepCopy(tbl)
				}
				slots++
			}
		}
	}
	if len(before)*4 > slots {
		t.Fatalf("%d distinct tables in %d slots: the tables are not shared, the guard is vacuous", len(before), slots)
	}

	// The lowering, both deployment shapes, the Section 5.3 optimizer.
	for _, n := range gens {
		dataplane.PlanFor(n)
		dataplane.MergedPair(n, n)
		var configs []flowtable.Tables
		for ci := range n.Configs {
			configs = append(configs, n.Configs[ci].Tables)
		}
		sets, _ := optimize.FromTables(configs)
		if _, err := optimize.Greedy(sets); err != nil {
			t.Fatal(err)
		}
	}
	dataplane.MergedPair(gens[0], gens[1])

	// A served engine under traffic, swapped to the revision and back.
	if err := c.Load(a.Name, a.Prog); err != nil {
		t.Fatal(err)
	}
	traffic := dataplane.NewLoadGen(gens[0], a.Topo, 9)
	for _, next := range []apps.App{b, a} {
		if errs := c.Engine().InjectAsyncBatch(traffic.Injections(300)); errs != nil {
			t.Fatal(errs)
		}
		if _, err := c.Swap(next.Name, next.Prog); err != nil {
			t.Fatal(err)
		}
	}
	c.Engine().Quiesce()
	if len(c.Engine().CopyDeliveries(0)) == 0 {
		t.Fatal("the served run delivered nothing")
	}

	// One chaos scenario over its (shared-table) rotation.
	s, err := NewSchedule(sc.name, 5, 150)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOn(sc, rotation, s, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations() != 0 || res.Swaps == 0 || res.Audited == 0 {
		t.Fatalf("chaos run: %d violations, %d swaps, %d audited", res.Violations(), res.Swaps, res.Audited)
	}

	for tbl, want := range before {
		if !reflect.DeepEqual(tbl, want) {
			t.Fatalf("a compiled table was written to after it left the compiler:\n got %v\nwant %v", tbl.Rules, want.Rules)
		}
	}
}
