package dataplane_test

import (
	"maps"
	"slices"
	"testing"

	"eventnet/internal/flowtable"
	"eventnet/internal/nkc"
	"eventnet/internal/stateful"
)

// TestLowerRuleIRMatchesMapPath: lowering reads a rule through
// flowtable.DeriveIR and nothing else, and the linear-scan reference reads
// only the maps. On every compiled rule of every reachable state of every
// application the derived arrays read back to exactly the rule's maps, in
// the order lowerRule's array walk assumes (flowtable.RuleIR's invariants),
// which is what lets the reference speak for the rules the engine runs.
func TestLowerRuleIRMatchesMapPath(t *testing.T) {
	for _, a := range propApps() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			states, _, err := a.Prog.ReachableStates()
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range states {
				tables, err := nkc.Compile(stateful.Project(a.Prog.Cmd, st), a.Topo)
				if err != nil {
					t.Fatalf("state %v: %v", st, err)
				}
				for _, sw := range tables.Switches() {
					for i := range tables[sw].Rules {
						r := &tables[sw].Rules[i]
						ir := flowtable.DeriveIR(r)
						eq, neq := map[string]int{}, map[string][]int{}
						for j, f := range ir.EqFields {
							eq[f] = ir.EqValues[j]
						}
						for j, f := range ir.NeqFields {
							neq[f] = append(neq[f], ir.NeqValues[j])
							if _, pinned := eq[f]; pinned {
								t.Fatalf("state %v sw %d rule %d: %s is both pinned and excluded", st, sw, i, f)
							}
						}
						ok := slices.IsSorted(ir.EqFields) && slices.IsSorted(ir.NeqFields) &&
							maps.Equal(eq, r.Match.Fields) && len(neq) == len(r.Match.Excludes) && len(ir.Groups) == len(r.Groups)
						for f, vs := range neq {
							want := slices.Clone(r.Match.Excludes[f])
							slices.Sort(want)
							ok = ok && slices.Equal(vs, want)
						}
						for gi := 0; ok && gi < len(r.Groups); gi++ {
							g, sets := ir.Groups[gi], map[string]int{}
							for j, f := range g.SetFields {
								sets[f] = g.SetValues[j]
							}
							ok = slices.IsSorted(g.SetFields) && maps.Equal(sets, r.Groups[gi].Sets)
						}
						if !ok {
							t.Fatalf("state %v sw %d rule %d: derived IR diverges from the maps\nrule: %+v\nderived: %+v", st, sw, i, *r, *ir)
						}
					}
				}
			}
		})
	}
}
