package dataplane_test

import (
	"slices"
	"testing"

	"eventnet/internal/flowtable"
	"eventnet/internal/nkc"
	"eventnet/internal/stateful"
)

// sameIR compares two IRs literal for literal (an empty array is an empty
// array, nil or not).
func sameIR(a, b *flowtable.RuleIR) bool {
	return slices.Equal(a.EqFields, b.EqFields) && slices.Equal(a.EqValues, b.EqValues) &&
		slices.Equal(a.NeqFields, b.NeqFields) && slices.Equal(a.NeqValues, b.NeqValues) &&
		slices.EqualFunc(a.Groups, b.Groups, func(x, y flowtable.GroupIR) bool {
			return slices.Equal(x.SetFields, y.SetFields) && slices.Equal(x.SetValues, y.SetValues)
		})
}

// TestLowerRuleIRMatchesMapPath holds the two sources of the one lowering's
// input together: on every reachable state of every application, every
// compiled rule carries the FDD backend's emitted flat IR, and that IR
// equals, literal for literal, the one flowtable.DeriveIR rederives from the rule's Match
// and Groups maps. Lowering reads only the IR, so this is what makes a
// rule lower the same whether or not its compiler emitted one — and what
// lets the linear-scan reference (which reads only the maps) speak for
// the rules the engine runs.
func TestLowerRuleIRMatchesMapPath(t *testing.T) {
	for _, a := range propApps() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			states, _, err := a.Prog.ReachableStates()
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range states {
				pol := stateful.Project(a.Prog.Cmd, st)
				tables, err := nkc.Compile(pol, a.Topo)
				if err != nil {
					t.Fatalf("state %v: %v", st, err)
				}
				for _, sw := range tables.Switches() {
					for i := range tables[sw].Rules {
						r := &tables[sw].Rules[i]
						if r.IR == nil {
							t.Fatalf("state %v sw %d rule %d: compiler emitted no flat IR", st, sw, i)
						}
						if derived := flowtable.DeriveIR(r); !sameIR(derived, r.IR) {
							t.Fatalf("state %v sw %d rule %d: emitted IR diverges from the maps\nrule: %+v\nemitted: %+v\nderived: %+v",
								st, sw, i, *r, *r.IR, *derived)
						}
					}
				}
			}
		})
	}
}
