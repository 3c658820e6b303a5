package optimize

import (
	"math/rand"
	"sort"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/ets"
	"eventnet/internal/flowtable"
	"eventnet/internal/netkat"
	"eventnet/internal/nkc"
	"eventnet/internal/stateful"
	"eventnet/internal/topo"
)

// TestPaperTrieExample reproduces the worked example of Section 5.3 /
// Figure 18: C0={r1,r2}, C1={r1,r3}, C2={r2,r3}, C3={r1,r2}; the bad
// arrangement costs 6 rules, the good one 5, and naive costs 8.
func TestPaperTrieExample(t *testing.T) {
	c0 := NewRuleSet(1, 2)
	c1 := NewRuleSet(1, 3)
	c2 := NewRuleSet(2, 3)
	c3 := NewRuleSet(1, 2)
	configs := []RuleSet{c0, c1, c2, c3}

	if n := Naive(configs); n != 8 {
		t.Fatalf("naive = %d, want 8", n)
	}
	// Figure 18(a): order C0, C1, C2, C3 -> 6 rules.
	ta := buildFromOrder([]RuleSet{c0, c1, c2, c3}, []int{0, 1, 2, 3})
	if n := ta.TotalRules(); n != 6 {
		t.Errorf("arrangement (a): %d rules, want 6", n)
	}
	// Figure 18(b): order C0, C3, C1, C2 -> 5 rules.
	tb := buildFromOrder([]RuleSet{c0, c3, c1, c2}, []int{0, 3, 1, 2})
	if n := tb.TotalRules(); n != 5 {
		t.Errorf("arrangement (b): %d rules, want 5", n)
	}

	opt, err := Optimal(configs)
	if err != nil {
		t.Fatal(err)
	}
	if n := opt.TotalRules(); n != 5 {
		t.Errorf("optimal = %d, want 5", n)
	}
	g, err := Greedy(configs)
	if err != nil {
		t.Fatal(err)
	}
	// The greedy heuristic pairs the identical C0/C3 first, reaching the
	// optimum on this instance.
	if n := g.TotalRules(); n != 5 {
		t.Errorf("greedy = %d, want 5", n)
	}
}

// TestGreedyNeverWorseThanNaive and never better than a correct lower
// bound; the guarded rules must reconstruct each configuration exactly.
func TestGreedyCorrectAndBounded(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		nCfg := 2 + r.Intn(7)
		pool := 6 + r.Intn(10)
		configs := make([]RuleSet, nCfg)
		for i := range configs {
			configs[i] = RuleSet{}
			for id := 0; id < pool; id++ {
				if r.Intn(3) == 0 {
					configs[i][id] = true
				}
			}
		}
		g, err := Greedy(configs)
		if err != nil {
			t.Fatal(err)
		}
		if g.TotalRules() > Naive(configs) {
			t.Fatalf("greedy (%d) worse than naive (%d)", g.TotalRules(), Naive(configs))
		}
		// Semantic preservation: for each original config at leaf id, the
		// union of guarded rules whose guard matches id equals the config.
		for id, cfgIdx := range g.Leaves {
			if cfgIdx < 0 {
				continue
			}
			got := RuleSet{}
			for _, gr := range g.GuardedRules() {
				if gr.Guard.Matches(uint32(id)) {
					got[gr.Rule] = true
				}
			}
			want := configs[cfgIdx]
			if len(got) != len(want) {
				t.Fatalf("config %d: reconstructed %d rules, want %d", cfgIdx, len(got), len(want))
			}
			for rid := range want {
				if !got[rid] {
					t.Fatalf("config %d: missing rule %d", cfgIdx, rid)
				}
			}
		}
	}
}

// TestGreedyVsOptimal measures the heuristic against brute force on small
// instances: it must be within 25% of optimal and usually equal.
func TestGreedyVsOptimal(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	worse := 0
	for trial := 0; trial < 25; trial++ {
		configs := make([]RuleSet, 4)
		for i := range configs {
			configs[i] = RuleSet{}
			for id := 0; id < 8; id++ {
				if r.Intn(2) == 0 {
					configs[i][id] = true
				}
			}
		}
		g, err := Greedy(configs)
		if err != nil {
			t.Fatal(err)
		}
		o, err := Optimal(configs)
		if err != nil {
			t.Fatal(err)
		}
		if g.TotalRules() < o.TotalRules() {
			t.Fatalf("greedy (%d) beat 'optimal' (%d) — optimal search is broken", g.TotalRules(), o.TotalRules())
		}
		if g.TotalRules() > o.TotalRules() {
			worse++
			if float64(g.TotalRules()) > 1.25*float64(o.TotalRules()) {
				t.Fatalf("greedy (%d) more than 25%% above optimal (%d)", g.TotalRules(), o.TotalRules())
			}
		}
	}
	t.Logf("greedy suboptimal on %d/25 instances", worse)
}

// TestFromTablesAppReduction applies the optimizer to the paper's
// applications: rule counts must strictly decrease for every multi-config
// app, mirroring the paper's 18->16, 43->27, 72->46, 158->101, 152->133.
func TestFromTablesAppReduction(t *testing.T) {
	for _, a := range apps.All() {
		e, err := ets.Build(a.Prog, a.Topo)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		var tabs []flowtable.Tables
		for _, v := range e.Vertices {
			tabs = append(tabs, v.Tables)
		}
		configs, _ := FromTables(tabs)
		naive := Naive(configs)
		g, err := Greedy(configs)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		got := g.TotalRules()
		if got >= naive {
			t.Errorf("%s: no reduction (%d -> %d)", a.Name, naive, got)
		}
		t.Logf("%s: %d -> %d rules (%.0f%% saved)", a.Name, naive, got, 100*float64(naive-got)/float64(naive))
	}
}

// TestFromTablesFDDRuleSharing checks the trie heuristic over rules
// emitted by the compiler and by its DNF oracle: identical rules across
// configurations must collapse to shared IDs (the universe is smaller
// than the naive count), and guard widening must keep reducing totals on
// the compiler's disjoint-match tables just as on the oracle's.
func TestFromTablesFDDRuleSharing(t *testing.T) {
	for _, c := range []struct {
		name    string
		compile func(netkat.Policy, *topo.Topology) (flowtable.Tables, error)
	}{{"fdd", func(p netkat.Policy, t *topo.Topology) (flowtable.Tables, error) {
		pc, err := nkc.NewProgramCompiler(stateful.Lift(p), t, nil)
		if err != nil {
			return nil, err
		}
		return pc.Compile(nil)
	}}, {"dnf", nkc.CompileDNF}} {
		name, compile := c.name, c.compile
		for _, a := range []apps.App{apps.Firewall(), apps.IDS()} {
			states, _, err := a.Prog.ReachableStates()
			if err != nil {
				t.Fatal(err)
			}
			var tabs []flowtable.Tables
			for _, k := range states {
				tables, err := compile(stateful.Project(a.Prog.Cmd, k), a.Topo)
				if err != nil {
					t.Fatalf("%s/%v: %v", name, a.Name, err)
				}
				tabs = append(tabs, tables)
			}
			configs, universe := FromTables(tabs)
			naive := Naive(configs)
			if universe >= naive {
				t.Errorf("%s/%s: no cross-configuration rule sharing (universe %d, naive %d)", name, a.Name, universe, naive)
			}
			g, err := Greedy(configs)
			if err != nil {
				t.Fatal(err)
			}
			if got := g.TotalRules(); got >= naive {
				t.Errorf("%s/%s: trie did not reduce (%d -> %d)", name, a.Name, naive, got)
			}
		}
	}
}

func TestGuardRendering(t *testing.T) {
	g := flowtable.VersionGuard{Value: 0b10, Mask: 0b10}
	if s := g.String(); s != "1*" {
		t.Errorf("guard 1*: got %q", s)
	}
	g = flowtable.ExactGuard(3, 2)
	if s := g.String(); s != "11" {
		t.Errorf("guard 11: got %q", s)
	}
	if !g.Matches(3) || g.Matches(2) {
		t.Error("exact guard matching broken")
	}
}

// TestGuardedRulesPaperGuards: the Figure 18(b) arrangement yields the
// paper's guards — (0*)r1, (0*)r2, (1*)r3, (10)r1, (11)r2.
func TestGuardedRulesPaperGuards(t *testing.T) {
	c0 := NewRuleSet(1, 2)
	c3 := NewRuleSet(1, 2)
	c1 := NewRuleSet(1, 3)
	c2 := NewRuleSet(2, 3)
	tr := buildFromOrder([]RuleSet{c0, c3, c1, c2}, []int{0, 3, 1, 2})
	got := map[string]bool{}
	for _, gr := range tr.GuardedRules() {
		got[gr.Guard.String()+"r"+itoa(gr.Rule)] = true
	}
	for _, want := range []string{"0*r1", "0*r2", "1*r3", "10r1", "11r2"} {
		if !got[want] {
			t.Errorf("missing guarded rule %s (got %v)", want, got)
		}
	}
	if len(got) != 5 {
		t.Errorf("guarded rules: %v", got)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// NewRuleSet builds a rule set from IDs.
func NewRuleSet(ids ...int) RuleSet {
	s := RuleSet{}
	for _, id := range ids {
		s[id] = true
	}
	return s
}

// GuardedRules enumerates the (guard, rule-ID) pairs the trie installs —
// one entry per shared rule with its wildcarded guard.
func (t *Trie) GuardedRules() []struct {
	Guard flowtable.VersionGuard
	Rule  int
} {
	var out []struct {
		Guard flowtable.VersionGuard
		Rule  int
	}
	var walk func(n *Node, parent RuleSet)
	walk = func(n *Node, parent RuleSet) {
		if n == nil || !n.HasReal {
			return
		}
		own := n.Rules.Minus(parent)
		ids := make([]int, 0, len(own))
		for id := range own {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			out = append(out, struct {
				Guard flowtable.VersionGuard
				Rule  int
			}{n.Guard, id})
		}
		walk(n.Children[0], n.Rules)
		walk(n.Children[1], n.Rules)
	}
	walk(t.Root, RuleSet{})
	return out
}
