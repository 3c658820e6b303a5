package exp

import (
	"fmt"

	"eventnet/internal/chaos"
	"eventnet/internal/obs"
)

// ChaosResult carries the chaos audit table plus the counters the CLI
// and tests gate on.
type ChaosResult struct {
	Table      *Table
	Audited    int
	Violations int
	// Reproducers holds one minimized reproducer line per violating run
	// (see docs/CHAOS.md); empty when every run is clean. FlightDumps is
	// parallel to it: the deterministic flight record of each minimized
	// reproducer's replay.
	Reproducers []string
	FlightDumps []*obs.FlightDump
}

// Chaos is the standing differential audit as an experiment: every
// scenario family × every seed, one synchronous audited run each, plus a
// served-engine run for the swap-bearing scenarios. Each row reports the
// op mix, the audited delivery count and the two violation counters;
// rows with violations carry a minimized reproducer in the result.
func Chaos(rounds int, seeds []int64, workers int) (*ChaosResult, error) {
	t := &Table{
		Title: fmt.Sprintf("Chaos audit: %d rounds/run, %d workers, every delivery checked against Eval", rounds, workers),
		Columns: []string{"scenario", "mode", "seed", "ops", "injected", "audited",
			"fails", "recovers", "storms", "swaps", "mixed", "dropped"},
	}
	out := &ChaosResult{Table: t}
	addRow := func(mode string, r *chaos.Result) {
		t.Rows = append(t.Rows, []string{
			r.Scenario, mode, fmt.Sprint(r.Seed), fmt.Sprint(r.Ops),
			fmt.Sprint(r.Injected), fmt.Sprint(r.Audited),
			fmt.Sprint(r.Fails), fmt.Sprint(r.Recovers), fmt.Sprint(r.Storms), fmt.Sprint(r.Swaps),
			fmt.Sprint(r.Mixed), fmt.Sprint(r.Dropped),
		})
		out.Audited += r.Audited
		out.Violations += r.Violations()
	}
	for _, name := range chaos.Scenarios() {
		for _, seed := range seeds {
			s, err := chaos.NewSchedule(name, seed, rounds)
			if err != nil {
				return nil, err
			}
			res, repro, dump, err := chaos.Audit(s, chaos.Options{Workers: workers})
			if err != nil {
				return nil, err
			}
			addRow("sync", res)
			if repro != nil {
				out.Reproducers = append(out.Reproducers, repro.Reproducer())
				out.FlightDumps = append(out.FlightDumps, dump)
			}
		}
	}
	// Served-engine pass: controller-driven swaps under asynchronous
	// barriers, audit-only (no determinism claim there).
	for _, name := range []string{"storm-swap", "wan-failover"} {
		s, err := chaos.NewSchedule(name, seeds[0], rounds/2)
		if err != nil {
			return nil, err
		}
		res, err := chaos.RunServed(s, chaos.Options{Workers: workers})
		if err != nil {
			return nil, err
		}
		addRow("served", res)
	}
	return out, nil
}
