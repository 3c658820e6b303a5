package chaos

import "eventnet/internal/ctrl"

// RunServed replays a schedule against a served engine — supervisor
// goroutine, asynchronous boundaries — with program swaps going through
// the controller's northbound Swap path, the integration surface the
// synchronous runner cannot cover. Boundary placement is
// timing-dependent in served mode, so the delivery Hash is not
// comparable across runs; the audit invariant (Mixed == Dropped == 0)
// must hold regardless. Options.ChunkGens applies as in Run.
func RunServed(s Schedule, o Options) (*Result, error) {
	sc, err := buildScenario(s.Scenario)
	if err != nil {
		return nil, err
	}
	workers := o.Workers
	if workers <= 0 {
		workers = 2
	}
	c := ctrl.New(sc.tp, ctrl.Options{Workers: workers, ChunkGens: o.ChunkGens, Obs: o.Obs})
	defer c.Close()
	if err := c.Load(sc.progs[0].Name, sc.progs[0].Prog); err != nil {
		return nil, err
	}
	view := func(p *ctrl.Program) epoch { return epoch{p.Name, p.Prog.Cmd, p.ETS} }
	return play(sc, s, o, workers, driver{
		e: c.Engine(), nes: c.Current().NES, first: view(c.Current()),
		swap: func(_, to int) (epoch, error) {
			_, err := c.Swap(sc.progs[to].Name, sc.progs[to].Prog)
			return view(c.Current()), err
		},
	})
}
