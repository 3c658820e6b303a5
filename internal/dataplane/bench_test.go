package dataplane_test

import (
	"fmt"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/dataplane"
	"eventnet/internal/obs"
)

// BenchmarkEngineForwardCold measures first-batch engine forwarding: a
// fresh engine per iteration (built outside the timed region), so every
// iteration pays the cold-start costs — ring growth, per-switch event
// memos, free-list population — that the steady-state benchmark below
// deliberately excludes. ns/op divided by hops/op gives per-hop cost;
// hops/op is stable because the workload is seeded.
func BenchmarkEngineForwardCold(b *testing.B) {
	a := apps.BandwidthCap(40)
	n := buildNES(b, a)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			lg := dataplane.NewLoadGen(n, a.Topo, 13)
			batch := lg.Injections(256)
			var hops int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := dataplane.NewEngine(n, a.Topo, dataplane.Options{Workers: workers})
				b.StartTimer()
				for _, in := range batch {
					if err := e.Inject(in.Host, in.Fields); err != nil {
						b.Fatal(err)
					}
				}
				if err := e.Run(); err != nil {
					b.Fatal(err)
				}
				hops += e.Processed()
			}
			b.ReportMetric(float64(hops)/float64(b.N), "hops/op")
		})
	}
}

// BenchmarkEngineForwardSteady is the multi-core acceptance benchmark:
// one warm engine per worker count, each iteration a 256-packet
// InjectBatch plus a run to quiescence. The warm-up rounds before the
// timer absorb the cold-start skew the old combined benchmark mixed
// into every worker count, so ns/op here is the steady-state cost, and
// the reported ns/hop and pps are directly comparable across worker
// counts: CI's scaling gate is workers-1 ns/op over workers-4 ns/op at
// GOMAXPROCS=4, a ratio taken on one machine in one process. The
// delivery log is bounded so long runs do not accrete.
func BenchmarkEngineForwardSteady(b *testing.B) {
	a := apps.BandwidthCap(40)
	n := buildNES(b, a)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			e := dataplane.NewEngine(n, a.Topo, dataplane.Options{Workers: workers, DeliveryLog: 1 << 14})
			lg := dataplane.NewLoadGen(n, a.Topo, 13)
			batch := lg.Injections(256)
			round := func() {
				if _, errs := e.InjectBatch(batch); errs != nil {
					b.Fatal(errs)
				}
				if err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 8; i++ {
				round()
			}
			h0 := e.Processed()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
			b.StopTimer()
			hops := float64(e.Processed()-h0) / float64(b.N)
			b.ReportMetric(hops, "hops/op")
			if b.Elapsed() > 0 {
				b.ReportMetric(float64(e.Processed()-h0)/b.Elapsed().Seconds(), "hops/s")
				b.ReportMetric(float64(b.N*len(batch))/b.Elapsed().Seconds(), "pps")
			}
		})
	}
}

// BenchmarkEngineForwardObs is the telemetry overhead gate: the exact
// steady-state workload of BenchmarkEngineForwardSteady (one worker),
// metrics-off vs the full observability layer — sharded metrics, 1/64
// journey tracing, delivery sampling, and a live bus subscriber
// draining the feed. CI compares the two ns/op and fails the build when
// metrics-on exceeds metrics-off by more than 5% (docs/OBSERVABILITY.md
// explains why the margin holds: all hot-path recording is plain stores
// into per-worker shards, folded only at chunk barriers).
func BenchmarkEngineForwardObs(b *testing.B) {
	a := apps.BandwidthCap(40)
	n := buildNES(b, a)
	run := func(b *testing.B, o *obs.Obs) {
		e := dataplane.NewEngine(n, a.Topo, dataplane.Options{Workers: 1, DeliveryLog: 1 << 14, Obs: o})
		lg := dataplane.NewLoadGen(n, a.Topo, 13)
		batch := lg.Injections(256)
		round := func() {
			if _, errs := e.InjectBatch(batch); errs != nil {
				b.Fatal(errs)
			}
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			round()
		}
		h0 := e.Processed()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round()
		}
		b.StopTimer()
		b.ReportMetric(float64(e.Processed()-h0)/float64(b.N), "hops/op")
	}
	withSub := func(b *testing.B, o *obs.Obs) {
		sub := o.Bus.Subscribe(1024)
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for range sub.C {
			}
		}()
		defer func() { sub.Close(); <-drained }()
		run(b, o)
	}
	b.Run("metrics-off", func(b *testing.B) { run(b, nil) })
	b.Run("metrics-on", func(b *testing.B) {
		withSub(b, &obs.Obs{
			Metrics:        obs.NewMetrics(1),
			Bus:            obs.NewBus(),
			Trace:          obs.NewTracer(obs.DefaultSample, 1),
			DeliverySample: 16,
		})
	})
	// metrics-flight is the PR-9 full-stack leg: everything metrics-on
	// carries plus the flight recorder and the watchdog. CI gates it
	// against metrics-off at the same 1.05x ratio (the leg name must not
	// contain "metrics-on" or "metrics-off"; the gate matches substrings).
	b.Run("metrics-flight", func(b *testing.B) {
		withSub(b, &obs.Obs{
			Metrics:        obs.NewMetrics(1),
			Bus:            obs.NewBus(),
			Trace:          obs.NewTracer(obs.DefaultSample, 1),
			Flight:         obs.NewFlight(0, 1),
			Watch:          obs.NewWatchdog(),
			DeliverySample: 16,
		})
	})
}

// BenchmarkInjectBatch measures ingress alone — host resolution, the
// intern of every field, the stamp and the queueing — for the two
// map-form batch entry points on a non-serving engine, where both admit
// inline. Each iteration injects one 512-packet LoadGen batch (eight
// are cycled) with the timer running and drains it with the timer
// stopped, so ns/pkt is the per-packet ingress cost the engine-forward
// benchmark's cost_a_us and cost_b_us include.
func BenchmarkInjectBatch(b *testing.B) {
	for _, a := range []apps.App{apps.BandwidthCap(200), apps.IDSFatTree(4)} {
		n := buildNES(b, a)
		lg := dataplane.NewLoadGen(n, a.Topo, 13)
		var batches [8][]dataplane.Injection
		for i := range batches {
			batches[i] = lg.Injections(512)
		}
		ways := []struct {
			name   string
			inject func(*dataplane.Engine, []dataplane.Injection) []error
		}{
			{"InjectBatch", func(e *dataplane.Engine, ins []dataplane.Injection) []error {
				_, errs := e.InjectBatch(ins)
				return errs
			}},
			{"InjectAsyncBatch", (*dataplane.Engine).InjectAsyncBatch},
		}
		for _, way := range ways {
			b.Run(a.Name+"/"+way.name, func(b *testing.B) {
				e := dataplane.NewEngine(n, a.Topo, dataplane.Options{Workers: 1, DeliveryLog: 1 << 14})
				round := func(i int) {
					if errs := way.inject(e, batches[i%len(batches)]); errs != nil {
						b.Fatal(errs)
					}
					b.StopTimer()
					if err := e.Run(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				for i := 0; i < 2*len(batches); i++ {
					round(i)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					round(i)
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*512), "ns/pkt")
			})
		}
	}
}
