package ctrl_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"eventnet/internal/apps"
	"eventnet/internal/ctrl"
	"eventnet/internal/netkat"
	"eventnet/internal/obs"
)

// TestControllerObsSwapPhases checks the controller-plus-engine phase
// feed end to end: one hot swap publishes stage, then flip, then retire
// (with optional drain events in between), and the controller records
// compile metrics for each fresh build.
func TestControllerObsSwapPhases(t *testing.T) {
	fw := apps.Firewall()
	o := &obs.Obs{Metrics: obs.NewMetrics(1), Bus: obs.NewBus()}
	sub := o.Bus.Subscribe(256, obs.KindSwap)
	c := ctrl.New(fw.Topo, ctrl.Options{Workers: 2, Obs: o})
	defer c.Close()
	if err := c.Load("firewall", fw.Prog); err != nil {
		t.Fatal(err)
	}
	inject(t, c, "H1", netkat.Packet{"dst": apps.H(4), "src": apps.H(1)})
	c.Engine().Quiesce()
	capp := apps.BandwidthCap(3)
	if _, err := c.Swap(capp.Name, capp.Prog); err != nil {
		t.Fatal(err)
	}
	c.Engine().Quiesce()
	sub.Close()

	var phases []string
	for ev := range sub.C {
		phases = append(phases, ev.Phase)
	}
	if len(phases) < 3 || phases[0] != "stage" {
		t.Fatalf("swap phases = %v, want stage first", phases)
	}
	if phases[1] != "flip" || phases[len(phases)-1] != "retire" {
		t.Fatalf("swap phases = %v, want stage, flip, ..., retire", phases)
	}
	for _, p := range phases[2 : len(phases)-1] {
		if p != "drain" {
			t.Fatalf("unexpected phase %q between flip and retire: %v", p, phases)
		}
	}

	// Two fresh builds (firewall, cap) went through the compile pipeline.
	if got := o.Metrics.Counter(obs.CtrCompiles); got != 2 {
		t.Fatalf("CtrCompiles = %d, want 2", got)
	}
	if got := o.Metrics.HistCount(obs.HistCompileNs); got != 2 {
		t.Fatalf("HistCompileNs count = %d, want 2", got)
	}
	lookups := o.Metrics.Counter(obs.CtrCompileTableHits) + o.Metrics.Counter(obs.CtrCompileTableMisses)
	if lookups == 0 {
		t.Fatal("no compile cache lookups recorded")
	}
	if o.Metrics.Gauge(obs.GaugeFDDNodes) == 0 {
		t.Fatal("GaugeFDDNodes = 0 after two builds")
	}
	if o.Metrics.Gauge(obs.GaugeInternEntries) == 0 {
		t.Fatal("GaugeInternEntries = 0 after two builds")
	}
	if o.Metrics.Gauge(obs.GaugeArenaBytes) == 0 {
		t.Fatal("GaugeArenaBytes = 0 after two builds")
	}
	if hw, b := o.Metrics.Gauge(obs.GaugeArenaHighWater), o.Metrics.Gauge(obs.GaugeArenaBytes); hw < b {
		t.Fatalf("GaugeArenaHighWater = %d below current arena %d", hw, b)
	}

	// Swapping back to the memoized firewall is an LRU hit: no new
	// compile is recorded.
	if _, err := c.Swap("firewall", fw.Prog); err != nil {
		t.Fatal(err)
	}
	if got := o.Metrics.Counter(obs.CtrCompiles); got != 2 {
		t.Fatalf("memo-hit swap recorded a compile: CtrCompiles = %d", got)
	}
}

// TestCompileCacheResetIsVisible: the compiler cache shares one context
// across 32 builds and resets wholesale before the 33rd, which then
// compiles cold. An operator
// sees that as compile_cache_resets moving, and the template memo's
// effect as compile_template_hits against _misses — the revisions before
// the reset walk Figure 6 for what they add, the one after it for all.
func TestCompileCacheResetIsVisible(t *testing.T) {
	o := &obs.Obs{Metrics: obs.NewMetrics(1)}
	c := ctrl.New(apps.BandwidthCap(40).Topo, ctrl.Options{Obs: o})
	defer c.Close()
	misses := func() int64 { return o.Metrics.Counter(obs.CtrCompileTemplateMisses) }
	var warm, cold int64
	for n := 40; n < 73; n++ {
		a := apps.BandwidthCap(n)
		before := misses()
		if _, err := c.Compile(a.Name, a.Prog); err != nil {
			t.Fatal(err)
		}
		switch resets := o.Metrics.Gauge(obs.GaugeCompileCacheResets); {
		case n < 72 && resets != 0:
			t.Fatalf("compile %d of 33: compile_cache_resets = %d, want 0", n-39, resets)
		case n == 71:
			warm = misses() - before
		case n == 72 && resets != 1:
			t.Fatalf("33rd distinct program: compile_cache_resets = %d, want 1", resets)
		case n == 72:
			cold = misses() - before
		}
	}
	if o.Metrics.Counter(obs.CtrCompileTemplateHits) == 0 {
		t.Fatal("compile_template_hits = 0 after 33 revisions")
	}
	if warm > 4 || cold < 10*warm || cold == 0 {
		t.Fatalf("template walks: %d for the revision before the reset, %d for the one after; want <= 4 and at least ten times that", warm, cold)
	}
}

// TestControllerHealth pins the no-round-trip health probe across the
// controller lifecycle: degraded before Load, healthy while serving,
// degraded again once the engine stops.
func TestControllerHealth(t *testing.T) {
	fw := apps.Firewall()
	c := ctrl.New(fw.Topo, ctrl.Options{Workers: 1})
	if ok, reason := c.Health(); ok || reason != "no program loaded" {
		t.Fatalf("pre-Load Health = %v %q", ok, reason)
	}
	if err := c.Load("firewall", fw.Prog); err != nil {
		t.Fatal(err)
	}
	if ok, reason := c.Health(); !ok {
		t.Fatalf("serving controller unhealthy: %q", reason)
	}
	c.Close()
	if ok, reason := c.Health(); ok || reason != "engine stopped" {
		t.Fatalf("post-Close Health = %v %q", ok, reason)
	}
}

// TestSwapWedged runs the wedged-swap path: a drain held past the swap
// timeout makes Swap return its flipped-but-not-drained error and
// Health report the drain, takes exactly one automatic flight dump
// however often Health is polled, and clears once the drain completes.
//
// The drain is held by an engine barrier (a Do that waits) that must
// land after the flip and before the old program retires. Which barrier
// request the supervisor serves first is not the test's to choose, so
// the holding request checks the swap phases it has seen on the bus and
// holds only in that window; an attempt that misses it is retried.
func TestSwapWedged(t *testing.T) {
	for attempt := 0; attempt < 100; attempt++ {
		if wedgeSwap(t) {
			return
		}
	}
	t.Fatal("no attempt held a drain between the flip and the retirement")
}

// TestSwapWhileWedged: a Swap while an earlier swap's drain is held past
// the timeout is refused at once, and Health goes on reporting the held
// drain. A retried swap used to overwrite the drain's start time and,
// refused by the engine, zero it, so Health answered ok while the old
// program was still draining.
func TestSwapWhileWedged(t *testing.T) {
	fw := apps.Firewall()
	retry := func(c *ctrl.Controller) {
		retried := make(chan error, 1)
		go func() {
			_, err := c.Swap(fw.Name, fw.Prog)
			retried <- err
		}()
		select {
		case err := <-retried:
			if err == nil {
				t.Error("a Swap during a held drain succeeded")
			}
		case <-time.After(2 * time.Second):
			t.Error("a Swap during a held drain did not return")
		}
		for i := 0; i < 20; i++ {
			if ok, reason := c.Health(); ok || !strings.Contains(reason, "swap draining") {
				t.Errorf("Health after a retried swap = %v %q", ok, reason)
				return
			}
		}
	}
	for attempt := 0; attempt < 100; attempt++ {
		if holdDrain(t, retry) {
			return
		}
	}
	t.Fatal("no attempt held a drain between the flip and the retirement")
}

func wedgeSwap(t *testing.T) bool { return holdDrain(t, func(*ctrl.Controller) {}) }

// holdDrain runs a swap whose drain it holds past the swap timeout,
// calls during while the drain is held, and checks the wedge's dump and
// its clearing. It reports false when the attempt missed the window
// between the flip and the retirement.
func holdDrain(t *testing.T, during func(*ctrl.Controller)) bool {
	fw, capp := apps.Firewall(), apps.BandwidthCap(3)
	o := &obs.Obs{Bus: obs.NewBus(), Flight: obs.NewFlight(0, 1)}
	phases := o.Bus.Subscribe(64, obs.KindSwap)
	dumps := make(chan *obs.FlightDump, 4)
	c := ctrl.New(fw.Topo, ctrl.Options{Workers: 1, Obs: o, OnWedgeDump: func(d *obs.FlightDump) { dumps <- d }})
	defer c.Close()
	const timeout = 20 * time.Millisecond
	ctrl.SetSwapTimeout(c, timeout)
	if err := c.Load("firewall", fw.Prog); err != nil {
		t.Fatal(err)
	}
	e := c.Engine()

	// Hold the engine at a barrier with firewall packets queued, so the
	// flip finds the old program in flight.
	release, held := make(chan struct{}), make(chan struct{})
	go e.Do(func() {
		for i := 0; i < 8; i++ {
			if err := e.Inject("H1", netkat.Packet{"dst": apps.H(4), "src": apps.H(1), "id": i}); err != nil {
				t.Error(err)
			}
		}
		close(held)
		<-release
	})
	<-held
	swapped := make(chan error, 1)
	go func() {
		_, err := c.Swap(capp.Name, capp.Prog)
		swapped <- err
	}()
	if ev := <-phases.C; ev.Phase != "stage" {
		t.Fatalf("first swap phase %q, want stage", ev.Phase)
	}
	for i := 0; i < 10; i++ {
		runtime.Gosched() // let Swap queue its flip behind the held barrier
	}
	wedge, holding := make(chan struct{}), make(chan bool, 1)
	go e.Do(func() {
		flipped, retired := false, false
		for seen := true; seen; {
			select {
			case ev := <-phases.C:
				flipped = flipped || ev.Phase == "flip"
				retired = retired || ev.Phase == "retire"
			default:
				seen = false
			}
		}
		holding <- flipped && !retired
		if flipped && !retired {
			<-wedge
		}
	})
	for i := 0; i < 10; i++ {
		runtime.Gosched() // let the holding request queue behind the flip
	}
	close(release)
	if !<-holding {
		<-swapped
		return false
	}

	if err := <-swapped; err == nil || !strings.Contains(err.Error(), "flipped but did not drain") {
		t.Fatalf("Swap over a held drain returned %v", err)
	}
	for i := 0; i < 20; i++ {
		if ok, reason := c.Health(); ok || !strings.Contains(reason, "swap draining") {
			t.Fatalf("Health during a wedged swap = %v %q", ok, reason)
		}
	}
	during(c)
	close(wedge)
	select {
	case d := <-dumps:
		if d == nil {
			t.Fatal("OnWedgeDump got a nil dump")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no flight dump for the wedged swap")
	}
	deadline := time.Now().Add(10 * time.Second)
	for ok, reason := c.Health(); !ok; ok, reason = c.Health() {
		if time.Now().After(deadline) {
			t.Fatalf("Health after the drain completed = %v %q", ok, reason)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-dumps:
		t.Fatal("OnWedgeDump ran twice for one wedge")
	default:
	}
	return true
}
