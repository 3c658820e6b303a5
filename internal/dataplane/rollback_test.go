package dataplane_test

import (
	"fmt"
	"strings"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/dataplane"
	"eventnet/internal/netkat"
	"eventnet/internal/obs"
)

// A packet's header map is walked once at the boundary, and the walk is
// also the domain check — so a packet may be found bad after some of it
// has been interned. Which part depends on Go's map order: the offending
// field is visited first on one call and last on the next.

const outOfDomain = 1 << 32

// rollbackCase is one shape of bad packet (entering at H1): bad names
// its out-of-domain fields, any of which the error may quote.
type rollbackCase struct {
	name   string
	fields netkat.Packet
	bad    []string
}

// rollbackCases: dst is in the schema of both programs under test, id
// and tos in neither.
func rollbackCases() []rollbackCase {
	return []rollbackCase{
		{"only-field", netkat.Packet{"dst": outOfDomain}, []string{"dst"}},
		{"schema-beside-inert", netkat.Packet{"dst": outOfDomain, "id": 5, "tos": 1}, []string{"dst"}},
		{"inert-beside-schema", netkat.Packet{"dst": apps.H(4), "tos": outOfDomain}, []string{"tos"}},
		{"every-field", netkat.Packet{"dst": outOfDomain, "src": outOfDomain, "id": outOfDomain}, []string{"dst", "src", "id"}},
	}
}

// rejects reports whether err is the domain rejection of one of c's bad
// fields, in the words the boundary has always used.
func (c rollbackCase) rejects(err error) bool {
	for _, f := range c.bad {
		if err != nil && err.Error() == fmt.Sprintf("dataplane: header field %q value %d outside the int32 flat-value domain", f, outOfDomain) {
			return true
		}
	}
	return false
}

// metricsOnly attaches the counters and nothing else.
func metricsOnly() *obs.Obs { return &obs.Obs{Metrics: obs.NewMetrics(1)} }

// ingressPaths are the map-form ways in. Each admits the batch and
// returns per-packet errors (nil = none) and, where the path reports
// them, the stamps.
var ingressPaths = []struct {
	name   string
	served bool
	sync   bool // admitted before the call returns, nothing run yet
	admit  func(e *dataplane.Engine, batch []dataplane.Injection) ([]dataplane.Stamp, []error)
}{
	{"InjectBatch", false, true, func(e *dataplane.Engine, batch []dataplane.Injection) ([]dataplane.Stamp, []error) {
		return e.InjectBatch(batch)
	}},
	// One packet at a time, each a one-element InjectBatch with its stamp.
	{"InjectStamped", false, true, func(e *dataplane.Engine, batch []dataplane.Injection) ([]dataplane.Stamp, []error) {
		stamps := make([]dataplane.Stamp, len(batch))
		var errs []error
		for i, in := range batch {
			st, err := injectOne(e, in)
			if stamps[i] = st; err != nil {
				if errs == nil {
					errs = make([]error, len(batch))
				}
				errs[i] = err
			}
		}
		return stamps, errs
	}},
	{"InjectAsyncBatch", false, true, func(e *dataplane.Engine, batch []dataplane.Injection) ([]dataplane.Stamp, []error) {
		return nil, e.InjectAsyncBatch(batch)
	}},
	{"InjectAsyncBatch-served", true, false, func(e *dataplane.Engine, batch []dataplane.Injection) ([]dataplane.Stamp, []error) {
		return nil, e.InjectAsyncBatch(batch)
	}},
}

// TestRejectedPacketLeavesNothing: a batch with bad packets in it must be
// indistinguishable — errors aside — from the same batch without them,
// admitted packet by packet: same stamps, same deliveries with every
// inert field, the same seq, injection count, free list and inert sets.
// Every round runs on the same pair of engines, so anything a rejected
// packet left behind has 200 rounds to show.
func TestRejectedPacketLeavesNothing(t *testing.T) {
	const rounds, perRound = 200, 6
	t.Run("FlatMatcher.Process", flatMatcherRejectsOnce)
	for _, a := range []apps.App{apps.DistributedFirewall(), apps.Firewall()} {
		n := buildNES(t, a)
		for _, c := range rollbackCases() {
			for _, p := range ingressPaths {
				t.Run(a.Name+"/"+c.name+"/"+p.name, func(t *testing.T) {
					refObs, gotObs := metricsOnly(), metricsOnly()
					ref := dataplane.NewEngine(n, a.Topo, dataplane.Options{Workers: 1, Obs: refObs})
					e := dataplane.NewEngine(n, a.Topo, dataplane.Options{Workers: 1, Obs: gotObs})
					if p.served {
						e.Start()
						defer e.Stop()
					}
					settle := func() {
						if err := ref.Run(); err != nil {
							t.Fatal(err)
						}
						if p.served {
							e.Quiesce()
						} else if err := e.Run(); err != nil {
							t.Fatal(err)
						}
					}
					// Packets no rule matches die at their first hop and hand
					// their value arrays to the free list, so every round starts
					// with arrays for a rejected packet to take and fail to return.
					refill := make([]dataplane.Injection, perRound+2)
					for i := range refill {
						refill[i] = dataplane.Injection{Host: "H1", Fields: netkat.Packet{"dst": 7}}
					}
					lg := dataplane.NewLoadGen(n, a.Topo, 23)
					bad := dataplane.Injection{Host: "H1", Fields: c.fields}
					admitted := int64(0)
					for round := 0; round < rounds; round++ {
						for _, eng := range []*dataplane.Engine{ref, e} {
							if errs := eng.InjectAsyncBatch(refill); errs != nil {
								t.Fatal(errs)
							}
						}
						settle()
						admitted += int64(len(refill))

						good := lg.Injections(perRound)
						batch := append(append(append(append([]dataplane.Injection{}, good[:2]...), bad), good[2:]...), bad)
						isBad := func(i int) bool { return i == 2 || i == len(batch)-1 }

						var want []dataplane.Stamp
						for _, in := range good {
							st, err := injectOne(ref, in)
							if err != nil {
								t.Fatal(err)
							}
							want = append(want, st)
						}
						seq0, _, _ := e.IngressState()
						stamps, errs := p.admit(e, batch)
						if len(errs) != len(batch) {
							t.Fatalf("round %d: %d errors for a batch of %d with two bad packets", round, len(errs), len(batch))
						}
						for i, k := 0, 0; i < len(batch); i++ {
							switch {
							case isBad(i) && !c.rejects(errs[i]):
								t.Fatalf("round %d: errs[%d] = %v, want the domain rejection of one of %v", round, i, errs[i], c.bad)
							case isBad(i) && stamps != nil && stamps[i] != (dataplane.Stamp{}):
								t.Fatalf("round %d: rejected packet %d got stamp %+v", round, i, stamps[i])
							case !isBad(i) && errs[i] != nil:
								t.Fatalf("round %d: good packet %d rejected: %v", round, i, errs[i])
							case !isBad(i) && stamps != nil && stamps[i] != want[k]:
								t.Fatalf("round %d: packet %d stamped %+v, the reference %+v", round, i, stamps[i], want[k])
							}
							if !isBad(i) {
								k++
							}
						}
						admitted += perRound
						if p.sync {
							seq, free, slack := e.IngressState()
							_, refFree, _ := ref.IngressState()
							if seq-seq0 != perRound {
								t.Fatalf("round %d: seq advanced by %d for %d admitted packets", round, seq-seq0, perRound)
							}
							if free < refFree {
								t.Fatalf("round %d: free list holds %d arrays, %d without the bad packets", round, free, refFree)
							}
							if slack != 0 {
								t.Fatalf("round %d: the queued packets' inert sets hold %d pairs no packet owns", round, slack)
							}
						}
						settle()
						seq, free, _ := e.IngressState()
						refSeq, refFree, _ := ref.IngressState()
						if seq != refSeq || free < refFree {
							t.Fatalf("round %d: seq %d, %d free arrays; the reference %d, %d", round, seq, free, refSeq, refFree)
						}
						if got, want := gotObs.Metrics.Counter(obs.CtrInjections), refObs.Metrics.Counter(obs.CtrInjections); got != admitted || want != admitted {
							t.Fatalf("round %d: %d injections counted, the reference %d, admitted %d", round, got, want, admitted)
						}
					}
					want, got := ref.Deliveries(), e.CopyDeliveries(0)
					if i := sameStamped(want, got); i != -1 {
						t.Fatalf("deliveries diverge from the skip-sequential reference at %d of %d/%d", i, len(want), len(got))
					}
					if len(want) < rounds {
						t.Fatalf("%d deliveries over %d rounds; a leak would have nowhere to show", len(want), rounds)
					}
					if _, free, _ := ref.IngressState(); free == 0 {
						t.Fatal("the reference's free list is empty; an array not returned would not be missed")
					}
				})
			}
		}
	}
}

// flatMatcherRejectsOnce: the standalone matcher walks the packet once
// too, and still refuses an out-of-domain value by panicking — whichever
// field the walk meets first — and forwards the next packet as the
// reference scan does.
func flatMatcherRejectsOnce(t *testing.T) {
	a := apps.Firewall()
	n := buildNES(t, a)
	tbl := n.Configs[0].Tables[1]
	m := dataplane.CompileFlat(tbl, dataplane.PlanFor(n).Schema())
	good := netkat.Packet{"dst": apps.H(4), "src": apps.H(1), "id": 3}
	for _, c := range rollbackCases() {
		for i := 0; i < 200; i++ {
			panics := 0
			func() {
				defer func() {
					if r := recover(); r != nil {
						panics++
						msg, _ := r.(string)
						if err := strings.TrimPrefix(msg, "dataplane: FlatMatcher.Process: "); !c.rejects(fmt.Errorf("%s", err)) {
							t.Fatalf("%s: panicked with %v", c.name, r)
						}
					}
				}()
				m.Process(nil, c.fields, 2, 0)
			}()
			if panics != 1 {
				t.Fatalf("%s: %d panics, want 1", c.name, panics)
			}
			if got, want := m.Process(nil, good, 2, 0), tbl.AppendProcess(nil, good, 2, 0); !sameOutputs(got, want) || len(want) == 0 {
				t.Fatalf("%s: after the rejection the matcher emits %v, the scan %v", c.name, got, want)
			}
		}
	}
}
