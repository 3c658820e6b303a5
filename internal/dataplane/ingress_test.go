package dataplane_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/dataplane"
	"eventnet/internal/ets"
	"eventnet/internal/netkat"
	"eventnet/internal/syntax"
)

// Flat-ingress equivalence: every entry point fills a Batch and admit
// interns it, so what the served path changes is when and where that
// happens — queued in a serving engine's inbox and admitted by the
// supervisor at a boundary, instead of inline in the caller. It must
// yield the delivery sequence (host, fields, stamp) of the synchronous
// InjectBatch whatever the worker count, with and without inert fields,
// for a batch filled through the public Field/Commit API, and with a
// program swap landing between the moment a batch is filled and the
// moment it is admitted.

// fillBatch writes the injections into a fresh flat batch through the
// public filling API, the way a wire decoder does.
func fillBatch(t *testing.T, e *dataplane.Engine, ins []dataplane.Injection) *dataplane.Batch {
	t.Helper()
	b := e.NewBatch()
	for _, in := range ins {
		host, ok := b.Host([]byte(in.Host))
		if !ok {
			t.Fatalf("no host %s", in.Host)
		}
		for f, v := range in.Fields {
			b.Field(b.FieldID([]byte(f)), int32(v))
		}
		b.Commit(host, 1)
	}
	return b
}

// schemaOnly strips every field outside the program's schema.
func schemaOnly(s *dataplane.Schema, batches [][]dataplane.Injection) [][]dataplane.Injection {
	out := make([][]dataplane.Injection, len(batches))
	for i, batch := range batches {
		for _, in := range batch {
			f := netkat.Packet{}
			for name, v := range in.Fields {
				if _, ok := s.Index(name); ok {
					f[name] = v
				}
			}
			out[i] = append(out[i], dataplane.Injection{Host: in.Host, Fields: f})
		}
	}
	return out
}

func TestFlatIngressEquivalence(t *testing.T) {
	for _, a := range []apps.App{apps.Firewall(), apps.BandwidthCap(10), apps.IDSFatTree(4)} {
		n := buildNES(t, a)
		inert := loadBatches(t, a, 4, 60) // dst in the schema; src and id inert
		for i := range inert[0] {
			inert[0][i].Fields["tos"] = i % 3 // a batch whose packets differ in their inert fields
		}
		streams := map[string][][]dataplane.Injection{
			"inert":       inert,
			"schema-only": schemaOnly(dataplane.PlanFor(n).Schema(), inert),
		}
		for name, batches := range streams {
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%s/workers-%d", a.Name, name, workers), func(t *testing.T) {
					ref := dataplane.NewEngine(n, a.Topo, dataplane.Options{Workers: workers})
					served := dataplane.NewEngine(n, a.Topo, dataplane.Options{Workers: workers})
					served.Start()
					defer served.Stop()
					for _, batch := range batches {
						if _, errs := ref.InjectBatch(batch); errs != nil {
							t.Fatal(errs)
						}
						if err := ref.Run(); err != nil {
							t.Fatal(err)
						}
						if errs := served.InjectAsyncBatch(batch); errs != nil {
							t.Fatal(errs)
						}
						served.Quiesce()
					}
					want, got := ref.Deliveries(), served.CopyDeliveries(0)
					if i := sameStamped(want, got); i != -1 {
						t.Fatalf("served deliveries diverge from the synchronous ones at %d of %d/%d", i, len(want), len(got))
					}
					if len(want) == 0 {
						t.Fatal("workload delivered nothing; equivalence is vacuous")
					}
				})
			}
		}
	}
}

// TestFlatIngressSwapBeforeAdmission: a batch filled under one program
// and admitted after a swap is interned against the new program's
// schema. Here src is inert for the firewall and tested by its
// successor, which forwards H1's packets only when they say src=H1: had
// admission used the schema current when the batch was filled, src
// would ride as an inert field, the rule could not see it, and nothing
// would be delivered.
func TestFlatIngressSwapBeforeAdmission(t *testing.T) {
	a := apps.Firewall()
	old := buildNES(t, a)
	prog, err := syntax.ParseProgram("pt=2 & dst=H4 & src=H1; pt<-1; (1:1)=>(4:1); pt<-2", []int{0})
	if err != nil {
		t.Fatal(err)
	}
	et, err := ets.Build(prog, a.Topo)
	if err != nil {
		t.Fatal(err)
	}
	next, err := et.ToNES()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dataplane.PlanFor(old).Schema().Index("src"); ok {
		t.Fatal("src is in the firewall's schema; the test needs it inert there")
	}
	if _, ok := dataplane.PlanFor(next).Schema().Index("src"); !ok {
		t.Fatal("src is not in the successor's schema")
	}
	batch := loadBatches(t, a, 1, 80)[0]

	for _, workers := range []int{1, 2, 4} {
		for _, mode := range []string{"synchronous", "served"} {
			t.Run(fmt.Sprintf("%s/workers-%d", mode, workers), func(t *testing.T) {
				ref := dataplane.NewEngine(old, a.Topo, dataplane.Options{Workers: workers})
				if _, err := ref.StageSwap(dataplane.SwapSpec{Plan: dataplane.PlanFor(next)}); err != nil {
					t.Fatal(err)
				}
				if _, errs := ref.InjectBatch(batch); errs != nil {
					t.Fatal(errs)
				}
				if err := ref.Run(); err != nil {
					t.Fatal(err)
				}

				e := dataplane.NewEngine(old, a.Topo, dataplane.Options{Workers: workers})
				if mode == "served" {
					e.Start()
					defer e.Stop()
				}
				b := fillBatch(t, e, batch) // decoded under the firewall
				if _, err := e.StageSwap(dataplane.SwapSpec{Plan: dataplane.PlanFor(next)}); err != nil {
					t.Fatal(err)
				}
				b.Submit() // admitted under its successor
				if mode == "served" {
					e.Quiesce()
				} else if err := e.Run(); err != nil {
					t.Fatal(err)
				}

				want, got := ref.Deliveries(), e.CopyDeliveries(0)
				if i := sameStamped(want, got); i != -1 {
					t.Fatalf("deliveries diverge at %d of %d/%d", i, len(want), len(got))
				}
				if len(got) == 0 || got[0].Stamp.Epoch != 1 {
					t.Fatalf("%d deliveries, first %+v; want some, stamped by the successor", len(got), got)
				}
			})
		}
	}
}

// TestBatchNumberedCopies: a numbered record admits count copies that
// differ in the numbered field alone, whether that field is inert for
// the program (each copy then carries its own inert fields) or in its
// schema, and an explicit value for it is overridden.
func TestBatchNumberedCopies(t *testing.T) {
	a := apps.Firewall()
	n := buildNES(t, a)
	for _, numbered := range []string{"id", "dst"} {
		e := dataplane.NewEngine(n, a.Topo, dataplane.Options{})
		b := e.NewBatch()
		h1, _ := b.Host([]byte("H1"))
		for f, v := range map[string]int{"dst": apps.H(4), "src": apps.H(1), "id": 900, "tos": 5} {
			b.Field(b.FieldID([]byte(f)), int32(v))
		}
		first := 7
		if numbered == "dst" {
			first = apps.H(4) - 1 // only the second copy addresses H4
		}
		b.CommitNumbered(h1, 3, b.FieldID([]byte(numbered)), int32(first))
		if b.Packets() != 3 {
			t.Fatalf("batch expands to %d packets, want 3", b.Packets())
		}
		b.Submit()
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		var got []netkat.Packet
		for _, d := range e.Deliveries() {
			got = append(got, d.Fields)
		}
		sort.Slice(got, func(i, j int) bool { return got[i]["id"] < got[j]["id"] })
		want := []netkat.Packet{{"dst": apps.H(4), "src": apps.H(1), "id": 900, "tos": 5}}
		if numbered == "id" {
			want = nil
			for id := 7; id < 10; id++ {
				want = append(want, netkat.Packet{"dst": apps.H(4), "src": apps.H(1), "id": id, "tos": 5})
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("numbered on %s: delivered %v, want %v", numbered, got, want)
		}
	}
}
