package ctrl_test

import (
	"fmt"
	"slices"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/ctrl"
	"eventnet/internal/ets"
	"eventnet/internal/nes"
)

// compileNES compiles an app straight to its NES.
func compileNES(t *testing.T, a apps.App) *nes.NES {
	t.Helper()
	et, err := ets.Build(a.Prog, a.Topo)
	if err != nil {
		t.Fatalf("compile %s: %v", a.Name, err)
	}
	n, err := et.ToNES()
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	return n
}

// mapSet pushes an old-program event set through a swap mapping,
// dropping events with no image — exactly what the engine does before
// handing the survivors to the new program's Replay.
func mapSet(s nes.Set, mapping []int) nes.Set {
	out := nes.Empty
	for _, id := range s.Elems() {
		if id < len(mapping) && mapping[id] >= 0 {
			out = out.With(mapping[id])
		}
	}
	return out
}

// TestEventMappingNoImage: replay across a program swap where part of
// the event history has no image in the new program. FailoverWAN(6)
// tolerates six fail/recover cycles, FailoverWAN(2) only two, so the
// first two cycles' events map across and the tail is genuinely
// image-less. The mapped survivors of any valid old history must replay
// fully on the new program, and image-less knowledge must carry nothing.
func TestEventMappingNoImage(t *testing.T) {
	oldN := compileNES(t, apps.FailoverWAN(6).App)
	newN := compileNES(t, apps.FailoverWAN(2).App)

	mapping, mapped := ctrl.EventMapping(oldN, newN)
	if mapped == 0 || mapped >= len(oldN.Events) {
		t.Fatalf("mapped %d of %d old events — want a proper nonempty subset", mapped, len(oldN.Events))
	}
	noImage := 0
	for _, ev := range oldN.Events {
		if mapping[ev.ID] < 0 {
			noImage++
		}
	}
	if noImage == 0 {
		t.Fatal("no image-less events: the scenario does not exercise the -1 path")
	}
	if mapped+noImage != len(oldN.Events) {
		t.Fatalf("mapping accounts for %d+%d of %d events", mapped, noImage, len(oldN.Events))
	}

	// The full old history is a valid execution, so its image must be
	// admitted in full: dropping the tail cannot strand the mapped prefix.
	full := nes.Empty
	for _, ev := range oldN.Events {
		full = full.With(ev.ID)
	}
	if got := oldN.Replay(full); got != full {
		t.Fatalf("full old history does not replay on its own program: %v", got)
	}
	cand := mapSet(full, mapping)
	if cand.Count() != mapped {
		t.Fatalf("image of full history has %d events, want %d", cand.Count(), mapped)
	}
	if got := newN.Replay(cand); got != cand {
		t.Fatalf("mapped history stranded on the new program: Replay(%v) = %v", cand, got)
	}

	// A view made only of image-less events maps to nothing: the swap
	// restarts that knowledge from scratch rather than guessing.
	tail := nes.Empty
	for _, ev := range oldN.Events {
		if mapping[ev.ID] < 0 {
			tail = tail.With(ev.ID)
		}
	}
	if got := mapSet(tail, mapping); got != nes.Empty {
		t.Fatalf("image-less events mapped to %v", got)
	}

	// Post-mapping replay still enforces execution order: some mapped
	// event depends on an enabler, so its singleton image must be
	// stranded by the new program's Replay.
	stranded := false
	for _, id := range cand.Elems() {
		if newN.Replay(nes.Empty.With(id)) == nes.Empty {
			stranded = true
			break
		}
	}
	if !stranded {
		t.Fatal("every mapped event replays alone — the prefix check is vacuous here")
	}

	// A self-swap maps every event onto itself: identity is the fixpoint
	// of the mapping, so repeated same-program swaps never lose history.
	selfMap, selfMapped := ctrl.EventMapping(oldN, oldN)
	if selfMapped != len(oldN.Events) {
		t.Fatalf("self-mapping lost events: %d of %d", selfMapped, len(oldN.Events))
	}
	for _, ev := range oldN.Events {
		if selfMap[ev.ID] != ev.ID {
			t.Fatalf("self-mapping moved event %d to %d", ev.ID, selfMap[ev.ID])
		}
	}
}

// eventMappingRef is EventMapping over the rendered identity it used to
// key on: "guard@location#occurrence", one fmt.Sprintf per event.
func eventMappingRef(old, new_ *nes.NES) ([]int, int) {
	key := func(ev nes.Event) string { return fmt.Sprintf("%s@%v#%d", ev.Guard.Key(), ev.Loc, ev.Occurrence) }
	idx := map[string]int{}
	for _, ev := range new_.Events {
		idx[key(ev)] = ev.ID
	}
	m := make([]int, len(old.Events))
	for i := range m {
		m[i] = -1
	}
	mapped := 0
	for _, ev := range old.Events {
		if id, ok := idx[key(ev)]; ok {
			m[ev.ID] = id
			mapped++
		}
	}
	return m, mapped
}

// TestEventMappingMatchesRenderedKey: keying events by a comparable
// (guard, location, occurrence) value maps exactly what the rendered key
// mapped — on a revision upward, a revision downward (the tail has no
// image), and a failover pair with different cycle horizons.
func TestEventMappingMatchesRenderedKey(t *testing.T) {
	for _, pair := range [][2]apps.App{
		{apps.BandwidthCap(200), apps.BandwidthCap(201)},
		{apps.BandwidthCap(264), apps.BandwidthCap(232)},
		{apps.FailoverWAN(6).App, apps.FailoverWAN(2).App},
	} {
		oldN, newN := compileNES(t, pair[0]), compileNES(t, pair[1])
		got, gotN := ctrl.EventMapping(oldN, newN)
		want, wantN := eventMappingRef(oldN, newN)
		if gotN != wantN || !slices.Equal(got, want) {
			t.Fatalf("%s -> %s: mapping moved: %d mapped %v, want %d mapped %v", pair[0].Name, pair[1].Name, gotN, got, wantN, want)
		}
		if gotN == 0 {
			t.Fatalf("%s -> %s: nothing mapped; the case is vacuous", pair[0].Name, pair[1].Name)
		}
	}
}
