package nes

import (
	"math/rand"
	"sync"
	"testing"
)

// TestArmedFromWarmHitDoesNotAllocate: a knowledge set already in the
// memo is a read-locked map probe, with no boxing of the key.
func TestArmedFromWarmHitDoesNotAllocate(t *testing.T) {
	n := chainNES(t, 6)
	known := Empty.With(0).With(1)
	want := n.ArmedFrom(known)
	if n := testing.AllocsPerRun(100, func() {
		if n.ArmedFrom(known) != want {
			t.Fatal("warm hit returned a different set")
		}
	}); n != 0 {
		t.Errorf("ArmedFrom warm hit: %v allocs, want 0", n)
	}
}

// TestArmedFromConcurrentMisses: four goroutines ask one fresh NES for
// the armed events of every member of its family and of random sets at
// once, in one order from one start, so misses race on the same keys; every answer is the definition's.
// Run it under -race.
func TestArmedFromConcurrentMisses(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := randNES(t, r, 10, 40)
	keys := append([]Set(nil), n.familyList...)
	for i := 0; i < 60; i++ {
		keys = append(keys, randSet(r, 10))
	}
	want := make([]Set, len(keys))
	for i, k := range keys {
		want[i] = armedRef(n, k)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i, k := range keys {
				if got := n.ArmedFrom(k); got != want[i] {
					errs <- "ArmedFrom(" + k.String() + ") = " + got.String() + ", want " + want[i].String()
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
