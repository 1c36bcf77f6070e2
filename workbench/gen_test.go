package main

import (
	"reflect"
	"testing"
)

func TestGeneratorDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := w.list(7, w.nominal), w.list(7, w.nominal)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different op lists", w.name)
		}
		if c := w.list(8, w.nominal); reflect.DeepEqual(a.specs, c.specs) && reflect.DeepEqual(a.draws, c.draws) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", w.name)
		}
		if !reflect.DeepEqual(replaySample(7, a, 50), replaySample(7, b, 50)) {
			t.Errorf("%s: replay sample not determined by the seed", w.name)
		}
	}
}

func TestUniqueListsNeverRepeatAndKeepCacheModelsOffRoutedNetworks(t *testing.T) {
	l := uniqueList(3, 3000, 1)
	seen := make(map[spec]bool)
	for _, s := range l.specs {
		if seen[s] {
			t.Fatalf("spec %+v generated twice", s)
		}
		seen[s] = true
		if usesCache(s.Model) && s.Topo != "constant" {
			t.Fatalf("cache model on a routed network: %+v", s)
		}
		if _, err := s.machine(); err != nil {
			t.Fatalf("spec %+v does not validate: %v", s, err)
		}
	}
}

func TestPoolHoldsEveryAppTwiceAndDrawsEvenly(t *testing.T) {
	l := poolList(5, warmPool, 1000)
	apps := make(map[string]int)
	for _, s := range l.specs {
		apps[s.App]++
	}
	for name, n := range apps {
		if n != 2 {
			t.Errorf("app %s appears %d times in the pool, want 2", name, n)
		}
	}
	counts := make(map[uint8]int)
	for _, d := range l.draws[:warmPool*10] {
		counts[d]++
	}
	for i := 0; i < warmPool; i++ {
		if counts[uint8(i)] != 10 {
			t.Errorf("pool spec %d drawn %d times in 10 passes, want 10", i, counts[uint8(i)])
		}
	}
}

func TestDeckBalancesEveryPass(t *testing.T) {
	d := newDeck(newRand(1, streamSpecs), []int{0, 1, 2, 3})
	for pass := 0; pass < 5; pass++ {
		got := make(map[int]bool)
		for i := 0; i < 4; i++ {
			got[d.next()] = true
		}
		if len(got) != 4 {
			t.Fatalf("pass %d drew %v, want every item once", pass, got)
		}
	}
}
