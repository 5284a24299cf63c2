package core

import (
	"math/rand"
	"slices"
	"testing"

	"mcsched/internal/analysis/amc"
	"mcsched/internal/analysis/ecdf"
	"mcsched/internal/analysis/edfvd"
	"mcsched/internal/analysis/ey"
	"mcsched/internal/mcs"
	"mcsched/internal/taskgen"
)

// TestSchedulableRecycledMatchesPartition holds Allocate on a reused
// assigner — one per (core count, test), the way a sweep worker keeps one
// per algorithm — and Algorithm.Schedulable to the verdict of Partition on
// a fresh assigner, for every strategy, while each assigner judges sets of
// other strategies in between. It also checks the other direction of the
// contract: a Partition handed out earlier is never written to by a later
// Allocate.
func TestSchedulableRecycledMatchesPartition(t *testing.T) {
	tests := []Test{
		edfvd.Test{},
		ecdf.Test{},
		ey.Test{},
		amc.Test{Opts: amc.DefaultOptions()},
	}
	strategies := Strategies()
	ms := []int{2, 4, 8}
	owned := make([][]*Assigner, len(ms))
	for mi, m := range ms {
		for _, test := range tests {
			owned[mi] = append(owned[mi], NewAssigner(m, test))
		}
	}

	rng := rand.New(rand.NewSource(100))
	var kept, keptCopies []Partition
	for i := 0; i < 600; i++ {
		mi := rng.Intn(len(ms))
		m := ms[mi]
		cfg := taskgen.DefaultConfig(m, 0.3+0.1*float64(rng.Intn(5)), 0.25, 0.15+0.1*float64(rng.Intn(5)))
		cfg.Constrained = rng.Intn(2) == 0
		ts, err := taskgen.Generate(rng, cfg)
		if err != nil {
			continue
		}
		ti := rng.Intn(len(tests))
		algo := Algorithm{Strategy: strategies[rng.Intn(len(strategies))], Test: tests[ti]}
		p, err := algo.Partition(ts, m)
		if got := owned[mi][ti].Allocate(algo.Strategy, ts); got != (err == nil) {
			t.Fatalf("draw %d: %s on m=%d: reused Allocate=%v, Partition err=%v", i, algo.Name(), m, got, err)
		}
		if got := algo.Schedulable(ts, m); got != (err == nil) {
			t.Fatalf("draw %d: %s on m=%d: Schedulable=%v, Partition err=%v", i, algo.Name(), m, got, err)
		}
		if err == nil {
			kept = append(kept, p)
			keptCopies = append(keptCopies, p.Clone())
		}
	}
	for i, p := range kept {
		for k, c := range p.Cores {
			if !slices.Equal(c, keptCopies[i].Cores[k]) {
				t.Errorf("core %d of partition %d changed after later Allocate calls", k, i)
			}
		}
	}

	// Degenerate inputs take the same answers as Partition.
	algo := Algorithm{Strategy: CUUDP(), Test: edfvd.Test{}}
	if !algo.Schedulable(nil, 2) {
		t.Error("empty set on 2 cores: Schedulable=false, Partition accepts it")
	}
	if algo.Schedulable(mcs.TaskSet{mcs.NewLC(0, 1, 10)}, 0) {
		t.Error("m=0 accepted")
	}
	if algo.Schedulable(mcs.TaskSet{mcs.NewLC(0, 1, 10), mcs.NewLC(0, 1, 10)}, 2) {
		t.Error("duplicate IDs accepted")
	}
}
