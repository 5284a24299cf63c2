package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mcsched/internal/analysis/amc"
	"mcsched/internal/analysis/ecdf"
	"mcsched/internal/analysis/edfvd"
	"mcsched/internal/analysis/ey"
	"mcsched/internal/mcs"
	"mcsched/internal/taskgen"
)

// uncomparableTest carries a slice, so two of them can never be compared:
// a recycled assigner must rebuild for it rather than panic.
type uncomparableTest struct {
	edfvd.Test
	pad []int
}

// TestSchedulableRecycledMatchesPartition holds Algorithm.Schedulable —
// which runs on recycled assigners — to the verdict of Partition on fresh
// ones, for every strategy, while the pool is handed back assigners of
// other core counts and other tests in between, from several goroutines
// at once. It also checks the other direction of the contract: a Partition
// handed out earlier is never written to by a later Schedulable.
func TestSchedulableRecycledMatchesPartition(t *testing.T) {
	tests := []Test{
		edfvd.Test{},
		ecdf.Test{},
		ey.Test{},
		amc.Test{Opts: amc.DefaultOptions()},
		uncomparableTest{pad: []int{1}},
	}
	strategies := Strategies()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			var kept []Partition
			var keptCopies []Partition
			for i := 0; i < 150; i++ {
				m := []int{2, 4, 8}[rng.Intn(3)]
				cfg := taskgen.DefaultConfig(m, 0.3+0.1*float64(rng.Intn(5)), 0.25, 0.15+0.1*float64(rng.Intn(5)))
				cfg.Constrained = rng.Intn(2) == 0
				ts, err := taskgen.Generate(rng, cfg)
				if err != nil {
					continue
				}
				algo := Algorithm{Strategy: strategies[rng.Intn(len(strategies))], Test: tests[rng.Intn(len(tests))]}
				p, err := algo.Partition(ts, m)
				if got := algo.Schedulable(ts, m); got != (err == nil) {
					t.Errorf("goroutine %d draw %d: %s on m=%d: Schedulable=%v, Partition err=%v", g, i, algo.Name(), m, got, err)
					return
				}
				if err == nil {
					kept = append(kept, p)
					keptCopies = append(keptCopies, p.Clone())
				}
			}
			for i, p := range kept {
				for k, c := range p.Cores {
					if !slices.Equal(c, keptCopies[i].Cores[k]) {
						t.Errorf("goroutine %d: core %d of partition %d changed after later Schedulable calls", g, k, i)
					}
				}
			}
		}(g)
	}
	wg.Wait()

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
