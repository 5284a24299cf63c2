// Package experiments reproduces the evaluation protocol of Section IV of
// Ramanathan & Easwaran (DATE 2017): acceptance-ratio sweeps over the
// normalized-utilization grid, the weighted acceptance ratio (WAR) metric,
// runners for every figure of the paper, and improvement summaries matching
// the headline numbers quoted in the text.
//
// All experiments are deterministic for a given Config: every task set is
// drawn from an RNG seeded by a splitmix64 hash of (base seed, bucket, set),
// so runs parallelize across task sets without changing results. The
// task-set fan-out is parallelMap, this package's index-ordered worker
// pool; Config.Workers sets its width.
package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"mcsched/internal/core"
	"mcsched/internal/mcs"
	"mcsched/internal/taskgen"
)

// Config describes one acceptance-ratio sweep: one platform size, one
// deadline model, one PH, a set of algorithms evaluated on the same task
// sets.
type Config struct {
	// M is the number of processors.
	M int
	// PH is the fraction of HC tasks (paper default 0.5).
	PH float64
	// SetsPerUB is the number of task sets per UB bucket (paper: 1000).
	SetsPerUB int
	// Constrained selects constrained deadlines; otherwise implicit.
	Constrained bool
	// Seed is the base seed; every task set derives its own RNG from it.
	Seed int64
	// Workers bounds the parallelism; 0 means GOMAXPROCS.
	Workers int
	// UBMin and UBMax clip the UB buckets swept (0,0 means full grid).
	UBMin, UBMax float64
	// Algorithms are evaluated on the same task sets, in order.
	Algorithms []core.Algorithm
}

// Validate rejects structurally broken configurations.
func (c Config) Validate() error {
	switch {
	case c.M <= 0:
		return fmt.Errorf("experiments: M=%d must be positive", c.M)
	case c.PH < 0 || c.PH > 1:
		return fmt.Errorf("experiments: PH=%g outside [0,1]", c.PH)
	case c.SetsPerUB <= 0:
		return fmt.Errorf("experiments: SetsPerUB=%d must be positive", c.SetsPerUB)
	case len(c.Algorithms) == 0:
		return fmt.Errorf("experiments: no algorithms")
	}
	return nil
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Point is one (UB, acceptance) sample of a sweep for one algorithm.
type Point struct {
	// UB is the total normalized utilization of the bucket.
	UB float64
	// Accepted counts task sets deemed schedulable.
	Accepted int
	// Total counts task sets evaluated in the bucket.
	Total int
}

// Ratio returns the acceptance ratio Accepted/Total (0 for an empty bucket).
func (p Point) Ratio() float64 {
	if p.Total == 0 {
		return 0
	}
	return float64(p.Accepted) / float64(p.Total)
}

// Series is the acceptance-ratio curve of one algorithm.
type Series struct {
	// Name is the algorithm name, e.g. "CU-UDP-EDF-VD".
	Name string
	// Points are ordered by increasing UB.
	Points []Point
}

// WAR returns the weighted acceptance ratio of the series:
// Σ_UB AR(UB)·UB / Σ_UB UB (Section IV of the paper).
func (s Series) WAR() float64 {
	var num, den float64
	for _, p := range s.Points {
		num += p.Ratio() * p.UB
		den += p.UB
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// RatioAt returns the acceptance ratio at the given UB and whether the
// series has a point there.
func (s Series) RatioAt(ub float64) (float64, bool) {
	for _, p := range s.Points {
		if almostEqual(p.UB, ub) {
			return p.Ratio(), true
		}
	}
	return 0, false
}

func almostEqual(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// Result is the outcome of one sweep.
type Result struct {
	// Config echoes the sweep parameters.
	Config Config
	// Series holds one acceptance curve per algorithm, in Config order.
	Series []Series
	// GenFailures counts task-set draws abandoned as infeasible.
	GenFailures int
	// Elapsed is the wall-clock duration of the sweep.
	Elapsed time.Duration
}

// SeriesByName returns the series of the named algorithm, ok=false if absent.
func (r Result) SeriesByName(name string) (Series, bool) {
	for _, s := range r.Series {
		if s.Name == name {
			return s, true
		}
	}
	return Series{}, false
}

// splitmix64 is the standard 64-bit mix used to derive independent RNG
// streams from a base seed; deterministic and dependency-free.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deriveSeed hashes (base, bucket, set) into an int64 seed.
func deriveSeed(base int64, bucket, set int) int64 {
	h := splitmix64(uint64(base))
	h = splitmix64(h ^ uint64(bucket)<<32)
	h = splitmix64(h ^ uint64(set))
	return int64(h >> 1) // non-negative
}

// genRetries bounds the retries for infeasible draws within a bucket before
// the draw is counted as a generation failure.
const genRetries = 16

// sampler is one worker's scratch: an RNG reseeded per draw — Seed leaves
// the source where rand.NewSource(seed) would start it, without allocating
// a new one — a Generator whose buffers every draw reuses, and for the
// placement harness one Assigner recycled across (heuristic × set) the way
// Algorithm.Schedulable recycles its own.
type sampler struct {
	rng *rand.Rand
	gen taskgen.Generator
	asn core.Assigner
}

// samplers hands each sweep job a sampler; a worker gets the one it put
// back, so a sweep builds about one per worker.
var samplers = sync.Pool{New: func() any { return &sampler{rng: rand.New(rand.NewSource(0))} }}

// draw generates the task set of configuration gc that belongs to seed.
// The set is the sampler's buffer: valid until its next draw.
func (s *sampler) draw(seed int64, gc taskgen.Config) (mcs.TaskSet, error) {
	s.rng.Seed(seed)
	return s.gen.Generate(s.rng, gc)
}

// drawSet generates one task set for a bucket, cycling through the bucket's
// grid combos and retrying infeasible draws with perturbed seeds.
func (s *sampler) drawSet(cfg Config, b taskgen.Bucket, bucketIdx, setIdx int) (mcs.TaskSet, bool) {
	combo := b.Combos[setIdx%len(b.Combos)]
	for try := 0; try < genRetries; try++ {
		gc := taskgen.DefaultConfig(cfg.M, combo.UHH, combo.ULH, combo.ULL)
		gc.PH = cfg.PH
		gc.Constrained = cfg.Constrained
		ts, err := s.draw(deriveSeed(cfg.Seed, bucketIdx, setIdx*genRetries+try), gc)
		if err == nil {
			return ts, true
		}
		// Try the next combo of the bucket on persistent infeasibility.
		combo = b.Combos[(setIdx+try+1)%len(b.Combos)]
	}
	return nil, false
}

// cell is the outcome of one unit of sweep work: a single task set drawn
// and evaluated by every algorithm. drawn=false records a generation
// failure.
type cell struct {
	drawn    bool
	accepted []bool
}

// Run executes the sweep. Algorithms are evaluated on identical task sets
// (paired comparison), and task sets are spread over parallelMap with
// Workers goroutines: each (bucket, set) index is an
// independent job whose result lands at a fixed index, so the aggregated
// curves are identical for every worker count.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	start := time.Now()

	buckets := taskgen.BucketByUB(taskgen.DefaultGrid())
	if cfg.UBMin != 0 || cfg.UBMax != 0 {
		buckets = taskgen.FilterBuckets(buckets, cfg.UBMin, cfg.UBMax)
	}
	if len(buckets) == 0 {
		return Result{}, fmt.Errorf("experiments: UB window [%g,%g] selects no buckets", cfg.UBMin, cfg.UBMax)
	}

	cells := parallelMap(cfg.workers(), len(buckets)*cfg.SetsPerUB, func(j int) cell {
		bi, si := j/cfg.SetsPerUB, j%cfg.SetsPerUB
		smp := samplers.Get().(*sampler)
		defer samplers.Put(smp)
		ts, ok := smp.drawSet(cfg, buckets[bi], bi, si)
		if !ok {
			return cell{}
		}
		c := cell{drawn: true, accepted: make([]bool, len(cfg.Algorithms))}
		for ai, algo := range cfg.Algorithms {
			c.accepted[ai] = algo.Schedulable(ts, cfg.M)
		}
		return c
	})

	// Reduce the cells serially; accepted[bucket][algo] counts accepted
	// sets, totals[bucket] evaluated sets.
	accepted := make([][]int, len(buckets))
	for i := range accepted {
		accepted[i] = make([]int, len(cfg.Algorithms))
	}
	totals := make([]int, len(buckets))
	genFailures := 0
	for j, c := range cells {
		bi := j / cfg.SetsPerUB
		if !c.drawn {
			genFailures++
			continue
		}
		totals[bi]++
		for ai, ok := range c.accepted {
			if ok {
				accepted[bi][ai]++
			}
		}
	}

	res := Result{Config: cfg, GenFailures: genFailures, Elapsed: time.Since(start)}
	for ai, algo := range cfg.Algorithms {
		s := Series{Name: algo.Name()}
		for bi, b := range buckets {
			s.Points = append(s.Points, Point{
				UB:       b.UB,
				Accepted: accepted[bi][ai],
				Total:    totals[bi],
			})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}
