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
// pool, GOMAXPROCS wide; each worker owns its scratch (a sampler).
package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"mcsched/internal/core"
	"mcsched/internal/mcs"
	"mcsched/internal/taskgen"
)

// Population is the task-set population a sweep draws: SetsPerUB sets in
// every UB bucket of the paper's generator grid, on one platform size,
// deadline model and PH. Config and PlacementConfig embed it, so the
// acceptance and placement sweeps declare, validate, bucket and draw it
// the same way.
type Population struct {
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
	// UBMin and UBMax clip the UB buckets swept (0,0 means full grid).
	UBMin, UBMax float64
}

// validate rejects a structurally broken population, and constrained
// deadlines paired with one of the judging tests that covers implicit
// deadlines only, whose every set would be refused and plot as zero
// acceptance.
func (p Population) validate(tests []core.Test) error {
	switch {
	case p.M <= 0:
		return fmt.Errorf("experiments: M=%d must be positive", p.M)
	case !(p.PH >= 0 && p.PH <= 1): // NaN too
		return fmt.Errorf("experiments: PH=%g outside [0,1]", p.PH)
	case p.SetsPerUB <= 0:
		return fmt.Errorf("experiments: SetsPerUB=%d must be positive", p.SetsPerUB)
	}
	for _, test := range tests {
		if p.Constrained && core.ImplicitOnly(test) {
			return fmt.Errorf("experiments: %s covers implicit deadlines only, not Constrained", test.Name())
		}
	}
	return nil
}

// buckets returns the UB buckets of the generator grid that the window
// [UBMin, UBMax] selects.
func (p Population) buckets() ([]taskgen.Bucket, error) {
	buckets := taskgen.BucketByUB(taskgen.DefaultGrid())
	if p.UBMin != 0 || p.UBMax != 0 {
		buckets = taskgen.FilterBuckets(buckets, p.UBMin, p.UBMax)
	}
	if len(buckets) == 0 {
		return nil, fmt.Errorf("experiments: UB window [%g,%g] selects no buckets", p.UBMin, p.UBMax)
	}
	return buckets, nil
}

// Config describes one acceptance-ratio sweep: a population and the
// algorithms evaluated on its task sets.
type Config struct {
	Population
	// Algorithms are evaluated on the same task sets, in order.
	Algorithms []core.Algorithm
}

// Validate rejects an empty algorithm list, a broken population, and
// constrained deadlines under an algorithm whose test covers implicit
// deadlines only.
func (c Config) Validate() error {
	if len(c.Algorithms) == 0 {
		return fmt.Errorf("experiments: no algorithms")
	}
	return c.validate(c.tests())
}

// tests returns the test of each algorithm, in order.
func (c Config) tests() []core.Test {
	tests := make([]core.Test, len(c.Algorithms))
	for ai, algo := range c.Algorithms {
		tests[ai] = algo.Test
	}
	return tests
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

// sampler is one sweep worker's scratch, built once: an RNG reseeded per
// draw — Seed leaves the source where rand.NewSource(seed) would start it,
// without allocating a new one — a Generator whose buffers every draw
// reuses, and one Assigner per algorithm (or placer) slot, whose analyzers
// serve every set the worker judges.
type sampler struct {
	rng *rand.Rand
	gen taskgen.Generator
	asn []*core.Assigner
}

// newSampler builds a sampler with one m-core Assigner per test.
func newSampler(m int, tests ...core.Test) *sampler {
	s := &sampler{rng: rand.New(rand.NewSource(0))}
	for _, test := range tests {
		s.asn = append(s.asn, core.NewAssigner(m, test))
	}
	return s
}

// draw generates the task set of configuration gc that belongs to seed.
// The set is the sampler's buffer: valid until its next draw.
func (s *sampler) draw(seed int64, gc taskgen.Config) (mcs.TaskSet, error) {
	s.rng.Seed(seed)
	return s.gen.Generate(s.rng, gc)
}

// drawSet generates one task set of population p for a bucket, cycling
// through the bucket's grid combos and retrying infeasible draws with
// perturbed seeds.
func (s *sampler) drawSet(p Population, b taskgen.Bucket, bucketIdx, setIdx int) (mcs.TaskSet, bool) {
	combo := b.Combos[setIdx%len(b.Combos)]
	for try := 0; try < genRetries; try++ {
		gc := taskgen.DefaultConfig(p.M, combo.UHH, combo.ULH, combo.ULL)
		gc.PH = p.PH
		gc.Constrained = p.Constrained
		ts, err := s.draw(deriveSeed(p.Seed, bucketIdx, setIdx*genRetries+try), gc)
		if err == nil {
			return ts, true
		}
		// Try the next combo of the bucket on persistent infeasibility.
		combo = b.Combos[(setIdx+try+1)%len(b.Combos)]
	}
	return nil, false
}

// sweep draws every (bucket, set) of the population once and hands each
// drawn set to judge once per slot, with the worker sampler's Assigner of
// that slot; the slots' Assigners are bound to tests in order. The draws
// are spread over parallelMap, GOMAXPROCS wide: each (bucket, set) index
// is an independent job whose result lands at a fixed index, so what a
// sweep counts is identical for every worker count. It returns the
// population's buckets and each set's outcomes in (bucket, set) order, nil
// for a failed draw.
func sweep[T any](p Population, tests []core.Test, judge func(slot int, asn *core.Assigner, ts mcs.TaskSet) T) ([]taskgen.Bucket, [][]T, error) {
	buckets, err := p.buckets()
	if err != nil {
		return nil, nil, err
	}
	scratch := func() *sampler { return newSampler(p.M, tests...) }
	cells := parallelMap(runtime.GOMAXPROCS(0), len(buckets)*p.SetsPerUB, scratch, func(smp *sampler, j int) []T {
		bi, si := j/p.SetsPerUB, j%p.SetsPerUB
		ts, ok := smp.drawSet(p, buckets[bi], bi, si)
		if !ok {
			return nil
		}
		out := make([]T, len(tests))
		for slot, asn := range smp.asn {
			out[slot] = judge(slot, asn, ts)
		}
		return out
	})
	return buckets, cells, nil
}

// countSeries reduces a sweep's outcomes to one Series per slot, named by
// names: in each bucket, the drawn sets whose outcome pass accepts, out
// of the sets drawn. It also returns the number of failed draws.
func countSeries[T any](names []string, buckets []taskgen.Bucket, cells [][]T, pass func(T) bool) ([]Series, int) {
	series := make([]Series, len(names))
	for slot, name := range names {
		series[slot] = Series{Name: name, Points: make([]Point, len(buckets))}
		for bi, b := range buckets {
			series[slot].Points[bi].UB = b.UB
		}
	}
	perBucket, genFailures := len(cells)/len(buckets), 0
	for j, out := range cells {
		if out == nil {
			genFailures++
			continue
		}
		for slot, o := range out {
			pt := &series[slot].Points[j/perBucket]
			pt.Total++
			if pass(o) {
				pt.Accepted++
			}
		}
	}
	return series, genFailures
}

// Run executes the sweep: every algorithm judges the identical task sets
// (paired comparison) on the sweep's shared draw-and-count path.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	buckets, cells, err := sweep(cfg.Population, cfg.tests(), func(ai int, asn *core.Assigner, ts mcs.TaskSet) bool {
		return asn.Allocate(cfg.Algorithms[ai].Strategy, ts)
	})
	if err != nil {
		return Result{}, err
	}
	names := make([]string, len(cfg.Algorithms))
	for ai, algo := range cfg.Algorithms {
		names[ai] = algo.Name()
	}
	series, genFailures := countSeries(names, buckets, cells, func(ok bool) bool { return ok })
	return Result{Config: cfg, Series: series, GenFailures: genFailures, Elapsed: time.Since(start)}, nil
}
