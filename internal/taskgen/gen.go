package taskgen

import (
	"fmt"
	"math"
	"math/rand"

	"mcsched/internal/mcs"
)

// Config holds the generator parameters of Section IV of the paper. The
// zero value is not useful; start from DefaultConfig.
type Config struct {
	// M is the number of processors; the normalized utilizations below
	// are multiplied by M to obtain totals.
	M int
	// PH is the fraction of HC tasks in the set (paper default 0.5).
	PH float64
	// UHH, ULH, ULL are the normalized system utilizations
	// (Σ u^H of HC)/m, (Σ u^L of HC)/m and (Σ u^L of LC)/m.
	UHH, ULH, ULL float64
	// UMin and UMax bound each individual task utilization.
	UMin, UMax float64
	// NMin and NMax bound the number of tasks; the paper uses m+1 and 5m.
	NMin, NMax int
	// TMin and TMax bound the periods, drawn log-uniformly.
	TMin, TMax mcs.Ticks
	// Constrained selects constrained deadlines (D uniform in [C^H, T]);
	// otherwise deadlines are implicit (D = T).
	Constrained bool
	// Method selects the utilization-vector algorithm.
	Method Method
}

// DefaultConfig returns the paper's generator parameters for m processors
// and the given normalized utilizations.
func DefaultConfig(m int, uhh, ulh, ull float64) Config {
	return Config{
		M:    m,
		PH:   0.5,
		UHH:  uhh,
		ULH:  ulh,
		ULL:  ull,
		UMin: 0.001,
		UMax: 0.99,
		NMin: m + 1,
		NMax: 5 * m,
		TMin: 10,
		TMax: 500,
	}
}

// Validate checks the configuration for structural errors.
func (c Config) Validate() error {
	switch {
	case c.M <= 0:
		return fmt.Errorf("taskgen: M=%d must be positive", c.M)
	case c.PH < 0 || c.PH > 1:
		return fmt.Errorf("taskgen: PH=%g outside [0,1]", c.PH)
	case c.UHH < 0 || c.ULH < 0 || c.ULL < 0:
		return fmt.Errorf("taskgen: negative normalized utilization")
	case c.ULH > c.UHH+1e-9:
		return fmt.Errorf("taskgen: ULH=%g exceeds UHH=%g (would need u^L > u^H)", c.ULH, c.UHH)
	case c.UMin <= 0 || c.UMax > 1 || c.UMin > c.UMax:
		return fmt.Errorf("taskgen: bad utilization bounds [%g,%g]", c.UMin, c.UMax)
	case c.NMin <= 0 || c.NMin > c.NMax:
		return fmt.Errorf("taskgen: bad task-count bounds [%d,%d]", c.NMin, c.NMax)
	case c.TMin <= 0 || c.TMin > c.TMax:
		return fmt.Errorf("taskgen: bad period bounds [%d,%d]", c.TMin, c.TMax)
	}
	return nil
}

// UB returns the total normalized utilization UB = max(ULH+ULL, UHH) of the
// configuration, the x-axis of the paper's acceptance-ratio plots.
func (c Config) UB() float64 { return math.Max(c.ULH+c.ULL, c.UHH) }

// ErrInfeasible is wrapped by Generate when no task-count split can realize
// the requested utilizations within the per-task bounds.
type ErrInfeasible struct{ Cfg Config }

func (e ErrInfeasible) Error() string {
	return fmt.Sprintf("taskgen: no feasible task-count split for UHH=%.2f ULH=%.2f ULL=%.2f m=%d PH=%.2f",
		e.Cfg.UHH, e.Cfg.ULH, e.Cfg.ULL, e.Cfg.M, e.Cfg.PH)
}

// splitCounts picks the total task count n and HC count nH. It retries
// random draws of n near the configured bounds and clamps nH into the
// feasible region implied by the per-task utilization bounds, mirroring the
// feasibility-aware resampling of the WATERS'16 fair generator.
func (c Config) splitCounts(rng *rand.Rand) (n, nH int, err error) {
	totHH := c.UHH * float64(c.M)
	totLH := c.ULH * float64(c.M)
	totLL := c.ULL * float64(c.M)

	minHC := 0
	if totHH > 0 {
		minHC = int(math.Ceil(totHH/c.UMax - 1e-9))
		if minHC < 1 {
			minHC = 1
		}
		// u^L of HC tasks needs at least UMin each: nH·UMin ≤ totLH is
		// required too, which bounds nH from above.
	}
	minLC := 0
	if totLL > 0 {
		minLC = int(math.Ceil(totLL/c.UMax - 1e-9))
		if minLC < 1 {
			minLC = 1
		}
	}

	feasible := func(n, nH int) bool {
		nL := n - nH
		if nH < minHC || nL < minLC {
			return false
		}
		if totHH > 0 && (float64(nH)*c.UMin > totHH+1e-9 || float64(nH)*c.UMax < totHH-1e-9) {
			return false
		}
		if totLH > 0 && nH > 0 && float64(nH)*c.UMin > totLH+1e-9 {
			return false
		}
		if totLL > 0 && (float64(nL)*c.UMin > totLL+1e-9 || float64(nL)*c.UMax < totLL-1e-9) {
			return false
		}
		return true
	}

	const tries = 64
	for try := 0; try < tries; try++ {
		n = c.NMin + rng.Intn(c.NMax-c.NMin+1)
		nH = int(math.Round(c.PH * float64(n)))
		// Clamp into the feasible band for this n, preferring the value
		// closest to PH·n.
		for delta := 0; delta <= n; delta++ {
			for _, cand := range []int{nH - delta, nH + delta} {
				if cand < 0 || cand > n {
					continue
				}
				if feasible(n, cand) {
					return n, cand, nil
				}
			}
		}
	}
	return 0, 0, ErrInfeasible{Cfg: c}
}

// Generator draws task sets into buffers it reuses from one call to the
// next: the three utilization vectors (the discard loop's uniforms sit in
// the capacity behind them, see drawBufs), RandFixedSum's tables and the
// returned task set. A sweep keeps one per worker. The zero value is ready;
// a Generator is not safe for concurrent use.
type Generator struct {
	uHH, uLH, uLL []float64
	rfs           rfsTables
	out           mcs.TaskSet
}

// Generate draws one task set according to the configuration. Integer
// parameters are derived as C = ⌈u·T⌉ with T log-uniform in [TMin, TMax];
// the ULo/UHi fields carry the *realized* utilizations C/T, so analyses,
// partitioning and the integer-time simulator agree on one consistent
// workload (the drawn values are generation targets only — realized totals
// exceed them by at most Σ 1/T_i due to the ceiling). Task order is
// randomized (criticality-unaware), which is what "no sort" baseline
// strategies consume.
//
// The returned set is the generator's buffer: it is valid until the next
// call on g, and callers that keep it longer Clone it.
func (g *Generator) Generate(rng *rand.Rand, c Config) (mcs.TaskSet, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n, nH, err := c.splitCounts(rng)
	if err != nil {
		return nil, err
	}
	nL := n - nH

	totHH := c.UHH * float64(c.M)
	totLH := c.ULH * float64(c.M)
	totLL := c.ULL * float64(c.M)

	if nH > 0 {
		g.uHH, err = g.draw(rng, c.Method, g.uHH, nH, totHH, c.UMin, c.UMax)
		if err != nil {
			return nil, err
		}
		g.uLH, err = boundedSumCapped(rng, g.uLH, nH, totLH, c.UMin, g.uHH)
		if err != nil {
			return nil, err
		}
	}
	if nL > 0 {
		g.uLL, err = g.draw(rng, c.Method, g.uLL, nL, totLL, c.UMin, c.UMax)
		if err != nil {
			return nil, err
		}
	}

	ts := g.out[:0]
	id := 0
	for i := 0; i < nH; i++ {
		ts = append(ts, c.buildTask(rng, id, mcs.HI, g.uLH[i], g.uHH[i]))
		id++
	}
	for i := 0; i < nL; i++ {
		ts = append(ts, c.buildTask(rng, id, mcs.LO, g.uLL[i], g.uLL[i]))
		id++
	}
	g.out = ts
	// Criticality-unaware generation order.
	rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	if err := ts.Validate(); err != nil {
		return nil, fmt.Errorf("taskgen: generated invalid set: %w", err)
	}
	return ts, nil
}

// draw dispatches to the selected utilization-vector method, into buf.
func (g *Generator) draw(rng *rand.Rand, m Method, buf []float64, n int, total, lo, hi float64) ([]float64, error) {
	switch m {
	case MethodUUniFastDiscard:
		return boundedSum(rng, buf, n, total, lo, hi)
	default:
		return g.rfs.draw(rng, buf, n, total, lo, hi)
	}
}

// Generate draws one task set with a Generator of its own, so the caller
// owns the result.
func Generate(rng *rand.Rand, c Config) (mcs.TaskSet, error) {
	return new(Generator).Generate(rng, c)
}

// buildTask realizes one task from its drawn utilizations.
func (c Config) buildTask(rng *rand.Rand, id int, crit mcs.Level, uLo, uHi float64) mcs.Task {
	t := LogUniformTicks(rng, c.TMin, c.TMax)
	cl := mcs.Ticks(math.Ceil(uLo * float64(t)))
	if cl < 1 {
		cl = 1
	}
	ch := mcs.Ticks(math.Ceil(uHi * float64(t)))
	if ch < cl {
		ch = cl
	}
	if ch > t { // ceil can push past the period for u close to 1
		ch = t
		if cl > ch {
			cl = ch
		}
	}
	d := t
	if c.Constrained {
		// D uniform in [C^H, T].
		d = ch + mcs.Ticks(rng.Int63n(int64(t-ch)+1))
	}
	task := mcs.Task{
		ID:       id,
		Crit:     crit,
		Period:   t,
		Deadline: d,
		ULo:      float64(cl) / float64(t),
		UHi:      float64(ch) / float64(t),
	}
	task.WCET[mcs.LO] = cl
	task.WCET[mcs.HI] = ch
	if crit == mcs.LO {
		task.WCET[mcs.HI] = cl
		task.UHi = task.ULo
	}
	return task
}

// LogUniformTicks draws an integer period log-uniformly from [lo, hi], the
// standard period distribution of Emberson et al. (WATERS 2010).
func LogUniformTicks(rng *rand.Rand, lo, hi mcs.Ticks) mcs.Ticks {
	if lo >= hi {
		return lo
	}
	v := math.Exp(rng.Float64()*(math.Log(float64(hi))-math.Log(float64(lo))) + math.Log(float64(lo)))
	t := mcs.Ticks(math.Round(v))
	if t < lo {
		t = lo
	}
	if t > hi {
		t = hi
	}
	return t
}
