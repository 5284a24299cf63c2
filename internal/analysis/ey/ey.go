// Package ey implements a demand-bound-function schedulability test for
// dual-criticality sporadic task systems in the style of Ekberg & Yi,
// "Bounding and shaping the demand of mixed-criticality sporadic tasks"
// (ECRTS 2012): per-task virtual deadlines for HC tasks, a LO-mode EDF
// demand test on the shrunk deadlines, a HI-mode demand test with
// carry-over jobs (the Sawtooth curve in internal/analysis/dbf), and a
// greedy failure-guided shaping loop that trades LO-mode slack for HI-mode
// slack one task at a time.
//
// The demand bounds follow the published worst-case alignment; the shaping
// loop is a documented reconstruction (the original's tuning order is
// heuristic as well). Package ecdf builds a stronger search on top of the
// same machinery.
//
// All curve construction funnels through an Engine, which keeps the step
// and sawtooth slices in reusable scratch buffers: the stateless API
// allocates a fresh Engine per call (behavior unchanged), while the
// admission hot path holds one Engine per core via the Analyzer and reuses
// its buffers across probes.
package ey

import (
	"mcsched/internal/analysis/dbf"
	"mcsched/internal/mcs"
)

// Options tunes the shaping loop.
type Options struct {
	// MaxIter bounds the number of deadline adjustments (default 256).
	MaxIter int
}

// DefaultOptions returns the defaults used by the experiments.
func DefaultOptions() Options { return Options{MaxIter: 256} }

func (o Options) maxIter() int {
	if o.MaxIter <= 0 {
		return 256
	}
	return o.MaxIter
}

// EffectiveMaxIter exposes the default coercion (MaxIter ≤ 0 → 256) for
// callers outside the package that replay the shaping loop, so their
// iteration budget matches the stateless one exactly.
func (o Options) EffectiveMaxIter() int { return o.maxIter() }

// Result reports the verdict and, when schedulable, the virtual-deadline
// assignment (task ID → LO-mode relative deadline for HC tasks).
type Result struct {
	Schedulable bool
	// VD maps HC task IDs to their assigned LO-mode virtual deadlines.
	// LC tasks keep their real deadlines and do not appear.
	VD map[int]mcs.Ticks
	// Iterations counts shaping steps performed (diagnostics).
	Iterations int
}

// Assignment is a virtual-deadline assignment for the HC tasks of a set.
type Assignment map[int]mcs.Ticks

// clone copies the assignment.
func (a Assignment) clone() Assignment {
	out := make(Assignment, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// InitialAssignment returns the loosest assignment d_i = D_i.
func InitialAssignment(ts mcs.TaskSet) Assignment {
	a := make(Assignment)
	InitialInto(ts, a)
	return a
}

// InitialInto fills a (assumed empty) with the loosest assignment. It is
// the map-reusing form the per-core analyzers (here and in package ecdf)
// build on.
func InitialInto(ts mcs.TaskSet, a Assignment) {
	for _, t := range ts {
		if t.IsHC() {
			a[t.ID] = t.Deadline
		}
	}
}

// ScaledAssignment returns d_i = C_i^L + λ·(D_i − C_i^L) rounded down,
// clamped to [C_i^L, D_i]. λ=1 is the loosest (d=D), λ=0 the tightest
// (d=C^L).
func ScaledAssignment(ts mcs.TaskSet, lambda float64) Assignment {
	a := make(Assignment)
	ScaledInto(ts, lambda, a)
	return a
}

// ScaledInto fills a (assumed empty) with the λ-scaled assignment; the
// map-reusing form of ScaledAssignment.
func ScaledInto(ts mcs.TaskSet, lambda float64, a Assignment) {
	for _, t := range ts {
		if !t.IsHC() {
			continue
		}
		span := float64(t.Deadline - t.CLo())
		d := t.CLo() + mcs.Ticks(lambda*span)
		if d < t.CLo() {
			d = t.CLo()
		}
		if d > t.Deadline {
			d = t.Deadline
		}
		a[t.ID] = d
	}
}

// Engine holds the reusable curve scratch the demand tests are built on.
// The zero value is ready to use; it is not safe for concurrent use.
type Engine struct {
	steps []dbf.Step
	saws  []dbf.Sawtooth
}

// NewEngine returns an empty engine.
func NewEngine() *Engine { return &Engine{} }

// loCurves rebuilds the LO-mode demand curves into the engine's step
// buffer: every task contributes a step of size C^L at its LO-mode deadline
// (virtual for HC, real for LC).
func (e *Engine) loCurves(ts mcs.TaskSet, a Assignment) []dbf.Step {
	steps := e.steps[:0]
	for _, t := range ts {
		d := t.Deadline
		if t.IsHC() {
			d = a[t.ID]
		}
		steps = append(steps, dbf.Step{C: t.CLo(), D: d, T: t.Period})
	}
	e.steps = steps
	return steps
}

// hiCurves rebuilds the HI-mode demand curves of the HC tasks into the
// engine's sawtooth buffer.
func (e *Engine) hiCurves(ts mcs.TaskSet, a Assignment) []dbf.Sawtooth {
	saws := e.saws[:0]
	for _, t := range ts {
		if !t.IsHC() {
			continue
		}
		saws = append(saws, dbf.Sawtooth{
			CL: t.CLo(), CH: t.CHi(), D: t.Deadline, VD: a[t.ID], T: t.Period,
		})
	}
	e.saws = saws
	return saws
}

// LOFeasible runs the LO-mode QPA test under the assignment.
func (e *Engine) LOFeasible(ts mcs.TaskSet, a Assignment) bool {
	steps := e.loCurves(ts, a)
	L, ok := dbf.HorizonLO(steps)
	if !ok {
		return false
	}
	return dbf.QPA(dbf.StepSum(steps), L)
}

// HIFeasible runs the HI-mode QPA test and returns a violation witness
// when it fails.
func (e *Engine) HIFeasible(ts mcs.TaskSet, a Assignment) (witness mcs.Ticks, ok bool) {
	saws := e.hiCurves(ts, a)
	if len(saws) == 0 {
		return -1, true
	}
	L, ok := dbf.HorizonHI(saws)
	if !ok {
		return 0, false
	}
	return dbf.QPAWitness(dbf.SawSum(saws), L)
}

// LOCurves builds the LO-mode demand curves (step per task). It allocates a
// fresh slice; the hot paths use Engine.loCurves instead.
func LOCurves(ts mcs.TaskSet, a Assignment) []dbf.Step {
	return append([]dbf.Step(nil), (&Engine{}).loCurves(ts, a)...)
}

// HICurves builds the HI-mode demand curves for the HC tasks.
func HICurves(ts mcs.TaskSet, a Assignment) []dbf.Sawtooth {
	saws := (&Engine{}).hiCurves(ts, a)
	if len(saws) == 0 {
		return nil
	}
	return append([]dbf.Sawtooth(nil), saws...)
}

// LOFeasible runs the LO-mode QPA test under the assignment.
func LOFeasible(ts mcs.TaskSet, a Assignment) bool {
	return (&Engine{}).LOFeasible(ts, a)
}

// HIFeasible runs the HI-mode QPA test and returns a violation witness
// when it fails.
func HIFeasible(ts mcs.TaskSet, a Assignment) (witness mcs.Ticks, ok bool) {
	return (&Engine{}).HIFeasible(ts, a)
}

// Analyze runs the EY test: the loosest assignment must pass the LO test
// (otherwise even plain EDF on LO parameters fails), then HI-mode failures
// are repaired by shrinking one virtual deadline at a time, checking that
// the LO test still holds after each move.
func Analyze(ts mcs.TaskSet, opts Options) Result {
	e := NewEngine()
	a := InitialAssignment(ts)
	if !e.LOFeasible(ts, a) {
		return Result{}
	}
	r, ok := e.shape(ts, a, make(map[int]bool), opts.maxIter())
	if !ok {
		return Result{Iterations: r.Iterations}
	}
	return r
}

// Schedulable is the boolean wrapper with default options.
func Schedulable(ts mcs.TaskSet) bool { return Analyze(ts, DefaultOptions()).Schedulable }

// ShapeFrom runs the failure-guided shaping loop from an arbitrary
// LO-feasible assignment. It is the entry point package ecdf uses for its
// scale-factor restarts. The input assignment is not modified.
func ShapeFrom(ts mcs.TaskSet, a Assignment, opts Options) (Assignment, bool) {
	r, ok := (&Engine{}).shape(ts, a.clone(), make(map[int]bool), opts.maxIter())
	if !ok {
		return nil, false
	}
	return r.VD, true
}

// shape runs the failure-guided tuning loop from a LO-feasible assignment,
// mutating a and frozen (both owned by the caller; frozen must start
// empty). It returns the final result and whether it converged.
func (e *Engine) shape(ts mcs.TaskSet, a Assignment, frozen map[int]bool, maxIter int) (Result, bool) {
	iters := 0
	for ; iters < maxIter; iters++ {
		w, ok := e.HIFeasible(ts, a)
		if ok {
			return Result{Schedulable: true, VD: a, Iterations: iters}, true
		}
		if !e.tuneStep(ts, a, frozen, w) {
			return Result{Iterations: iters}, false
		}
	}
	return Result{Iterations: iters}, false
}

// tuneStep shrinks the virtual deadline of the task that yields the largest
// demand reduction at the HI-mode violation witness w, while keeping the LO
// test passing. Returns false when no move is possible.
func (e *Engine) tuneStep(ts mcs.TaskSet, a Assignment, frozen map[int]bool, w mcs.Ticks) bool {
	// Demand the HI test must shed at w.
	saws := e.hiCurves(ts, a)
	needed := dbf.SawSum(saws).Value(w) - w
	if needed <= 0 {
		needed = 1
	}

	type candidate struct {
		task mcs.Task
		gain mcs.Ticks // demand reduction at w if shrunk fully to C^L
	}
	var best *candidate
	var bestStore candidate
	for _, t := range ts {
		if !t.IsHC() || frozen[t.ID] {
			continue
		}
		d := a[t.ID]
		if d <= t.CLo() {
			continue
		}
		cur := dbf.Sawtooth{CL: t.CLo(), CH: t.CHi(), D: t.Deadline, VD: d, T: t.Period}.Value(w)
		min := dbf.Sawtooth{CL: t.CLo(), CH: t.CHi(), D: t.Deadline, VD: t.CLo(), T: t.Period}.Value(w)
		gain := cur - min
		if gain <= 0 {
			continue
		}
		if best == nil || gain > best.gain {
			bestStore = candidate{task: t, gain: gain}
			best = &bestStore
		}
	}
	if best == nil {
		return false
	}

	t := best.task
	hi, lo := a[t.ID], t.CLo()
	// Find the largest shrink ≤ needed that keeps the LO test passing,
	// preferring the full shrink; binary search over the LO-feasible
	// boundary (LO demand is monotone in −d, so feasibility is monotone
	// in d: larger d is easier for LO).
	target := hi - needed
	if target < lo {
		target = lo
	}
	try := func(d mcs.Ticks) bool {
		old := a[t.ID]
		a[t.ID] = d
		ok := e.LOFeasible(ts, a)
		if !ok {
			a[t.ID] = old
		}
		return ok
	}
	if try(target) {
		return true
	}
	// Binary search in (target, hi): smallest d ≥ target that stays
	// LO-feasible; any strict decrease is progress.
	loBound, hiBound := target+1, hi-1
	moved := false
	for loBound <= hiBound {
		mid := (loBound + hiBound) / 2
		if try(mid) {
			moved = true
			hiBound = mid - 1 // try to shrink further
		} else {
			loBound = mid + 1
		}
	}
	if !moved {
		frozen[t.ID] = true
		// Another candidate may still help on the next iteration; report
		// progress only if any unfrozen candidate remains.
		for _, u := range ts {
			if u.IsHC() && !frozen[u.ID] && a[u.ID] > u.CLo() {
				return true
			}
		}
		return false
	}
	return true
}

// Test is the partitioning-test adapter for EY.
type Test struct {
	Opts Options
}

// Name implements the test interface.
func (Test) Name() string { return "EY" }

// Schedulable implements the test interface.
func (t Test) Schedulable(ts mcs.TaskSet) bool {
	o := t.Opts
	if o.MaxIter == 0 {
		o = DefaultOptions()
	}
	return Analyze(ts, o).Schedulable
}
