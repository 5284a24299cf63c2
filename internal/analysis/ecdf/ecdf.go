// Package ecdf implements the ECDF schedulability test in the style of
// Easwaran, "Demand-based scheduling of mixed-criticality sporadic tasks on
// one processor" (RTSS 2013). ECDF shares the demand-bound machinery of the
// Ekberg–Yi test (package ey) — LO-mode steps on virtual deadlines, HI-mode
// carry-over sawtooths — and differs in its greedy virtual-deadline
// assignment, which is the component the original paper credits for its
// gain over Ekberg–Yi.
//
// Reconstruction note: the original's exact greedy is not
// reproducible from the text we work from; we implement a strictly stronger
// search — first the EY shaping pass, then uniform scale-factor restarts
// with failure-guided tuning from each. By construction every set accepted
// by package ey is accepted here, matching the paper's characterization of
// EY as "identical … but relatively less efficient in terms of
// schedulability".
package ecdf

import (
	"mcsched/internal/analysis/ey"
	"mcsched/internal/mcs"
)

// Options tunes the search.
type Options struct {
	// EY configures the embedded shaping passes.
	EY ey.Options
	// Lambdas are the scale factors for restart assignments
	// d = C^L + λ(D − C^L). Defaults to {0.8, 0.6, 0.4, 0.2, 0.05}.
	Lambdas []float64
}

// DefaultOptions returns the defaults used by the experiments.
func DefaultOptions() Options {
	return Options{
		EY:      ey.DefaultOptions(),
		Lambdas: []float64{0.8, 0.6, 0.4, 0.2, 0.05},
	}
}

// Result is the ECDF verdict with the accepted virtual-deadline assignment.
type Result struct {
	Schedulable bool
	VD          map[int]mcs.Ticks
	// Restarts counts the scale-factor restarts used (0 means the EY pass
	// already succeeded).
	Restarts int
}

// Analyze runs the ECDF search.
func Analyze(ts mcs.TaskSet, opts Options) Result {
	if len(opts.Lambdas) == 0 {
		opts.Lambdas = DefaultOptions().Lambdas
	}
	if opts.EY.MaxIter == 0 {
		opts.EY = ey.DefaultOptions()
	}

	// Pass 1: the EY greedy from the loosest assignment.
	if r := ey.Analyze(ts, opts.EY); r.Schedulable {
		return Result{Schedulable: true, VD: r.VD}
	}

	// The LO test with d=D failing means even plain LO-mode EDF fails; no
	// assignment can help (shrinking deadlines only raises LO demand).
	if !ey.LOFeasible(ts, ey.InitialAssignment(ts)) {
		return Result{}
	}

	// Pass 2: scale-factor restarts. Each restart starts from a uniformly
	// tightened assignment; LO-infeasible starts are relaxed per task until
	// LO passes, then the shaping loop repairs HI failures.
	for i, lambda := range opts.Lambdas {
		a := ey.ScaledAssignment(ts, lambda)
		a = relaxUntilLOFeasible(ts, a)
		if a == nil {
			continue
		}
		if vd, ok := ey.ShapeFrom(ts, a, opts.EY); ok {
			return Result{Schedulable: true, VD: vd, Restarts: i + 1}
		}
	}
	return Result{}
}

// relaxUntilLOFeasible enlarges virtual deadlines toward D until the LO
// test passes, or returns nil when even d=D fails (checked by the caller,
// so nil is defensive here). It relaxes the task whose deadline shrink is
// largest first — the cheapest LO-demand repair.
func relaxUntilLOFeasible(ts mcs.TaskSet, a ey.Assignment) ey.Assignment {
	for rounds := 0; rounds < len(ts)+1; rounds++ {
		if ey.LOFeasible(ts, a) {
			return a
		}
		// Relax the most-shrunk task halfway to its real deadline.
		var pick mcs.Task
		var worst mcs.Ticks = -1
		for _, t := range ts {
			if !t.IsHC() {
				continue
			}
			if gap := t.Deadline - a[t.ID]; gap > worst {
				worst, pick = gap, t
			}
		}
		if worst <= 0 {
			return nil
		}
		a[pick.ID] = a[pick.ID] + (pick.Deadline-a[pick.ID]+1)/2
	}
	if ey.LOFeasible(ts, a) {
		return a
	}
	return nil
}

// Schedulable is the boolean wrapper with default options.
func Schedulable(ts mcs.TaskSet) bool { return Analyze(ts, DefaultOptions()).Schedulable }

// Test is the partitioning-test adapter for ECDF.
type Test struct {
	Opts Options
}

// Name implements the test interface.
func (Test) Name() string { return "ECDF" }

// Schedulable implements the test interface.
func (t Test) Schedulable(ts mcs.TaskSet) bool {
	o := t.Opts
	if len(o.Lambdas) == 0 {
		o = DefaultOptions()
	}
	return Analyze(ts, o).Schedulable
}
