package oracle

import "mcsched/internal/mcs"

// ECDFResult is the verdict of the stateless ECDF search with the accepted
// virtual-deadline assignment.
type ECDFResult struct {
	Schedulable bool
	VD          map[int]mcs.Ticks
	// Restarts counts the scale-factor restarts used (0 means the EY pass
	// already succeeded).
	Restarts int
}

// DefaultLambdas returns the restart scale factors package ecdf uses.
func DefaultLambdas() []float64 { return []float64{0.8, 0.6, 0.4, 0.2, 0.05} }

// ECDF runs the stateless ECDF search: the EY pass from the loosest
// assignment, then one restart per scale factor (none given means
// DefaultLambdas), each relaxed per task until the LO test passes and
// shaped from there. maxIter is the EY budget of every shaping run (≤ 0
// means 256).
func ECDF(ts mcs.TaskSet, maxIter int, lambdas []float64) ECDFResult {
	if len(lambdas) == 0 {
		lambdas = DefaultLambdas()
	}

	// Pass 1: the EY greedy from the loosest assignment.
	if r := EY(ts, maxIter); r.Schedulable {
		return ECDFResult{Schedulable: true, VD: r.VD}
	}

	// The LO test with d=D failing means even plain LO-mode EDF fails; no
	// assignment can help (shrinking deadlines only raises LO demand).
	if !LOFeasible(ts, InitialAssignment(ts)) {
		return ECDFResult{}
	}

	// Pass 2: scale-factor restarts. Each restart starts from a uniformly
	// tightened assignment; LO-infeasible starts are relaxed per task until
	// LO passes, then the shaping loop repairs HI failures.
	for i, lambda := range lambdas {
		a := ScaledAssignment(ts, lambda)
		a = relaxUntilLOFeasible(ts, a)
		if a == nil {
			continue
		}
		if vd, ok := ShapeFrom(ts, a, maxIter); ok {
			return ECDFResult{Schedulable: true, VD: vd, Restarts: i + 1}
		}
	}
	return ECDFResult{}
}

// relaxUntilLOFeasible enlarges virtual deadlines toward D until the LO
// test passes, or returns nil when even d=D fails (checked by the caller,
// so nil is defensive here). It relaxes the task whose deadline shrink is
// largest first — the cheapest LO-demand repair.
func relaxUntilLOFeasible(ts mcs.TaskSet, a Assignment) Assignment {
	for rounds := 0; rounds < len(ts)+1; rounds++ {
		if LOFeasible(ts, a) {
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
	if LOFeasible(ts, a) {
		return a
	}
	return nil
}
