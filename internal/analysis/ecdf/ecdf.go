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
//
// ECDF is package ey's Analyzer running this package's search on ey's
// Shaper: the filters, memo, warm path and counters are ey's, and only
// the search differs (Test.NewAnalyzer). Every shaping run has EY's
// iteration budget, and the restarts use a fixed set of scale factors.
package ecdf

import (
	"mcsched/internal/analysis/ey"
	"mcsched/internal/analysis/kernel"
	"mcsched/internal/mcs"
)

// budget bounds the deadline adjustments of every shaping run: the EY
// pass's and each restart's, the same 256 as package ey's.
const budget = 256

// lambdas are the scale factors of the restart assignments
// d = C^L + λ(D − C^L), tried in this order.
var lambdas = [...]float64{0.8, 0.6, 0.4, 0.2, 0.05}

// Analyze runs the ECDF search on a fresh Shaper — the analyzer's cold
// exact run — and reads the accepted assignment off its curves.
func Analyze(ts mcs.TaskSet) ey.Result {
	var s ey.Shaper
	s.Reset(ts)
	if ok, _ := search(&s); !ok {
		return ey.Result{}
	}
	return ey.Result{Schedulable: true, VD: s.VDs(ts)}
}

// search is the ECDF search on the curves s holds, which must be at the
// loosest assignment: first the EY pass (ey.Exact), then, unless the
// loosest assignment already fails the LO test (shrinking deadlines only
// raises LO demand), one restart per scale factor from a uniformly
// tightened assignment, relaxed per task until LO passes and shaped from
// there. deep reports whether any shaping or restart work ran (vs a
// zero-iteration decision straight off the loosest curves). The Shaper is
// left at the assignment the search ended on.
func search(s *ey.Shaper) (ok, deep bool) {
	if ok, shaped := ey.Exact(s, budget); ok || !shaped {
		return ok, shaped
	}
	for _, lambda := range lambdas {
		s.Scale(lambda)
		if !relaxUntilLOFeasible(s) {
			continue
		}
		if s.Shape(budget) {
			return true, true
		}
	}
	return false, true
}

// relaxUntilLOFeasible enlarges virtual deadlines toward D until the LO
// test passes, and reports false when that cannot happen. Each round
// relaxes the most-shrunk HC task (the first in task order on ties)
// halfway to its real deadline — the cheapest LO-demand repair. Every
// round only raises a virtual deadline, which only lowers LO demand, so
// the Shaper keeps what a failed round's walk proved and the next round
// resumes from it instead of walking the horizon again — the mirror of
// the HI-side rule, under which the same raise drops the HI certificate.
func relaxUntilLOFeasible(s *ey.Shaper) bool {
	for rounds := 0; rounds < s.NumTasks()+1; rounds++ {
		if s.LOFeasible() {
			return true
		}
		pick := -1
		var worst mcs.Ticks = -1
		for j := 0; j < s.NumHC(); j++ {
			if gap := s.HCDeadline(j) - s.HCVD(j); gap > worst {
				worst, pick = gap, j
			}
		}
		if worst <= 0 {
			return false
		}
		d := s.HCVD(pick)
		s.SetHCVD(pick, d+(s.HCDeadline(pick)-d+1)/2)
	}
	return s.LOFeasible()
}

// Test is the partitioning-test adapter for ECDF.
type Test struct{}

// Name implements the test interface.
func (Test) Name() string { return "ECDF" }

// Schedulable implements the test interface.
func (Test) Schedulable(ts mcs.TaskSet) bool { return Analyze(ts).Schedulable }

// NewAnalyzer implements kernel.Incremental for Test: ey's analyzer
// running search.
func (Test) NewAnalyzer() kernel.Analyzer { return ey.NewAnalyzer(search) }
