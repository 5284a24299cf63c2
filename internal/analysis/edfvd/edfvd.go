// Package edfvd implements the utilization-based uniprocessor
// schedulability test for EDF with Virtual Deadlines on implicit-deadline
// dual-criticality task systems (Baruah, Bonifaci, D'Angelo, Li,
// Marchetti-Spaccamela, van der Ster, Stougie — ECRTS 2012, Theorems 1–2).
//
// With a = Σ u^L over LC tasks, b = Σ u^L over HC tasks and c = Σ u^H over
// HC tasks, the system is accepted iff
//
//	a + c ≤ 1                                  (plain EDF suffices), or
//	a + b ≤ 1  and  x·a + c ≤ 1  with  x = b/(1−a),
//
// where x is the deadline-scaling factor applied to HC tasks in LO mode.
// The second condition is algebraically the in-paper form
// a ≤ (1−c)/(1−(c−b)). The test has an optimal speed-up bound of 4/3; used
// per-core inside any exhaustive partitioning strategy it yields a
// partitioned algorithm with speed-up 8/3 (Baruah et al., RTS 2014,
// Theorem 9).
package edfvd

import (
	"mcsched/internal/mcs"
)

// Result reports the outcome of the EDF-VD test together with the
// parameters a runtime scheduler needs.
type Result struct {
	// Schedulable is the test verdict.
	Schedulable bool
	// X is the virtual-deadline scaling factor to apply to HC tasks in LO
	// mode. X == 1 means plain EDF is sufficient (no deadline shrinking).
	// Undefined (0) when Schedulable is false.
	X float64
	// PlainEDF reports that the first condition (a + c ≤ 1) held, i.e. the
	// system is schedulable by worst-case-reservation EDF without virtual
	// deadlines.
	PlainEDF bool
}

// Analyze runs the EDF-VD utilization test on a uniprocessor task set. The
// test is defined for implicit deadlines; callers with constrained-deadline
// sets should use the dbf-based tests instead (Analyze does not check
// deadline shape — it uses utilizations only — but the verdict is only
// meaningful for implicit deadlines).
func Analyze(ts mcs.TaskSet) Result {
	return decide(ts.ULL(), ts.ULH(), ts.UHH())
}

// decide is the closed-form test on the three utilization sums. Split out
// so the incremental analyzer can re-run the decision on folded sums
// without materializing a task set; verdicts are a pure function of
// (a, b, c), which is what makes the warm path trivially exact.
func decide(a, b, c float64) Result {
	const eps = 1e-12 // absorb float accumulation noise at the boundary

	if a+c <= 1+eps {
		return Result{Schedulable: true, X: 1, PlainEDF: true}
	}
	// LO-mode EDF feasibility with shrunk deadlines requires x ≤ 1, i.e.
	// a + b ≤ 1; the HI-mode condition is x·a + c ≤ 1 with the smallest
	// admissible x = b/(1−a).
	if a+b <= 1+eps && a < 1 {
		x := b / (1 - a)
		if x*a+c <= 1+eps {
			if x <= 0 { // no HC tasks: b == 0 handled by a+c above, but be safe
				x = 1
			}
			return Result{Schedulable: true, X: x}
		}
	}
	return Result{}
}

// Schedulable is the boolean convenience wrapper around Analyze.
func Schedulable(ts mcs.TaskSet) bool { return Analyze(ts).Schedulable }

// Test is the mcsched schedulability-test adapter for EDF-VD.
type Test struct{}

// Name implements the partitioning test interface.
func (Test) Name() string { return "EDF-VD" }

// Schedulable implements the partitioning test interface.
func (Test) Schedulable(ts mcs.TaskSet) bool { return Schedulable(ts) }
