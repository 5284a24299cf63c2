package oracle

import (
	"mcsched/internal/analysis/dbf"
	"mcsched/internal/mcs"
)

// EDFUtil applies the implicit-deadline EDF bound ΣU ≤ 1 at the given
// level (LO uses C^L for every task, HI uses C^H).
func EDFUtil(ts mcs.TaskSet, level mcs.Level) bool {
	var u float64
	for _, t := range ts {
		u += t.UtilAt(level)
	}
	return u <= 1+1e-12
}

// EDFDemand applies the processor-demand criterion ∀ℓ: Σ dbf(ℓ) ≤ ℓ at the
// given level with QPA over freshly built step curves. Valid for
// constrained deadlines.
func EDFDemand(ts mcs.TaskSet, level mcs.Level) bool {
	steps := make([]dbf.Step, 0, len(ts))
	for _, t := range ts {
		steps = append(steps, dbf.Step{C: t.WCET[level], D: t.Deadline, T: t.Period})
	}
	L, ok := horizonLO(steps)
	if !ok {
		return false
	}
	return dbf.QPA(dbf.StepSum(steps), L)
}

// EDFVDResult is the outcome of the EDF-VD utilization test.
type EDFVDResult struct {
	Schedulable bool
	// X is the virtual-deadline scaling factor of HC tasks in LO mode; 1
	// when plain EDF suffices, 0 when not schedulable.
	X float64
	// PlainEDF reports that a + c ≤ 1 held.
	PlainEDF bool
}

// EDFVD runs the EDF-VD test of Baruah et al. (ECRTS 2012) on the
// utilization sums a = Σ u^L over LC, b = Σ u^L and c = Σ u^H over HC
// tasks: accepted iff a + c ≤ 1, or a + b ≤ 1 and x·a + c ≤ 1 with
// x = b/(1−a).
func EDFVD(ts mcs.TaskSet) EDFVDResult {
	var a, b, c float64
	for _, t := range ts {
		if t.IsHC() {
			b += t.ULo
			c += t.UHi
		} else {
			a += t.ULo
		}
	}
	const eps = 1e-12
	if a+c <= 1+eps {
		return EDFVDResult{Schedulable: true, X: 1, PlainEDF: true}
	}
	if a+b <= 1+eps && a < 1 {
		x := b / (1 - a)
		if float64(x*a)+c <= 1+eps {
			if x <= 0 {
				x = 1
			}
			return EDFVDResult{Schedulable: true, X: x}
		}
	}
	return EDFVDResult{}
}
