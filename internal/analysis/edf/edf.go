// Package edf implements classic single-criticality EDF schedulability
// tests: the utilization bound for implicit deadlines and a
// processor-demand (dbf + QPA) test for constrained deadlines. They serve
// as non-MC baselines and as building blocks for sanity checks (e.g. a
// dual-criticality set with C^L = C^H must behave exactly like a non-MC
// set).
package edf

import (
	"mcsched/internal/analysis/dbf"
	"mcsched/internal/mcs"
)

// Level selects which budget the non-MC view of the task set uses.
type Level = mcs.Level

// UtilizationSchedulable applies the implicit-deadline EDF bound ΣU ≤ 1 at
// the given level (LO uses C^L for every task, HI uses C^H).
func UtilizationSchedulable(ts mcs.TaskSet, level Level) bool {
	var u float64
	for _, t := range ts {
		u += t.UtilAt(level)
	}
	return u <= 1+1e-12
}

// DemandSchedulable applies the processor-demand criterion
// ∀ℓ: Σ dbf(ℓ) ≤ ℓ at the given level using QPA. Valid for constrained
// deadlines.
func DemandSchedulable(ts mcs.TaskSet, level Level) bool {
	steps := make([]dbf.Step, 0, len(ts))
	for _, t := range ts {
		steps = append(steps, dbf.Step{C: t.WCET[level], D: t.Deadline, T: t.Period})
	}
	L, ok := dbf.HorizonLO(steps)
	if !ok {
		return false
	}
	sum := make(dbf.Sum, len(steps))
	for i := range steps {
		sum[i] = steps[i]
	}
	return dbf.QPA(sum, L)
}

// Test is a partitioning-test adapter for worst-case-reservation EDF: every
// task is provisioned at its own criticality level's budget (C^H for HC,
// C^L for LC) — the "static reservation" strawman the MC literature
// improves on.
type Test struct {
	// Demand switches to the dbf test (needed for constrained deadlines).
	Demand bool
}

// Name implements the test interface.
func (t Test) Name() string {
	if t.Demand {
		return "EDF-demand"
	}
	return "EDF-util"
}

// Schedulable implements the test interface.
func (t Test) Schedulable(ts mcs.TaskSet) bool {
	if t.Demand {
		return DemandSchedulable(ts, mcs.HI)
	}
	return UtilizationSchedulable(ts, mcs.HI)
}

// ImplicitOnly declares that the utilization variant covers implicit
// deadlines only; the demand variant covers constrained ones.
func (t Test) ImplicitOnly() bool { return !t.Demand }
