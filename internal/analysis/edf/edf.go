// Package edf implements classic single-criticality EDF schedulability
// tests: the utilization bound for implicit deadlines and a
// processor-demand (dbf + QPA) test for constrained deadlines. They serve
// as non-MC baselines and as building blocks for sanity checks (e.g. a
// dual-criticality set with C^L = C^H must behave exactly like a non-MC
// set).
package edf

import "mcsched/internal/mcs"

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

// Schedulable implements the test interface: the Analyzer, run cold.
func (t Test) Schedulable(ts mcs.TaskSet) bool {
	return (&Analyzer{demand: t.Demand}).Schedulable(ts)
}

// ImplicitOnly declares that the utilization variant covers implicit
// deadlines only; the demand variant covers constrained ones.
func (t Test) ImplicitOnly() bool { return !t.Demand }

// Sustainable declares that the test accepts every subset of a set it
// accepts: utilization and demand only grow with a task.
func (Test) Sustainable() bool { return true }
