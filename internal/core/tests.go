package core

import (
	"fmt"

	"mcsched/internal/analysis/amc"
	"mcsched/internal/analysis/ecdf"
	"mcsched/internal/analysis/edf"
	"mcsched/internal/analysis/edfvd"
	"mcsched/internal/analysis/ey"
	"mcsched/internal/mcs"
)

// Tests returns the paper's four uniprocessor MC tests in a stable order:
// EDF-VD, ECDF, EY, and AMC-max with Audsley's priority assignment.
func Tests() []Test {
	return []Test{
		edfvd.Test{},
		ecdf.Test{Opts: ecdf.DefaultOptions()},
		ey.Test{Opts: ey.DefaultOptions()},
		amc.Test{Opts: amc.DefaultOptions()},
	}
}

// allTests is every test TestByName resolves: the paper's four, then the
// AMC ablations (AMC-rtb, AMC-max under deadline-monotonic priorities) and
// the worst-case-reservation EDF baselines.
func allTests() []Test {
	return append(Tests(),
		amc.Test{Opts: amc.Options{Variant: amc.RTB, Policy: amc.Audsley}},
		amc.Test{Opts: amc.Options{Variant: amc.Max, Policy: amc.DeadlineMonotonic}},
		edf.Test{},
		edf.Test{Demand: true},
	)
}

// TestNames lists every name TestByName resolves, in registry order: the
// names of Tests first.
func TestNames() []string {
	all := allTests()
	names := make([]string, len(all))
	for i, t := range all {
		names[i] = t.Name()
	}
	return names
}

// TestByName finds a test by its Name; ok=false when unknown. It is the
// one name-to-test mapping: requests, journals and the CLI all resolve
// through it.
func TestByName(name string) (Test, bool) {
	for _, t := range allTests() {
		if t.Name() == name {
			return t, true
		}
	}
	return nil, false
}

// ImplicitOnly reports whether test covers implicit deadlines (D = T) only,
// which a test declares with an ImplicitOnly() bool method: EDF-VD and
// EDF-util, which read utilizations alone, do. This is the one place that
// asks; it does not look through wrappers.
func ImplicitOnly(test Test) bool {
	io, ok := test.(interface{ ImplicitOnly() bool })
	return ok && io.ImplicitOnly()
}

// Covers reports whether test covers task's deadline model: every test
// covers an implicit deadline, a test not ImplicitOnly a constrained one.
func Covers(test Test, task mcs.Task) bool {
	return task.Implicit() || !ImplicitOnly(test)
}

// UncoveredError refuses a task whose deadline model the test does not
// cover. It is invalid input, not a capacity verdict, so it does not wrap
// ErrUnpartitionable.
type UncoveredError struct {
	Test string   // the test's Name
	Task mcs.Task // the first task it does not cover
}

func (e UncoveredError) Error() string {
	return fmt.Sprintf("core: %s covers implicit deadlines only, task %d has deadline %d < period %d",
		e.Test, e.Task.ID, e.Task.Deadline, e.Task.Period)
}
