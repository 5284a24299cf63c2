package crosstest

import (
	"testing"

	"mcsched/internal/analysis/ecdf"
	"mcsched/internal/analysis/ey"
	"mcsched/internal/mcs"
	"mcsched/internal/oracle"
)

// checkAssignment verifies the structural contract of a virtual-deadline
// assignment: every HC task has an entry in [C^L, D], no LC task has one.
func checkAssignment(t *testing.T, name string, ts mcs.TaskSet, vd map[int]mcs.Ticks) {
	t.Helper()
	for _, task := range ts {
		d, ok := vd[task.ID]
		if !task.IsHC() {
			if ok {
				t.Fatalf("%s assigned a virtual deadline to LC task %d", name, task.ID)
			}
			continue
		}
		if !ok {
			t.Fatalf("%s missing virtual deadline for HC task %d", name, task.ID)
		}
		if d < task.CLo() || d > task.Deadline {
			t.Fatalf("%s: task %d VD %d outside [C^L=%d, D=%d]",
				name, task.ID, d, task.CLo(), task.Deadline)
		}
	}
}

// TestEYAssignmentContract: every EY acceptance carries a well-formed
// assignment, and the assignment re-verifies against the oracle's mode
// tests.
func TestEYAssignmentContract(t *testing.T) {
	checked := 0
	for _, ts := range drawSets(t, 80, true) {
		r := ey.Analyze(ts)
		if !r.Schedulable {
			continue
		}
		checked++
		checkAssignment(t, "EY", ts, r.VD)
		a := oracle.Assignment(r.VD)
		if !oracle.LOFeasible(ts, a) {
			t.Fatalf("EY-accepted assignment fails its own LO test: %v\n%v", r.VD, ts)
		}
		if _, ok := oracle.HIFeasible(ts, a); !ok {
			t.Fatalf("EY-accepted assignment fails its own HI test: %v\n%v", r.VD, ts)
		}
	}
	if checked < 15 {
		t.Fatalf("only %d EY acceptances exercised", checked)
	}
}

// TestECDFAssignmentContract: the same contract for ECDF, whose assignment
// may come from a scale-factor restart.
func TestECDFAssignmentContract(t *testing.T) {
	checked, restarted := 0, 0
	for _, ts := range drawSets(t, 120, true) {
		r := ecdf.Analyze(ts)
		if !r.Schedulable {
			continue
		}
		checked++
		if oracle.ECDF(ts, 0, nil).Restarts > 0 {
			restarted++
		}
		checkAssignment(t, "ECDF", ts, r.VD)
		a := oracle.Assignment(r.VD)
		if !oracle.LOFeasible(ts, a) {
			t.Fatalf("ECDF-accepted assignment fails LO: %v\n%v", r.VD, ts)
		}
		if _, ok := oracle.HIFeasible(ts, a); !ok {
			t.Fatalf("ECDF-accepted assignment fails HI: %v\n%v", r.VD, ts)
		}
	}
	if checked < 15 {
		t.Fatalf("only %d ECDF acceptances exercised", checked)
	}
	t.Logf("ECDF acceptances: %d (of which %d needed restarts)", checked, restarted)
}

// TestImplicitDeadlineAssignments: on implicit-deadline sets the same
// contracts hold (virtual deadlines may equal the period).
func TestImplicitDeadlineAssignments(t *testing.T) {
	for _, ts := range drawSets(t, 40, false) {
		if r := ey.Analyze(ts); r.Schedulable {
			checkAssignment(t, "EY", ts, r.VD)
		}
		if r := ecdf.Analyze(ts); r.Schedulable {
			checkAssignment(t, "ECDF", ts, r.VD)
		}
	}
}
