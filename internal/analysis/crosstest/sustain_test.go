package crosstest

import (
	"math/rand"
	"testing"

	"mcsched/internal/analysis/ey"
	"mcsched/internal/core"
	"mcsched/internal/mcs"
)

// TestSustainableUnderRemoval checks core.Sustainable against every
// registered test. A test that declares it must accept what is left of a
// set it accepts after random releases, run cold: snapshot recovery runs
// exactly that check on every core a journal reached. EY and ECDF do not
// declare it, and a pinned set shows why: a cold rerun refuses what a
// release leaves.
func TestSustainableUnderRemoval(t *testing.T) {
	refused := map[string][]mcs.Task{
		// {1,2,3} passes EY; without task 1 the shaping fails.
		"EY": {
			mcs.NewHCConstrained(1, 4, 8, 88, 78),
			mcs.NewHC(2, 7, 16, 52),
			mcs.NewHCConstrained(3, 11, 33, 92, 47),
		},
		// All nine pass ECDF; without task 1 every restart fails.
		"ECDF": {
			mcs.NewHCConstrained(1, 2, 3, 80, 68),
			mcs.NewHCConstrained(2, 13, 24, 45, 42),
			mcs.NewHCConstrained(3, 1, 17, 72, 51),
			mcs.NewLCConstrained(5, 1, 18, 11),
			mcs.NewLCConstrained(6, 3, 33, 17),
			mcs.NewLCConstrained(7, 2, 14, 10),
			mcs.NewLCConstrained(8, 5, 99, 60),
			mcs.NewLCConstrained(9, 3, 21, 10),
			mcs.NewLCConstrained(10, 7, 84, 75),
		},
	}
	for _, name := range core.TestNames() {
		test, _ := core.TestByName(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if ts, ok := refused[name]; ok {
				if core.Sustainable(test) {
					t.Fatalf("%s declares itself sustainable", name)
				}
				if !test.Schedulable(ts) || test.Schedulable(ts[1:]) {
					t.Fatalf("%s: the pinned set no longer shows a refused removal", name)
				}
				return
			}
			if !core.Sustainable(test) {
				t.Fatalf("%s does not declare itself sustainable", name)
			}
			randomChurn(test, func(trial, op int, resident mcs.TaskSet, released bool) {
				if released && !test.Schedulable(resident) {
					t.Fatalf("trial %d op %d: a release leaves a set %s refuses:\n%v", trial, op, name, resident)
				}
			})
		})
	}
}

// TestUnsustainablePassQuickFilter checks the bound snapshot checks hold
// the cores of a test that is not core.Sustainable (EY and ECDF) to: the
// filter in front of both shapers, ey.QuickState.Verdict() >= 0, which
// caps the summed LO utilization of all tasks and the summed HI
// utilization of the high-criticality tasks at 1 + 1e-9. Every set such a
// test accepts cold, and every set a release leaves, must pass it.
func TestUnsustainablePassQuickFilter(t *testing.T) {
	checked := 0
	for _, name := range core.TestNames() {
		test, _ := core.TestByName(name)
		if core.Sustainable(test) {
			continue
		}
		checked++
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			randomChurn(test, func(trial, op int, resident mcs.TaskSet, released bool) {
				if ey.FoldQuick(resident).Verdict() < 0 {
					t.Fatalf("trial %d op %d (released %v): %s holds a set the quick filter refuses:\n%v",
						trial, op, released, name, resident)
				}
			})
		})
	}
	if checked == 0 {
		t.Fatal("no registered test is unsustainable; the property checks nothing")
	}
}

// randomChurn plays 200 seeded random admit/release sequences against
// test, run cold: a random task joins the resident set when test accepts
// the set with it, and about one step in three a random resident task
// leaves. visit sees every set test accepted and every set a release
// left (released), in resident order.
func randomChurn(test core.Test, visit func(trial, op int, resident mcs.TaskSet, released bool)) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		var resident mcs.TaskSet
		for i := 0; i < 40; i++ {
			if len(resident) > 1 && rng.Intn(3) == 0 {
				j := rng.Intn(len(resident))
				resident = append(resident[:j:j], resident[j+1:]...)
				visit(trial, i, resident, true)
				continue
			}
			period := mcs.Ticks(8 + rng.Intn(93))
			d := period
			if !core.ImplicitOnly(test) {
				d = period/2 + mcs.Ticks(rng.Intn(int(period/2)+1))
			}
			cl := 1 + mcs.Ticks(rng.Intn(int(d/3+1)))
			task := mcs.NewLCConstrained(i+1, cl, period, d)
			if rng.Intn(2) == 0 {
				task = mcs.NewHCConstrained(i+1, cl, cl+mcs.Ticks(rng.Intn(int(d-cl)+1)), period, d)
			}
			if cand := append(resident.Clone(), task); test.Schedulable(cand) {
				resident = cand
				visit(trial, i, resident, false)
			}
		}
	}
}
