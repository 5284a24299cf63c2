package sim

import (
	"testing"

	"mcsched/internal/mcs"
)

// TestMissingPriorityRunsLowest: tasks absent from the Priorities map run at
// the lowest priority instead of crashing — a declared-priority task must
// always preempt an undeclared one.
func TestMissingPriorityRunsLowest(t *testing.T) {
	ts := mcs.TaskSet{
		mcs.NewLC(0, 4, 10), // declared, highest
		mcs.NewLC(1, 4, 10), // undeclared
	}
	r := SimulateCore(ts, Config{
		Spec:        Spec{Horizon: 100, Scenario: SpecLoSteady},
		CoreRuntime: CoreRuntime{Policy: FixedPriority, Priorities: map[int]int{0: 0}},
	})
	if len(r.Misses) != 0 {
		t.Fatalf("u=0.8 pair missed under partial priorities: %v", r.Misses)
	}
	if r.Released == 0 || r.Completed == 0 {
		t.Fatalf("nothing ran: %+v", r)
	}
}

// TestVDOutOfRangeIgnored: virtual deadlines outside [1, D] fall back to
// the real deadline rather than corrupting EDF keys.
func TestVDOutOfRangeIgnored(t *testing.T) {
	ts := mcs.TaskSet{mcs.NewHC(0, 2, 4, 10)}
	for _, bad := range []mcs.Ticks{0, -3, 11, 1000} {
		r := SimulateCore(ts, Config{
			Spec:        Spec{Horizon: 200, Scenario: SpecHiStorm},
			CoreRuntime: CoreRuntime{Policy: VirtualDeadlineEDF, VD: map[int]mcs.Ticks{0: bad}},
		})
		if len(r.Misses) != 0 {
			t.Fatalf("VD=%d: single light task missed: %v", bad, r.Misses)
		}
	}
}

// TestStopOnMissAborts: StopOnMiss halts at the first miss, so an
// overloaded core reports exactly one.
func TestStopOnMissAborts(t *testing.T) {
	over := mcs.TaskSet{
		mcs.NewLC(0, 7, 10),
		mcs.NewLC(1, 7, 10),
	}
	stop := SimulateCore(over, Config{Spec: Spec{Horizon: 1000, Scenario: SpecLoSteady}, StopOnMiss: true})
	if len(stop.Misses) != 1 {
		t.Fatalf("StopOnMiss produced %d misses", len(stop.Misses))
	}
	full := SimulateCore(over, Config{Spec: Spec{Horizon: 1000, Scenario: SpecLoSteady}})
	if len(full.Misses) <= 1 {
		t.Fatalf("full run produced %d misses; expected a stream", len(full.Misses))
	}
}

// TestNoResetWithoutFlag: a core stays in HI mode after a switch unless
// ResetOnIdle is set.
func TestNoResetWithoutFlag(t *testing.T) {
	ts := mcs.TaskSet{
		mcs.NewHC(0, 2, 4, 20),
		mcs.NewLC(1, 2, 20),
	}
	r := SimulateCore(ts, Config{
		Spec:        Spec{Horizon: 1000, Scenario: SpecSingleOverrun, OverrunTask: 0, OverrunJob: 0},
		CoreRuntime: CoreRuntime{Policy: VirtualDeadlineEDF},
	})
	if len(r.Switches) != 1 {
		t.Fatalf("want exactly one switch, got %v", r.Switches)
	}
	if len(r.Resets) != 0 {
		t.Fatalf("reset without ResetOnIdle: %v", r.Resets)
	}
	if r.FinishedMode != mcs.HI {
		t.Fatalf("finished in %v, want HI", r.FinishedMode)
	}
	if r.DroppedJobs == 0 {
		t.Fatal("no LC jobs were shed after the permanent switch")
	}
}

// TestResetRestoresLCService: with ResetOnIdle, LC jobs released after the
// reset run again.
func TestResetRestoresLCService(t *testing.T) {
	ts := mcs.TaskSet{
		mcs.NewHC(0, 2, 4, 20),
		mcs.NewLC(1, 2, 20),
	}
	r := SimulateCore(ts, Config{
		Spec:        Spec{Horizon: 1000, Scenario: SpecSingleOverrun, OverrunTask: 0, OverrunJob: 0, ResetOnIdle: true},
		CoreRuntime: CoreRuntime{Policy: VirtualDeadlineEDF},
	})
	if len(r.Resets) != 1 {
		t.Fatalf("want one reset, got %v", r.Resets)
	}
	if r.FinishedMode != mcs.LO {
		t.Fatalf("finished in %v, want LO after recovery", r.FinishedMode)
	}
	// 50 LC releases at T=20 over 1000 ticks; only the one overlapping the
	// HI window may be lost.
	if r.DroppedJobs > 2 {
		t.Fatalf("recovery lost %d LC jobs", r.DroppedJobs)
	}
}

// TestLCOnlyNeverSwitches: LC tasks cannot trigger a mode switch under any
// scenario (their demand clamps to C^L).
func TestLCOnlyNeverSwitches(t *testing.T) {
	ts := mcs.TaskSet{mcs.NewLC(0, 3, 10), mcs.NewLC(1, 4, 15)}
	for _, sp := range []Spec{
		{Horizon: 2000, Scenario: SpecLoSteady},
		{Horizon: 2000, Scenario: SpecHiStorm},
		{Horizon: 2000, Scenario: SpecRandom, Seed: 3, OverrunProb: 1, Jitter: 1},
	} {
		r := SimulateCore(ts, Config{Spec: sp})
		if len(r.Switches) != 0 {
			t.Fatalf("%s switched an LC-only core", sp.Scenario)
		}
	}
}

// TestBusyBookkeeping: busy time never exceeds the horizon, and completed
// never exceeds released.
func TestBusyBookkeeping(t *testing.T) {
	ts := mcs.TaskSet{
		mcs.NewHC(0, 3, 6, 12),
		mcs.NewLC(1, 4, 16),
	}
	for _, sp := range []Spec{
		{Horizon: 5000, Scenario: SpecLoSteady, ResetOnIdle: true},
		{Horizon: 5000, Scenario: SpecHiStorm, ResetOnIdle: true},
		{Horizon: 5000, Scenario: SpecRandom, Seed: 7, OverrunProb: 0.5, Jitter: 0.8, ResetOnIdle: true},
	} {
		r := SimulateCore(ts, Config{Spec: sp})
		if r.Busy > 5000 {
			t.Fatalf("%s: busy %d > horizon", sp.Scenario, r.Busy)
		}
		if r.Completed > r.Released {
			t.Fatalf("%s: completed %d > released %d", sp.Scenario, r.Completed, r.Released)
		}
	}
}

// TestZeroWCETJobsClamp: jobs of a task with C^L = 0 (a set Validate
// refuses, run unvalidated under lo-steady) clamp to one tick instead of
// wedging the engine in a zero-progress loop; an HC job of one tick
// completes before its overrun check, so it never switches.
func TestZeroWCETJobsClamp(t *testing.T) {
	lc, hc := mcs.NewLC(0, 3, 10), mcs.NewHC(1, 2, 4, 10)
	lc.WCET = [2]mcs.Ticks{0, 0}
	hc.WCET[mcs.LO] = 0
	r := SimulateCore(mcs.TaskSet{lc, hc}, Config{Spec: Spec{Horizon: 100, Scenario: SpecLoSteady}})
	if r.Released != 20 || r.Completed != 20 {
		t.Fatalf("released %d completed %d, want 20/20", r.Released, r.Completed)
	}
	if len(r.Misses) != 0 || len(r.Switches) != 0 {
		t.Fatalf("zero-demand run missed or switched: %+v", r)
	}
	if r.Busy != 20 {
		t.Fatalf("busy %d: each clamped job must cost exactly one tick", r.Busy)
	}
}

// TestCompletionAtDeadlineBoundary: a fully utilizing task (C==D==T)
// completes every job exactly at its deadline — the boundary is not a miss,
// and the release train stays back-to-back.
func TestCompletionAtDeadlineBoundary(t *testing.T) {
	ts := mcs.TaskSet{mcs.NewLC(0, 10, 10)}
	r := SimulateCore(ts, Config{Spec: Spec{Horizon: 100, Scenario: SpecLoSteady}})
	if len(r.Misses) != 0 {
		t.Fatalf("completion at the deadline counted as a miss: %v", r.Misses)
	}
	if r.Released != 10 || r.Completed != 10 || r.Busy != 100 {
		t.Fatalf("boundary run bookkeeping: %+v", r)
	}
}

// TestSwitchExactlyAtDeadlineTick: when the mode-switch instant coincides
// with a pending LC deadline, the miss is recorded first (in LO mode) and
// the job is then shed by the switch — one miss, one drop, switch at the
// deadline tick.
func TestSwitchExactlyAtDeadlineTick(t *testing.T) {
	ts := mcs.TaskSet{
		mcs.NewHC(0, 5, 8, 20),            // overruns: switch at t=5
		mcs.NewLCConstrained(1, 3, 50, 5), // deadline exactly at t=5
	}
	r := SimulateCore(ts, Config{
		Spec:        Spec{Horizon: 20, Scenario: SpecSingleOverrun, OverrunTask: 0, OverrunJob: 0},
		CoreRuntime: CoreRuntime{Policy: FixedPriority, Priorities: map[int]int{0: 0, 1: 1}},
	})
	if len(r.Switches) != 1 || r.Switches[0] != 5 {
		t.Fatalf("switch instants: %v, want [5]", r.Switches)
	}
	if len(r.Misses) != 1 || r.Misses[0].TaskID != 1 || r.Misses[0].Deadline != 5 || r.Misses[0].Mode != mcs.LO {
		t.Fatalf("miss at the switch tick: %+v", r.Misses)
	}
	if r.DroppedJobs != 1 {
		t.Fatalf("dropped %d, want the one pending LC job", r.DroppedJobs)
	}
}

// TestReleaseAtSwitchInstantDropped: an LC release landing exactly on the
// switch instant is suppressed as a drop, never admitted into HI mode.
func TestReleaseAtSwitchInstantDropped(t *testing.T) {
	ts := mcs.TaskSet{
		mcs.NewHC(0, 5, 8, 20), // overruns: switch at t=5
		mcs.NewLC(1, 2, 5),     // releases at 0,5,10,15: t=5 hits the switch
	}
	rec := &Recorder{Cap: 128}
	r := SimulateCore(ts, Config{
		Spec:        Spec{Horizon: 20, Scenario: SpecSingleOverrun, OverrunTask: 0, OverrunJob: 0},
		CoreRuntime: CoreRuntime{Policy: FixedPriority, Priorities: map[int]int{0: 0, 1: 1}},
		Tracer:      rec,
	})
	if len(r.Switches) != 1 || r.Switches[0] != 5 {
		t.Fatalf("switch instants: %v, want [5]", r.Switches)
	}
	// Job 0 is shed at the switch; releases 1..3 (t=5,10,15) are suppressed.
	if r.DroppedJobs != 4 {
		t.Fatalf("dropped %d, want 4", r.DroppedJobs)
	}
	sawSimultaneous := false
	for _, e := range rec.Events {
		if e.Kind == EvDrop && e.TaskID == 1 && e.Job == 1 && e.Time == 5 {
			sawSimultaneous = true
		}
		if e.Kind == EvRelease && e.TaskID == 1 && e.Job >= 1 {
			t.Fatalf("LC job %d admitted in HI mode at t=%d", e.Job, e.Time)
		}
	}
	if !sawSimultaneous {
		t.Fatalf("no drop event for the release at the switch instant:\n%+v", rec.Events)
	}
}

// TestZeroHorizonAndEmptySet: degenerate configurations return zero-valued
// results.
func TestZeroHorizonAndEmptySet(t *testing.T) {
	if r := SimulateCore(nil, Config{Spec: Spec{Horizon: 100}}); r.Released != 0 {
		t.Fatal("empty set released jobs")
	}
	ts := mcs.TaskSet{mcs.NewLC(0, 1, 10)}
	if r := SimulateCore(ts, Config{Spec: Spec{Horizon: 0}}); r.Released != 0 {
		t.Fatal("zero horizon released jobs")
	}
	if r := SimulateCore(ts, Config{Spec: Spec{Horizon: -5}}); r.Released != 0 {
		t.Fatal("negative horizon released jobs")
	}
}
