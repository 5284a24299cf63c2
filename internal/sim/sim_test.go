package sim

import (
	"testing"

	"mcsched/internal/mcs"
)

func TestEmptyAndTrivial(t *testing.T) {
	if r := SimulateCore(nil, Config{Horizon: 100}); r.Released != 0 || !r.OK() {
		t.Errorf("empty core: %+v", r)
	}
	if r := SimulateCore(mcs.TaskSet{mcs.NewLC(0, 1, 10)}, Config{}); r.Released != 0 {
		t.Errorf("zero horizon released jobs: %+v", r)
	}
}

func TestSingleTaskExactSchedule(t *testing.T) {
	// One LC task (C=3, T=10) over 100 ticks: 10 jobs, 30 busy ticks, no
	// misses, no switches.
	ts := mcs.TaskSet{mcs.NewLC(0, 3, 10)}
	r := SimulateCore(ts, Config{Horizon: 100, Scenario: LoSteady{}})
	if r.Released != 10 || r.Completed != 10 {
		t.Errorf("released=%d completed=%d, want 10/10", r.Released, r.Completed)
	}
	if r.Busy != 30 {
		t.Errorf("busy=%d, want 30", r.Busy)
	}
	if !r.OK() || len(r.Switches) != 0 {
		t.Errorf("unexpected misses/switches: %+v", r)
	}
}

func TestDeadlineMissDetected(t *testing.T) {
	// Two LC tasks each C=6, T=D=10: LO demand 12 > 10 ⇒ one must miss at
	// its deadline, detected exactly at tick 10.
	ts := mcs.TaskSet{mcs.NewLC(0, 6, 10), mcs.NewLC(1, 6, 10)}
	r := SimulateCore(ts, Config{Horizon: 50, Scenario: LoSteady{}})
	if r.OK() {
		t.Fatal("overload produced no miss")
	}
	if r.Misses[0].Deadline != 10 {
		t.Errorf("first miss at %d, want deadline 10", r.Misses[0].Deadline)
	}
	// StopOnMiss aborts at the first one.
	r = SimulateCore(ts, Config{Horizon: 50, Scenario: LoSteady{}, StopOnMiss: true})
	if len(r.Misses) != 1 {
		t.Errorf("StopOnMiss recorded %d misses", len(r.Misses))
	}
}

func TestModeSwitchDropsLC(t *testing.T) {
	// HC τ0 (CL=2, CH=6, T=D=10), LC τ1 (C=3, T=D=10). τ0's first job
	// overruns: switch at tick 2; τ1's pending job is dropped; later LC
	// releases resume only after an idle reset.
	ts := mcs.TaskSet{mcs.NewHC(0, 2, 6, 10), mcs.NewLC(1, 3, 10)}
	cfg := Config{
		Horizon:  40,
		Scenario: SingleOverrun{OverrunTask: 0, OverrunJob: 0},
		VD:       map[int]mcs.Ticks{0: 5},
	}
	r := SimulateCore(ts, cfg)
	if len(r.Switches) != 1 || r.Switches[0] != 2 {
		t.Fatalf("switches = %v, want [2]", r.Switches)
	}
	if r.DroppedJobs == 0 {
		t.Error("no LC job dropped at the switch")
	}
	if !r.OK() {
		t.Errorf("misses: %v", r.Misses)
	}
	if r.FinishedMode != mcs.HI {
		t.Error("mode should remain HI without ResetOnIdle")
	}

	cfg.ResetOnIdle = true
	r = SimulateCore(ts, cfg)
	if len(r.Resets) == 0 {
		t.Error("no reset despite ResetOnIdle")
	}
	if r.FinishedMode != mcs.LO {
		t.Error("mode should have recovered to LO")
	}
	// After recovery the LC task runs again: more completions than the
	// non-reset run.
	if r.Completed < 5 {
		t.Errorf("completed=%d, expected LC to resume after reset", r.Completed)
	}
}

func TestVirtualDeadlineOrdersLOMode(t *testing.T) {
	// Two tasks, same period: HC τ0 (CL=4, CH=8, T=D=20, VD=5) and LC τ1
	// (C=4, T=D=20). With VD=5 < 20 the HC job runs first; without
	// scaling, the LC job's earlier seq breaks the tie. Observe via busy
	// completion order: τ0 completes at 4 with VD, τ1 completes at 4
	// without (both complete either way; check preemptions = 0).
	ts := mcs.TaskSet{mcs.NewHC(0, 4, 8, 20), mcs.NewLC(1, 4, 20)}
	r := SimulateCore(ts, Config{Horizon: 20, Scenario: LoSteady{}, VD: map[int]mcs.Ticks{0: 5}})
	if !r.OK() || r.Completed != 2 {
		t.Fatalf("unexpected result: %+v", r)
	}
	if r.Preemptions != 0 {
		t.Errorf("preemptions = %d, want 0 (non-preemptive workload)", r.Preemptions)
	}
}

func TestFixedPriorityRespected(t *testing.T) {
	// τ0 low priority (C=5, T=D=10), τ1 high priority (C=2, T=5, D=5).
	// τ1 preempts τ0's job at t=5.
	ts := mcs.TaskSet{mcs.NewLC(0, 5, 10), mcs.NewLCConstrained(1, 2, 5, 5)}
	r := SimulateCore(ts, Config{
		Horizon:    20,
		Policy:     FixedPriority,
		Priorities: map[int]int{0: 1, 1: 0},
		Scenario:   LoSteady{},
	})
	if !r.OK() {
		t.Fatalf("misses: %v", r.Misses)
	}
	if r.Preemptions == 0 {
		t.Error("expected at least one preemption of the low-priority task")
	}
}

func TestPartitionedIsolation(t *testing.T) {
	// The paper's Section II property: a mode switch on core 0 must not
	// disturb LC tasks on core 1.
	core0 := mcs.TaskSet{mcs.NewHC(0, 2, 6, 10), mcs.NewLC(1, 2, 10)}
	core1 := mcs.TaskSet{mcs.NewLC(2, 5, 10)}
	r, err := SimulateSystem([]mcs.TaskSet{core0, core1},
		[]CoreRuntime{{VD: map[int]mcs.Ticks{0: 5}}},
		Spec{Horizon: 100, Scenario: SpecSingleOverrun, OverrunTask: 0, OverrunJob: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cores[0].Switches != 1 {
		t.Fatalf("core 0 switches = %d", r.Cores[0].Switches)
	}
	if r.Cores[1].Switches != 0 || r.Cores[1].Dropped != 0 {
		t.Errorf("core 1 affected by core 0's switch: %+v", r.Cores[1])
	}
	if r.Cores[1].Completed != 10 {
		t.Errorf("core 1 completed %d, want all 10", r.Cores[1].Completed)
	}
	if r.Switches != 1 {
		t.Errorf("total switches = %d", r.Switches)
	}
}

func TestRandomScenarioDeterminism(t *testing.T) {
	ts := mcs.TaskSet{mcs.NewHC(0, 2, 6, 10), mcs.NewLC(1, 3, 12)}
	cfg := Config{Horizon: 500, Scenario: Random{Seed: 7, OverrunProb: 0.3, Jitter: 0.2}}
	a := SimulateCore(ts, cfg)
	b := SimulateCore(ts, cfg)
	if a.Released != b.Released || a.Busy != b.Busy || len(a.Switches) != len(b.Switches) {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestScenarioClamping(t *testing.T) {
	// Scenario returning absurd values must be clamped into [1, budget].
	ts := mcs.TaskSet{mcs.NewLC(0, 3, 10)}
	r := SimulateCore(ts, Config{Horizon: 30, Scenario: crazyScenario{}})
	if !r.OK() {
		t.Errorf("clamped scenario missed: %v", r.Misses)
	}
	if r.Busy != 9 { // 3 jobs at the LC budget 3
		t.Errorf("busy = %d, want 9 (clamped to C^L)", r.Busy)
	}
}

type crazyScenario struct{}

func (crazyScenario) ExecTime(t mcs.Task, _ int) mcs.Ticks { return 1 << 40 }
func (crazyScenario) Gap(t mcs.Task, _ int) mcs.Ticks      { return -5 }

func TestJitterStretchesGaps(t *testing.T) {
	ts := mcs.TaskSet{mcs.NewLC(0, 1, 10)}
	noJitter := SimulateCore(ts, Config{Horizon: 1000, Scenario: Random{Seed: 1}})
	jitter := SimulateCore(ts, Config{Horizon: 1000, Scenario: Random{Seed: 1, Jitter: 0.5}})
	if jitter.Released >= noJitter.Released {
		t.Errorf("jitter did not slow releases: %d vs %d", jitter.Released, noJitter.Released)
	}
}

func TestVDFromX(t *testing.T) {
	ts := mcs.TaskSet{mcs.NewHC(0, 1, 2, 100), mcs.NewLC(1, 1, 100)}
	vd := VDFromX(ts, 0.5)
	if vd[0] != 50 {
		t.Errorf("vd[0] = %d, want 50", vd[0])
	}
	if _, ok := vd[1]; ok {
		t.Error("LC task got a virtual deadline")
	}
	vd = VDFromX(ts, 1.5)
	if vd[0] != 100 {
		t.Errorf("x≥1: vd[0] = %d, want D", vd[0])
	}
}

func TestHiStormSwitchesEveryBusyPeriod(t *testing.T) {
	ts := mcs.TaskSet{mcs.NewHC(0, 2, 4, 10)}
	r := SimulateCore(ts, Config{Horizon: 100, Scenario: HiStorm{}, ResetOnIdle: true, VD: map[int]mcs.Ticks{0: 6}})
	if len(r.Switches) < 5 {
		t.Errorf("switches = %d, want one per job burst", len(r.Switches))
	}
	if len(r.Resets) < 5 {
		t.Errorf("resets = %d", len(r.Resets))
	}
	if !r.OK() {
		t.Errorf("misses: %v", r.Misses)
	}
}
