package admission

import (
	"errors"
	"reflect"
	"testing"

	"mcsched/internal/analysis/amc"
	"mcsched/internal/analysis/ecdf"
	"mcsched/internal/analysis/edf"
	"mcsched/internal/analysis/edfvd"
	"mcsched/internal/analysis/ey"
	"mcsched/internal/core"
	"mcsched/internal/mcs"
	"mcsched/internal/sim"
)

// TestRuntimeForCoreContract pins the analysis-to-runtime mapping: each
// test family yields the policy and parameters it certified.
func TestRuntimeForCoreContract(t *testing.T) {
	// u^L_HC=0.3, u^H_HC=0.8, u^L_LC=0.3: plain EDF fails (0.8+0.3>1) but
	// EDF-VD accepts with x<1, so the runtime must carry scaled deadlines.
	ts := mcs.TaskSet{hc(1, 3, 8, 10), lc(2, 3, 10)}

	// EDF-VD: schedulable with x<1 must carry scaled virtual deadlines.
	r := edfvd.Analyze(ts)
	if !r.Schedulable || r.PlainEDF {
		t.Fatalf("fixture not EDF-VD-schedulable with scaling: %+v", r)
	}
	rt := RuntimeForCore(edfvd.Test{}, ts)
	if rt.Policy != sim.VirtualDeadlineEDF || !reflect.DeepEqual(rt.VD, sim.VDFromX(ts, r.X)) {
		t.Errorf("EDF-VD runtime: %+v", rt)
	}

	// EY and ECDF carry their per-task virtual deadline assignment.
	for _, test := range []core.Test{ey.Test{Opts: ey.DefaultOptions()}, ecdf.Test{Opts: ecdf.DefaultOptions()}} {
		rt := RuntimeForCore(test, ts)
		if rt.Policy != sim.VirtualDeadlineEDF || len(rt.VD) == 0 {
			t.Errorf("%s runtime: %+v", test.Name(), rt)
		}
	}

	// AMC variants run fixed-priority with the certified order; AMC-rtb
	// under deadline-monotonic priorities is not in the registry, but its
	// value still maps by its own options.
	for _, opts := range []amc.Options{
		{Variant: amc.Max}, {Variant: amc.RTB},
		{Variant: amc.Max, Policy: amc.DeadlineMonotonic}, {Variant: amc.RTB, Policy: amc.DeadlineMonotonic},
	} {
		rt := RuntimeForCore(amc.Test{Opts: opts}, ts)
		if rt.Policy != sim.FixedPriority || len(rt.Priorities) != len(ts) {
			t.Errorf("%s runtime: %+v", amc.Test{Opts: opts}.Name(), rt)
		}
	}
	if res := amc.Analyze(ts, amc.Options{Variant: amc.Max}); res.Schedulable {
		if rt := RuntimeForCore(amc.Test{Opts: amc.DefaultOptions()}, ts); !reflect.DeepEqual(rt.Priorities, res.Priority) {
			t.Errorf("AMC-max priorities not the certified ones: %+v vs %+v", rt.Priorities, res.Priority)
		}
	} else {
		t.Fatalf("fixture not AMC-max-schedulable: %+v", res)
	}

	// Utilization baselines, nil and tests outside the families fall back
	// to plain EDF on real deadlines.
	for _, test := range []core.Test{edf.Test{}, edf.Test{Demand: true}, nil, mysteryTest{}} {
		rt := RuntimeForCore(test, ts)
		if rt.Policy != sim.VirtualDeadlineEDF || rt.VD != nil || rt.Priorities != nil {
			t.Errorf("%T runtime not plain EDF: %+v", test, rt)
		}
	}

	// AMC on a core the analysis rejects still executes: DM fallback.
	over := mcs.TaskSet{hc(1, 5, 9, 10), hc(2, 5, 9, 10)}
	rt = RuntimeForCore(amc.Test{Opts: amc.DefaultOptions()}, over)
	if rt.Policy != sim.FixedPriority || !reflect.DeepEqual(rt.Priorities, amc.DeadlineMonotonicPriorities(over)) {
		t.Errorf("AMC fallback runtime: %+v", rt)
	}
}

// mysteryTest is a test of the caller's own, outside every family.
type mysteryTest struct{}

func (mysteryTest) Name() string                 { return "mystery-test" }
func (mysteryTest) Schedulable(mcs.TaskSet) bool { return true }

// TestSimulateTenant: a live tenant simulates deterministically, the run is
// a pure read, and the controller counts it.
func TestSimulateTenant(t *testing.T) {
	c := newTestController()
	sys := mustSystem(t, c, "t", 2)
	for i, task := range []mcs.Task{hc(1, 2, 4, 10), lc(2, 2, 12), hc(3, 1, 2, 8)} {
		r, err := sys.Admit(task)
		if err != nil || !r.Admitted {
			t.Fatalf("admit %d: %+v %v", i, r, err)
		}
	}
	before := sys.Snapshot()

	spec := sim.Spec{Horizon: 2000, Scenario: sim.SpecRandom, Seed: 99, OverrunProb: 0.5, Jitter: 0.5}
	out1, err := c.Simulate("t", spec)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := c.Simulate("t", spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out1, out2) {
		t.Errorf("same spec, different outcomes:\n%+v\n%+v", out1, out2)
	}
	if out1.System != "t" || out1.Test != "EDF-VD" || out1.Tasks != 3 {
		t.Errorf("outcome header: %+v", out1)
	}
	if !out1.Result.OK() || out1.Result.Released == 0 {
		t.Errorf("admitted tenant missed in simulation: %+v", out1.Result)
	}

	// Pure read: the partition is untouched and further admits still work.
	if after := sys.Snapshot(); !reflect.DeepEqual(before, after) {
		t.Errorf("simulation mutated the partition:\n%+v\n%+v", before, after)
	}
	if r, err := sys.Admit(lc(4, 1, 20)); err != nil || !r.Admitted {
		t.Errorf("admit after simulate: %+v %v", r, err)
	}

	if st := c.Stats(); st.Simulations != 2 {
		t.Errorf("simulations counter: %d", st.Simulations)
	}
}

// TestSimulateErrors: invalid specs and unknown tenants map to the
// daemon-visible sentinels.
func TestSimulateErrors(t *testing.T) {
	c := newTestController()
	mustSystem(t, c, "t", 1)
	if _, err := c.Simulate("t", sim.Spec{Horizon: 0, Scenario: sim.SpecLoSteady}); !errors.Is(err, ErrBadScenario) {
		t.Errorf("zero horizon: %v", err)
	}
	if _, err := c.Simulate("t", sim.Spec{Horizon: 100, Scenario: "chaos"}); !errors.Is(err, ErrBadScenario) {
		t.Errorf("unknown kind: %v", err)
	}
	if _, err := c.Simulate("nope", sim.Spec{Horizon: 100, Scenario: sim.SpecLoSteady}); !errors.Is(err, ErrNoSystem) {
		t.Errorf("unknown tenant: %v", err)
	}
	if st := c.Stats(); st.Simulations != 0 {
		t.Errorf("failed simulations counted: %d", st.Simulations)
	}
}

// TestSimulateEmptyTenant: a tenant with no tasks simulates to a sound,
// all-zero result rather than erroring.
func TestSimulateEmptyTenant(t *testing.T) {
	c := newTestController()
	mustSystem(t, c, "t", 2)
	out, err := c.Simulate("t", sim.Spec{Horizon: 100, Scenario: sim.SpecHiStorm})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Result.OK() || out.Result.Released != 0 || len(out.Result.Cores) != 2 {
		t.Errorf("empty tenant result: %+v", out.Result)
	}
}
