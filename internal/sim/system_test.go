package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"mcsched/internal/mcs"
)

// TestSpecValidate: structural invariants of wire-facing specs fail closed.
func TestSpecValidate(t *testing.T) {
	good := Spec{Horizon: 100, Scenario: SpecLoSteady}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{Horizon: 0, Scenario: SpecLoSteady},
		{Horizon: -5, Scenario: SpecLoSteady},
		{Horizon: 100, Scenario: "no-such-kind"},
		{Horizon: 100, Scenario: ""},
		{Horizon: 100, Scenario: SpecRandom, OverrunProb: -0.1},
		{Horizon: 100, Scenario: SpecRandom, OverrunProb: 1.5},
		{Horizon: 100, Scenario: SpecRandom, Jitter: -1},
		{Horizon: 100, Scenario: SpecSingleOverrun, OverrunJob: -1},
		{Horizon: 100, Scenario: SpecMinimalOverrun, OverrunJob: -2},
	}
	for i, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("bad spec %d (%+v) accepted", i, sp)
		}
		if _, err := sp.Build(); err == nil {
			t.Errorf("bad spec %d (%+v) built", i, sp)
		}
	}
}

// TestSpecBuildKinds: every declared kind builds its scenario type with the
// spec's parameters applied.
func TestSpecBuildKinds(t *testing.T) {
	for _, kind := range SpecKinds() {
		sp := Spec{Horizon: 50, Scenario: kind, OverrunTask: 1, OverrunJob: 2}
		if kind == SpecRandom {
			sp = Spec{Horizon: 50, Scenario: kind, Seed: 7, OverrunProb: 0.3, Jitter: 0.5}
		}
		if kind == SpecLoSteady || kind == SpecHiStorm {
			sp = Spec{Horizon: 50, Scenario: kind}
		}
		scn, err := sp.Build()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		switch kind {
		case SpecLoSteady:
			if _, ok := scn.(LoSteady); !ok {
				t.Fatalf("%s built %T", kind, scn)
			}
		case SpecHiStorm:
			if _, ok := scn.(HiStorm); !ok {
				t.Fatalf("%s built %T", kind, scn)
			}
		case SpecRandom:
			r, ok := scn.(Random)
			if !ok || r.Seed != 7 || r.OverrunProb != 0.3 || r.Jitter != 0.5 {
				t.Fatalf("%s built %#v", kind, scn)
			}
		case SpecSingleOverrun:
			so, ok := scn.(SingleOverrun)
			if !ok || so.OverrunTask != 1 || so.OverrunJob != 2 {
				t.Fatalf("%s built %#v", kind, scn)
			}
		case SpecMinimalOverrun:
			mo, ok := scn.(MinimalOverrun)
			if !ok || mo.OverrunTask != 1 || mo.OverrunJob != 2 {
				t.Fatalf("%s built %#v", kind, scn)
			}
		}
	}
}

// TestMinimalOverrunBoundary: the minimal-overrun scenario triggers exactly
// one switch, at the last possible instant of the designated job (C^L ticks
// into it), and degrades to no switch for LC targets and for HC tasks with
// C^H = C^L.
func TestMinimalOverrunBoundary(t *testing.T) {
	ts := mcs.TaskSet{mcs.NewHC(0, 2, 4, 20), mcs.NewLC(1, 2, 20)}
	r := SimulateCore(ts, Config{
		Horizon:  200,
		Policy:   VirtualDeadlineEDF,
		Scenario: MinimalOverrun{OverrunTask: 0, OverrunJob: 0},
	})
	if len(r.Switches) != 1 {
		t.Fatalf("want one switch, got %v", r.Switches)
	}
	// Task 0 starts at t=0 under EDF (shortest key) and exhausts C^L=2 at
	// t=2, the switch boundary.
	if r.Switches[0] != 2 {
		t.Fatalf("switch at %d, want 2 (C^L into the job)", r.Switches[0])
	}
	if !r.OK() {
		t.Fatalf("light set missed: %v", r.Misses)
	}

	lc := SimulateCore(ts, Config{
		Horizon:  200,
		Scenario: MinimalOverrun{OverrunTask: 1, OverrunJob: 0}, // LC target
	})
	if len(lc.Switches) != 0 {
		t.Fatalf("LC target switched: %v", lc.Switches)
	}
	flat := SimulateCore(mcs.TaskSet{mcs.NewHC(0, 3, 3, 20)}, Config{
		Horizon:  200,
		Scenario: MinimalOverrun{OverrunTask: 0, OverrunJob: 0}, // C^H == C^L
	})
	if len(flat.Switches) != 0 {
		t.Fatalf("C^H=C^L task switched: %v", flat.Switches)
	}
}

// TestSimulateSystemAggregates: per-core summaries land in index order,
// totals equal the per-core sums, and empty cores stay zero.
func TestSimulateSystemAggregates(t *testing.T) {
	cores := []mcs.TaskSet{
		{mcs.NewHC(0, 2, 4, 10)},
		{mcs.NewLC(1, 3, 12)},
		nil,
	}
	res, err := SimulateSystem(cores, nil, Spec{Horizon: 1000, Scenario: SpecHiStorm})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 3 {
		t.Fatalf("%d core summaries", len(res.Cores))
	}
	sumReleased, sumSwitches := 0, 0
	for k, c := range res.Cores {
		if c.Core != k {
			t.Fatalf("summary %d claims core %d", k, c.Core)
		}
		sumReleased += c.Released
		sumSwitches += c.Switches
	}
	if res.Released != sumReleased || res.Switches != sumSwitches {
		t.Fatalf("totals %d/%d disagree with sums %d/%d",
			res.Released, res.Switches, sumReleased, sumSwitches)
	}
	if res.Cores[2].Released != 0 || res.Cores[2].Tasks != 0 {
		t.Fatalf("empty core ran: %+v", res.Cores[2])
	}
	if !res.OK() || res.Witness != nil {
		t.Fatalf("light system missed: %+v", res)
	}
	if res.Cores[0].Switches == 0 {
		t.Fatal("HI storm never switched the HC core")
	}
}

// TestSimulateSystemWitness: an unsound partition yields a witness for the
// earliest-missing core, consistent with that core's first miss, with a
// bounded event window ending at the miss and a rendered timeline.
func TestSimulateSystemWitness(t *testing.T) {
	late := mcs.TaskSet{mcs.NewLC(0, 20, 30), mcs.NewLC(1, 20, 30)} // first miss at 30
	early := mcs.TaskSet{mcs.NewLC(2, 7, 10), mcs.NewLC(3, 7, 10)}  // first miss at 10
	cores := []mcs.TaskSet{late, early, {mcs.NewLC(4, 1, 10)}}      // sound third core
	res, err := SimulateSystem(cores, nil, Spec{Horizon: 500, Scenario: SpecLoSteady})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() || res.Misses == 0 {
		t.Fatalf("overloaded system reported OK: %+v", res)
	}
	w := res.Witness
	if w == nil {
		t.Fatal("no witness on an unsound run")
	}
	if w.Core != 1 {
		t.Fatalf("witness core %d, want 1 (earliest first miss)", w.Core)
	}
	fm := res.Cores[1].FirstMiss
	if fm == nil || *fm != w.Miss {
		t.Fatalf("witness miss %+v disagrees with core first miss %+v", w.Miss, fm)
	}
	if w.Miss.Deadline != 10 {
		t.Fatalf("first miss at %d, want 10", w.Miss.Deadline)
	}
	if len(w.Events) == 0 || len(w.Events) > WitnessWindow {
		t.Fatalf("witness window has %d events (cap %d)", len(w.Events), WitnessWindow)
	}
	last := w.Events[len(w.Events)-1]
	if last.Kind != EvMiss || last.Time != w.Miss.Deadline {
		t.Fatalf("witness window ends with %v, want the miss at %d", last, w.Miss.Deadline)
	}
	if !strings.Contains(w.Gantt, "!") {
		t.Fatalf("witness timeline shows no miss marker:\n%s", w.Gantt)
	}
}

// renderSystem serializes every observable field of a system result,
// including the witness event window and timeline, for byte-exact
// comparison.
func renderSystem(res SystemResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "horizon=%d released=%d completed=%d dropped=%d preempt=%d misses=%d switches=%d\n",
		res.Horizon, res.Released, res.Completed, res.Dropped, res.Preemptions, res.Misses, res.Switches)
	for _, c := range res.Cores {
		fmt.Fprintf(&b, "core=%+v\n", c)
		if c.FirstMiss != nil {
			fmt.Fprintf(&b, "  first-miss=%v\n", *c.FirstMiss)
		}
	}
	if res.Witness != nil {
		fmt.Fprintf(&b, "witness core=%d miss=%v\n", res.Witness.Core, res.Witness.Miss)
		for _, e := range res.Witness.Events {
			fmt.Fprintf(&b, "  %v\n", e)
		}
		b.WriteString(res.Witness.Gantt)
	}
	return b.String()
}

// TestGoldenTraceDeterminism: a seeded system simulation — including its
// per-core execution traces and the witness reconstruction — is
// byte-identical across repeated runs and across GOMAXPROCS 1/2/N, even
// though cores execute on concurrent goroutines. This guards against
// map-iteration or scheduling nondeterminism creeping into the engine.
func TestGoldenTraceDeterminism(t *testing.T) {
	cores := []mcs.TaskSet{
		{mcs.NewHC(0, 2, 5, 20), mcs.NewLC(1, 3, 15)},
		{mcs.NewHC(2, 3, 6, 25), mcs.NewHC(3, 2, 4, 18), mcs.NewLC(4, 2, 12)},
		{mcs.NewLC(5, 7, 10), mcs.NewLC(6, 7, 10)}, // overloaded: exercises the witness path
	}
	rt := []CoreRuntime{
		{Policy: VirtualDeadlineEDF, VD: map[int]mcs.Ticks{0: 12}},
		{Policy: FixedPriority, Priorities: map[int]int{4: 0, 3: 1, 2: 2}}, // deadline-monotonic
		{},
	}
	spec := Spec{Horizon: 3000, Scenario: SpecRandom, Seed: 42, OverrunProb: 0.3, Jitter: 0.6, ResetOnIdle: true}

	// Reference: the system run plus full serial per-core traces.
	render := func() string {
		res, err := SimulateSystem(cores, rt, spec)
		if err != nil {
			t.Fatal(err)
		}
		out := renderSystem(res)
		scn, _ := spec.Build()
		for k := range cores {
			rec := &Recorder{}
			cfg := Config{Horizon: spec.Horizon, Scenario: scn, ResetOnIdle: spec.ResetOnIdle,
				Policy: rt[k].Policy, VD: rt[k].VD, Priorities: rt[k].Priorities, Tracer: rec}
			SimulateCore(cores[k], cfg)
			out += fmt.Sprintf("--- core %d trace (%d events)\n", k, len(rec.Events))
			for _, e := range rec.Events {
				out += e.String() + "\n"
			}
		}
		return out
	}

	golden := render()
	if !strings.Contains(golden, "witness") {
		t.Fatal("golden scenario produced no witness; the determinism check would not cover it")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 3; rep++ {
			if got := render(); got != golden {
				t.Fatalf("GOMAXPROCS=%d rep=%d: trace diverged from golden\n--- got ---\n%s\n--- want ---\n%s",
					procs, rep, got, golden)
			}
		}
	}
}
