package ey

import (
	"math/rand"
	"testing"

	"mcsched/internal/analysis/dbf"
	"mcsched/internal/mcs"
	"mcsched/internal/oracle"
	"mcsched/internal/taskgen"
)

func TestSingleTaskAccepted(t *testing.T) {
	// One HC task always fits alone (C^H ≤ D is a model invariant).
	ts := mcs.TaskSet{mcs.NewHC(0, 1, 2, 4)}
	r := Analyze(ts)
	if !r.Schedulable {
		t.Fatalf("single HC task rejected: %+v", r)
	}
	if d := r.VD[0]; d < 1 || d > 4 {
		t.Errorf("virtual deadline %d outside [C^L, D]", d)
	}
}

func TestTightSingleTask(t *testing.T) {
	// C^H = D = T: utilization exactly 1; feasible alone.
	ts := mcs.TaskSet{mcs.NewHC(0, 1, 4, 4)}
	if !(Test{}).Schedulable(ts) {
		t.Error("utilization-1 single HC task rejected")
	}
}

func TestTightPairNeedsShaping(t *testing.T) {
	// Two C^L=C^H=2, T=D=4 tasks: plain EDF feasible (U=1), but the HI
	// carry-over analysis with d=D fails; shaping must shrink one deadline.
	ts := mcs.TaskSet{mcs.NewHC(0, 2, 2, 4), mcs.NewHC(1, 2, 2, 4)}
	r := Analyze(ts)
	if !r.Schedulable {
		t.Fatalf("tight degenerate pair rejected: %+v", r)
	}
}

func TestOverloadRejected(t *testing.T) {
	// HI-mode utilization 1.25 can never be schedulable.
	ts := mcs.TaskSet{mcs.NewHC(0, 2, 3, 4), mcs.NewHC(1, 1, 2, 4)}
	if (Test{}).Schedulable(ts) {
		t.Error("HI-overloaded set accepted")
	}
	// LO-mode overload: ΣC^L/T > 1.
	ts = mcs.TaskSet{mcs.NewHC(0, 3, 3, 4), mcs.NewLC(1, 2, 4)}
	if (Test{}).Schedulable(ts) {
		t.Error("LO-overloaded set accepted")
	}
}

func TestLCOnly(t *testing.T) {
	ts := mcs.TaskSet{mcs.NewLC(0, 1, 4), mcs.NewLC(1, 2, 4)}
	r := Analyze(ts)
	if !r.Schedulable {
		t.Error("feasible LC-only set rejected")
	}
	if len(r.VD) != 0 {
		t.Errorf("LC-only set got virtual deadlines: %v", r.VD)
	}
}

func TestEmpty(t *testing.T) {
	if !(Test{}).Schedulable(nil) {
		t.Error("empty set rejected")
	}
}

// Self-consistency: when the test accepts, the returned assignment must
// satisfy both the LO and HI QPA tests and every deadline must lie in
// [C^L, D].
func TestResultSelfConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	accepted := 0
	for i := 0; i < 300; i++ {
		ts := randomSet(rng, 1+rng.Intn(5))
		r := Analyze(ts)
		if !r.Schedulable {
			continue
		}
		accepted++
		a := oracle.Assignment(r.VD)
		for _, task := range ts {
			if !task.IsHC() {
				continue
			}
			d, ok := a[task.ID]
			if !ok {
				t.Fatalf("missing VD for HC task %d", task.ID)
			}
			if d < task.CLo() || d > task.Deadline {
				t.Fatalf("VD %d outside [%d,%d]", d, task.CLo(), task.Deadline)
			}
		}
		if !oracle.LOFeasible(ts, a) {
			t.Fatalf("accepted assignment fails LO test: %v / %v", ts, a)
		}
		if _, ok := oracle.HIFeasible(ts, a); !ok {
			t.Fatalf("accepted assignment fails HI test: %v / %v", ts, a)
		}
	}
	if accepted == 0 {
		t.Error("no random set accepted — generator too harsh for the test")
	}
}

// randomSet builds a small random dual-criticality set with moderate load.
func randomSet(rng *rand.Rand, n int) mcs.TaskSet {
	var ts mcs.TaskSet
	for i := 0; i < n; i++ {
		T := mcs.Ticks(5 + rng.Intn(50))
		if rng.Intn(2) == 0 {
			c := mcs.Ticks(1 + rng.Intn(int(T)/3+1))
			ts = append(ts, mcs.NewLC(i, c, T))
		} else {
			ch := mcs.Ticks(1 + rng.Intn(int(T)/2+1))
			cl := mcs.Ticks(1 + rng.Intn(int(ch)))
			d := ch + mcs.Ticks(rng.Intn(int(T-ch)+1))
			ts = append(ts, mcs.NewHCConstrained(i, cl, ch, T, d))
		}
	}
	return ts
}

// Necessary condition: acceptance requires ΣC^H/T ≤ 1 over HC tasks and
// ΣC^L/T ≤ 1 over all tasks.
func TestAcceptanceImpliesUtilizationBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		ts := randomSet(rng, 1+rng.Intn(6))
		if !(Test{}).Schedulable(ts) {
			continue
		}
		var uh, ul float64
		for _, task := range ts {
			ul += float64(task.CLo()) / float64(task.Period)
			if task.IsHC() {
				uh += float64(task.CHi()) / float64(task.Period)
			}
		}
		if uh > 1+1e-9 || ul > 1+1e-9 {
			t.Fatalf("accepted set with uh=%g ul=%g: %v", uh, ul, ts)
		}
	}
}

// EY must accept at least everything plain worst-case-reservation EDF
// accepts on implicit deadlines with generous slack (sanity lower bound on
// acceptance strength): if Σ C^H/T ≤ 0.5 the set is trivially schedulable
// and the test must agree.
func TestAcceptsLightLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := taskgen.DefaultConfig(1, 0.4, 0.2, 0.1) // UB = 0.4
	for i := 0; i < 100; i++ {
		ts, err := taskgen.Generate(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !(Test{}).Schedulable(ts) {
			t.Fatalf("light-load set rejected: %v", ts)
		}
	}
}

// Constrained-deadline generated sets: the verdict must be self-consistent
// and the test must terminate quickly.
func TestGeneratedConstrained(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := taskgen.DefaultConfig(1, 0.6, 0.3, 0.3)
	cfg.Constrained = true
	accepted := 0
	for i := 0; i < 100; i++ {
		ts, err := taskgen.Generate(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := Analyze(ts)
		if r.Schedulable {
			accepted++
			if !oracle.LOFeasible(ts, r.VD) {
				t.Fatal("accepted but LO-infeasible")
			}
		}
	}
	t.Logf("accepted %d/100 at UB=0.6 constrained", accepted)
}

func TestScaledAssignment(t *testing.T) {
	ts := mcs.TaskSet{mcs.NewHC(0, 10, 20, 100), mcs.NewLC(1, 5, 50)}
	a := oracle.ScaledAssignment(ts, 0)
	if a[0] != 10 {
		t.Errorf("λ=0: d = %d, want C^L = 10", a[0])
	}
	a = oracle.ScaledAssignment(ts, 1)
	if a[0] != 100 {
		t.Errorf("λ=1: d = %d, want D = 100", a[0])
	}
	a = oracle.ScaledAssignment(ts, 0.5)
	if a[0] != 55 {
		t.Errorf("λ=0.5: d = %d, want 55", a[0])
	}
	if _, ok := a[1]; ok {
		t.Error("LC task got a virtual deadline")
	}
}

func TestShapeFromDoesNotMutate(t *testing.T) {
	ts := mcs.TaskSet{mcs.NewHC(0, 2, 2, 4), mcs.NewHC(1, 2, 2, 4)}
	a := oracle.InitialAssignment(ts)
	before := a.Clone()
	oracle.ShapeFrom(ts, a, budget)
	for id, d := range before {
		if a[id] != d {
			t.Fatalf("ShapeFrom mutated input assignment at task %d", id)
		}
	}
}

func TestCurvesMatchModel(t *testing.T) {
	ts := mcs.TaskSet{
		mcs.NewHCConstrained(0, 2, 5, 10, 10),
		mcs.NewLC(1, 3, 12),
	}
	a := oracle.Assignment{0: 6}
	lo := oracle.LOCurves(ts, a)
	if len(lo) != 2 {
		t.Fatalf("LO curves = %d, want 2", len(lo))
	}
	if lo[0] != (dbf.Step{C: 2, D: 6, T: 10}) {
		t.Errorf("HC LO step = %+v", lo[0])
	}
	if lo[1] != (dbf.Step{C: 3, D: 12, T: 12}) {
		t.Errorf("LC LO step = %+v", lo[1])
	}
	hi := oracle.HICurves(ts, a)
	if len(hi) != 1 {
		t.Fatalf("HI curves = %d, want 1", len(hi))
	}
	if hi[0] != (dbf.Sawtooth{CL: 2, CH: 5, D: 10, VD: 6, T: 10}) {
		t.Errorf("sawtooth = %+v", hi[0])
	}
}

func TestTestAdapter(t *testing.T) {
	var tst Test
	if tst.Name() != "EY" {
		t.Errorf("Name = %q", tst.Name())
	}
	if !tst.Schedulable(mcs.TaskSet{mcs.NewHC(0, 1, 2, 10)}) {
		t.Error("adapter rejected trivial set")
	}
	// No generated set comes near the shaping budget, so the differentials
	// against the oracle, which run it at 256, cannot tell a drifted copy.
	if budget != 256 {
		t.Errorf("budget %d, the oracle differentials run 256", budget)
	}
}

func BenchmarkAnalyze(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	cfg := taskgen.DefaultConfig(1, 0.7, 0.35, 0.25)
	cfg.Constrained = true
	sets := make([]mcs.TaskSet, 32)
	for i := range sets {
		ts, err := taskgen.Generate(rng, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sets[i] = ts
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analyze(sets[i%len(sets)])
	}
}
