package edfvd

import (
	"math"
	"math/rand"
	"testing"

	"mcsched/internal/analysis/kernel"
	"mcsched/internal/mcs"
	"mcsched/internal/taskgen"
)

// set builds a task set from (uL, uH) pairs; uL == uH means an LC task.
func set(pairs ...[2]float64) mcs.TaskSet {
	var ts mcs.TaskSet
	for i, p := range pairs {
		const T = 1000
		cl := mcs.Ticks(math.Ceil(p[0] * T))
		ch := mcs.Ticks(math.Ceil(p[1] * T))
		var task mcs.Task
		if p[0] == p[1] {
			task = mcs.NewLC(i, cl, T)
		} else {
			task = mcs.NewHC(i, cl, ch, T)
		}
		task.ULo, task.UHi = p[0], p[1]
		ts = append(ts, task)
	}
	return ts
}

func TestPlainEDFBranch(t *testing.T) {
	// a + c = 0.4 + 0.5 ≤ 1 → plain EDF, x = 1.
	r := Analyze(set([2]float64{0.4, 0.4}, [2]float64{0.2, 0.5}))
	if !r.Schedulable || !r.PlainEDF || r.X != 1 {
		t.Errorf("got %+v, want plain-EDF accept", r)
	}
}

func TestVirtualDeadlineBranch(t *testing.T) {
	// a=0.4, b=0.3, c=0.7: a+c=1.1 > 1; x=0.3/0.6=0.5; x·a+c = 0.9 ≤ 1.
	r := Analyze(set([2]float64{0.4, 0.4}, [2]float64{0.3, 0.7}))
	if !r.Schedulable || r.PlainEDF {
		t.Fatalf("got %+v, want VD accept", r)
	}
	if math.Abs(r.X-0.5) > 1e-9 {
		t.Errorf("x = %g, want 0.5", r.X)
	}
}

func TestReject(t *testing.T) {
	// a=0.5, b=0.4, c=0.8: a+c=1.3; x=0.8; x·a+c=1.2 > 1 → reject.
	r := Analyze(set([2]float64{0.5, 0.5}, [2]float64{0.4, 0.8}))
	if r.Schedulable {
		t.Errorf("accepted infeasible set: %+v", r)
	}
	// LO-mode overload: a+b > 1.
	r = Analyze(set([2]float64{0.7, 0.7}, [2]float64{0.4, 0.45}))
	if r.Schedulable {
		t.Errorf("accepted LO-overloaded set: %+v", r)
	}
}

// TestAnalyzerCountsPaths: a cold probe ticks the counter of the path that
// decided it. Plain EDF is a fast accept, a level overloaded past 1 a fast
// reject, and a set that needs x, accepted or not, an exact run.
func TestAnalyzerCountsPaths(t *testing.T) {
	for _, tc := range []struct {
		ts   mcs.TaskSet
		want kernel.Counters
	}{
		{set([2]float64{0.4, 0.4}, [2]float64{0.2, 0.5}), kernel.Counters{FastAccepts: 1}},
		{set([2]float64{0.4, 0.4}, [2]float64{0.3, 0.7}), kernel.Counters{ExactRuns: 1}},
		{set([2]float64{0.5, 0.5}, [2]float64{0.4, 0.8}), kernel.Counters{ExactRuns: 1}},
		{set([2]float64{0.1, 0.6}, [2]float64{0.1, 0.6}), kernel.Counters{FastRejects: 1}},
	} {
		an := Test{}.NewAnalyzer()
		an.Schedulable(tc.ts)
		if got := *an.Counters(); got != tc.want {
			t.Errorf("%v: counters %+v, want %+v", tc.ts, got, tc.want)
		}
	}
}

func TestInPaperForm(t *testing.T) {
	// The acceptance region must match a ≤ (1−c)/(1−(c−b)) whenever the
	// plain-EDF branch does not apply and a+b ≤ 1.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		a := rng.Float64()
		b := rng.Float64() * (1 - a) // keep a+b ≤ 1
		c := b + rng.Float64()*(1-b)
		ts := set([2]float64{a, a}, [2]float64{b, c})
		got := Schedulable(ts)
		want := a+c <= 1 || a <= (1-c)/(1-(c-b))
		if got != want {
			t.Fatalf("a=%g b=%g c=%g: got %v want %v", a, b, c, got, want)
		}
	}
}

func TestNoHCTasks(t *testing.T) {
	if !Schedulable(set([2]float64{0.5, 0.5}, [2]float64{0.45, 0.45})) {
		t.Error("pure-LC set with U ≤ 1 rejected")
	}
	if Schedulable(set([2]float64{0.6, 0.6}, [2]float64{0.5, 0.5})) {
		t.Error("pure-LC set with U > 1 accepted")
	}
}

func TestEmptySet(t *testing.T) {
	if !Schedulable(nil) {
		t.Error("empty set rejected")
	}
}

func TestDegenerateMCReducesToEDF(t *testing.T) {
	// C^L = C^H for all HC tasks ⇒ b == c ⇒ test degenerates to a+c ≤ 1.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		a := rng.Float64()
		c := rng.Float64()
		ts := set([2]float64{a, a})
		hc := mcs.NewHC(1, mcs.Ticks(c*1000)+1, mcs.Ticks(c*1000)+1, 1000)
		hc.ULo, hc.UHi = c, c
		ts = append(ts, hc)
		if got, want := Schedulable(ts), a+c <= 1+1e-12; got != want {
			t.Fatalf("a=%g c=%g: got %v want %v", a, c, got, want)
		}
	}
}

// Property: acceptance implies the published speed-up bound cannot be
// violated — any set with UB ≤ 3/4 on one processor must be accepted
// (the 4/3 speed-up bound of EDF-VD states all sets feasible on a speed-3/4
// processor are accepted; feasibility is implied by max(a+b, c) ≤ 3/4).
func TestSpeedupRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		a := rng.Float64() * 0.75
		b := rng.Float64() * (0.75 - a)
		c := b + rng.Float64()*(0.75-b)
		if math.Max(a+b, c) > 0.75 {
			continue
		}
		ts := set([2]float64{a, a}, [2]float64{b, c})
		if !Schedulable(ts) {
			t.Fatalf("a=%g b=%g c=%g inside speed-up region rejected", a, b, c)
		}
	}
}

func TestXBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		a, b := rng.Float64(), rng.Float64()
		c := b + rng.Float64()*math.Max(0, 1-b)
		r := Analyze(set([2]float64{a, a}, [2]float64{b, c}))
		if r.Schedulable && (r.X <= 0 || r.X > 1+1e-12) {
			t.Fatalf("a=%g b=%g c=%g: x=%g outside (0,1]", a, b, c, r.X)
		}
	}
}

func TestTestAdapter(t *testing.T) {
	var tst Test
	if tst.Name() != "EDF-VD" {
		t.Errorf("Name = %q", tst.Name())
	}
	if !tst.Schedulable(set([2]float64{0.3, 0.3}, [2]float64{0.2, 0.5})) {
		t.Error("adapter rejected feasible set")
	}
}

// Generated task sets with low UB should almost always pass; with UB > 1
// never (on one processor, since max(a+b, c) > 1 is infeasible).
func TestGeneratedExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := taskgen.DefaultConfig(1, 0.3, 0.15, 0.25) // UB = 0.4
	for i := 0; i < 50; i++ {
		ts, err := taskgen.Generate(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !Schedulable(ts) {
			t.Errorf("UB=0.4 set rejected: %v", ts)
		}
	}
	cfg = taskgen.DefaultConfig(1, 0.99, 0.45, 0.55) // LO side = 1.0
	for i := 0; i < 50; i++ {
		ts, err := taskgen.Generate(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ts.TotalLo() > 1+1e-9 && Schedulable(ts) {
			t.Errorf("overloaded set accepted: ULL+ULH=%g", ts.TotalLo())
		}
	}
}
