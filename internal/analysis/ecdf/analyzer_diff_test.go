package ecdf

import (
	"math/rand"
	"testing"

	"mcsched/internal/analysis/ey"
	"mcsched/internal/mcs"
	"mcsched/internal/taskgen"
)

// TestSearchMatchesAnalyze runs the analyzer's whole search — the EY pass,
// the five λ restarts, the relaxation in front of each — on one Shaper
// whose HI-mode walks resume from the previous walk's certificate, and
// compares verdict and final virtual deadlines with the stateless Analyze,
// which walks the full horizon every time. (ey's shaping differential
// compares the runs witness by witness; this one adds the relaxation,
// whose upward moves are what must drop the certificate, and the order of
// the restarts.) One analyzer serves every set, so whatever a search
// leaves behind meets the next one.
func TestSearchMatchesAnalyze(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	opts := DefaultOptions()
	an := Test{}.NewAnalyzer().(*Analyzer)
	var accepts, restartWins, relaxed, exhausted int
	for sets := 0; sets < 600; {
		cfg := taskgen.DefaultConfig(1, 0.5+0.45*rng.Float64(), 0.1+0.3*rng.Float64(), 0.1+0.4*rng.Float64())
		cfg.NMin, cfg.NMax = 3, 10
		cfg.Constrained = true
		ts, err := taskgen.Generate(rng, cfg)
		if err != nil {
			continue
		}
		sets++
		want := Analyze(ts, opts)
		an.sh.Reset(ts)
		got, _ := an.runExact()
		if got != want.Schedulable {
			t.Fatalf("analyzer search=%v Analyze=%v for\n%v", got, want.Schedulable, ts)
		}
		loosestOK := ey.LOFeasible(ts, ey.InitialAssignment(ts))
		if !got {
			if loosestOK {
				exhausted++ // rejected only after every restart
			}
			continue
		}
		accepts++
		if want.Restarts > 0 {
			restartWins++
		}
		j := 0
		for _, task := range ts {
			if !task.IsHC() {
				continue
			}
			if d := an.sh.HCVD(j); d != want.VD[task.ID] {
				t.Fatalf("task %d ends at virtual deadline %d, Analyze at %d (restart %d) for\n%v",
					task.ID, d, want.VD[task.ID], want.Restarts, ts)
			}
			j++
		}
		for _, lambda := range opts.Lambdas[:want.Restarts] {
			if !ey.LOFeasible(ts, ey.ScaledAssignment(ts, lambda)) {
				relaxed++
				break
			}
		}
	}
	if restartWins == 0 || relaxed == 0 || exhausted == 0 {
		t.Fatalf("corpus too tame: %d accepts, %d by a restart, %d past a relaxation, %d rejects after all restarts",
			accepts, restartWins, relaxed, exhausted)
	}
}

// TestRelaxationDropsCertificate pins the one upward move of the search:
// a certificate proved before SetHCVD raises a deadline must not reach the
// walk after it.
func TestRelaxationDropsCertificate(t *testing.T) {
	// Two C^L = C^H = 2, T = D = 4 tasks: the HI test fails at d = D and
	// passes at d = C^L.
	ts := mcs.TaskSet{mcs.NewHC(0, 2, 2, 4), mcs.NewHC(1, 2, 2, 4)}
	var sh ey.Shaper
	sh.Reset(ts)
	sh.SetHCVD(0, 2)
	sh.SetHCVD(1, 2)
	if _, _, ok := sh.HIFeasible(); !ok { // proves (0, L] free
		t.Fatal("case too tame: the tightest assignment fails the HI test")
	}
	sh.SetHCVD(0, 4)
	sh.SetHCVD(1, 4)
	wantW, wantOK := ey.HIFeasible(ts, ey.InitialAssignment(ts))
	if wantOK {
		t.Fatal("case too tame: the loosest assignment passes the HI test")
	}
	if gotW, _, gotOK := sh.HIFeasible(); gotW != wantW || gotOK != wantOK {
		t.Fatalf("after raising deadlines: shaper (%d,%v), stateless (%d,%v)", gotW, gotOK, wantW, wantOK)
	}
}
