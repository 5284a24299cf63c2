package ecdf

import (
	"math/rand"
	"testing"

	"mcsched/internal/analysis/dbf"
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
// leaves behind meets the next one. Underneath, every LO-mode walk of the
// search — the loosest check, each relaxation round (resumed from the
// failed round before it), each try of each tuneStep (windowed) — must
// give the verdict of the stateless LO test under the same deadlines.
func TestSearchMatchesAnalyze(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	opts := DefaultOptions()
	an := Test{}.NewAnalyzer().(*Analyzer)
	var accepts, restartWins, relaxed, exhausted int
	var ts mcs.TaskSet
	var windowed, resumedRounds int
	an.sh.SetLOWalkHook(func(known dbf.Free, rose dbf.Windows, ok bool) {
		if want := ey.LOFeasible(ts, shaperVDs(&an.sh, ts)); ok != want {
			t.Fatalf("LO walk via %+v and %+v says %v, the stateless test %v, for\n%v", known, rose, ok, want, ts)
		}
		switch {
		case rose != (dbf.Windows{}):
			windowed++
		case known != (dbf.Free{}):
			resumedRounds++ // only the relaxation resumes a full walk
		}
	})
	for sets := 0; sets < 600; {
		cfg := taskgen.DefaultConfig(1, 0.5+0.45*rng.Float64(), 0.1+0.3*rng.Float64(), 0.1+0.4*rng.Float64())
		cfg.NMin, cfg.NMax = 3, 10
		cfg.Constrained = true
		var err error
		if ts, err = taskgen.Generate(rng, cfg); err != nil {
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
	if windowed < 1000 || resumedRounds < 100 {
		t.Fatalf("corpus too tame: %d windowed tries, %d resumed relaxation rounds", windowed, resumedRounds)
	}
}

// shaperVDs reads the Shaper's assignment back as an ID-keyed map.
func shaperVDs(sh *ey.Shaper, ts mcs.TaskSet) ey.Assignment {
	a, j := ey.Assignment{}, 0
	for _, task := range ts {
		if task.IsHC() {
			a[task.ID] = sh.HCVD(j)
			j++
		}
	}
	return a
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

// TestRelaxationKeepsLOCertificate is the LO mirror: raising a virtual
// deadline lowers LO demand, so what a failed LO walk proved must reach the
// walk after the raise — that is what lets the relaxation's rounds resume —
// and a lowered deadline must drop it again.
func TestRelaxationKeepsLOCertificate(t *testing.T) {
	// Three C^L = 2, T = D = 10 tasks: the LO test fails while two of them
	// sit at d = C^L (demand 4 at ℓ = 2) and passes with one.
	ts := mcs.TaskSet{mcs.NewHC(0, 2, 3, 10), mcs.NewHC(1, 2, 3, 10), mcs.NewHC(2, 2, 3, 10)}
	var known []dbf.Free
	// record notes what each LO walk of sh is handed and holds its verdict
	// to the stateless test's.
	record := func(sh *ey.Shaper) {
		known = known[:0]
		sh.SetLOWalkHook(func(k dbf.Free, _ dbf.Windows, ok bool) {
			known = append(known, k)
			if want := ey.LOFeasible(ts, shaperVDs(sh, ts)); ok != want {
				t.Fatalf("walk %d via %+v says %v, the stateless test %v", len(known), k, ok, want)
			}
		})
	}
	var sh ey.Shaper
	record(&sh)
	sh.Reset(ts)
	for j := 0; j < 3; j++ {
		sh.SetHCVD(j, 2)
	}
	if sh.LOFeasible() { // fails at 2 and proves (6, 12]
		t.Fatal("case too tame: the tightest assignment passes the LO test")
	}
	sh.SetHCVD(0, 10)
	if sh.LOFeasible() {
		t.Fatal("case too tame: one raise is enough")
	}
	sh.SetHCVD(1, 10)
	if !sh.LOFeasible() {
		t.Fatal("case broken: the LO test fails with one task at its tightest")
	}
	if len(known) != 3 || known[0] != (dbf.Free{}) || known[1] != (dbf.Free{Lo: 6, Hi: 12}) || known[2] == (dbf.Free{}) {
		t.Fatalf("walks were handed %+v; want nothing, then (6, 12], then what the second proved", known)
	}
	sh.SetHCVD(1, 2) // LO demand rises: nothing proved may survive
	if sh.LOFeasible() || known[3] != (dbf.Free{}) {
		t.Fatalf("after lowering a deadline the walk was handed %+v", known[3])
	}

	// The same through the relaxation itself, from ECDF's tightest restart.
	an := Test{}.NewAnalyzer().(*Analyzer)
	an.sh.Reset(ts)
	an.sh.Scale(0.05)
	record(&an.sh)
	if !an.relaxUntilLOFeasible() {
		t.Fatal("relaxation gave up")
	}
	if len(known) < 2 || known[0] != (dbf.Free{}) {
		t.Fatalf("relaxation walks were handed %+v", known)
	}
	for i, k := range known[1:] {
		if k == (dbf.Free{}) {
			t.Fatalf("relaxation round %d started over: %+v", i+1, known)
		}
	}
}
