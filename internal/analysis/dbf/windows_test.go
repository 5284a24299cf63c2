package dbf

import (
	"math/rand"
	"testing"

	"mcsched/internal/mcs"
)

// The two lemmas QPAWindows adds to QPAResume's, checked on random step
// sums and pinned where a shortcut would go wrong.
//
// (W) Curves that passed a walk over a valid horizon have no violation at
// any ℓ; after one deadline is lowered from d_old to d_new, violations sit
// only on the windows [d_new + kT, d_old + kT), so a walk from the *new*
// horizon that visits window points alone decides what the full walk
// decides.
// (R) A certificate proved for pointwise-higher demand (a lower deadline
// still) holds below the horizon it was proved under, windows or not.

// lowered returns s with step i's deadline cut by cut ticks, and the
// windows the cut opened.
func lowered(s StepSum, i int, cut mcs.Ticks) (StepSum, Windows) {
	out := append(StepSum(nil), s...)
	out[i].D -= cut
	return out, Windows{Start: out[i].D, Width: cut, T: out[i].T}
}

// inWindow reports whether l is a window point.
func (w Windows) inWindow(l mcs.Ticks) bool {
	return l >= w.Start && (l-w.Start)%w.T < w.Width
}

// checkWindows asserts what QPAWindows promises for cur, obtained from
// fully proved curves by a move that raised demand on rose only; known
// must be proved for cur or for pointwise-higher demand.
func checkWindows(t *testing.T, cur StepSum, L mcs.Ticks, known Free, rose Windows) (ok bool, visited int) {
	t.Helper()
	var pts []mcs.Ticks
	w, dem, proved, ok := QPAWindows(recorder[StepSum]{cur, &pts}, L, known, rose)
	if _, want := QPAWitness(cur, L); ok != want {
		t.Fatalf("windowed walk ok=%v, full walk ok=%v: %+v L=%d known=%+v rose=%+v", ok, want, cur, L, known, rose)
	}
	if L <= exhaustiveMax {
		if _, want := Exhaustive(cur, L); ok != want {
			t.Fatalf("windowed walk ok=%v, exhaustive ok=%v: %+v L=%d rose=%+v", ok, want, cur, L, rose)
		}
	}
	for _, p := range pts {
		if !rose.inWindow(p) {
			t.Fatalf("evaluated %d, outside the windows %+v: %+v L=%d", p, rose, cur, L)
		}
		if known.Lo < p && p <= known.Hi {
			t.Fatalf("evaluated %d inside the certificate %+v: %+v L=%d rose=%+v", p, known, cur, L, rose)
		}
	}
	if !ok && (cur.Value(w) <= w || dem != cur.Value(w)) {
		t.Fatalf("witness %d with demand %d is no violation: %+v", w, dem, cur)
	}
	if proved.Hi > L {
		t.Fatalf("certificate %+v reaches above the horizon %d", proved, L)
	}
	// Free over the reals means the lower end passes too. (Exhaustive
	// stops at the first violation, which may sit below Lo; look directly.)
	if proved.Lo < proved.Hi && proved.Hi <= exhaustiveMax {
		for l := max(proved.Lo, 1); l <= proved.Hi; l++ {
			if cur.Value(l) > l {
				t.Fatalf("certificate %+v holds a violation at %d: %+v rose=%+v", proved, l, cur, rose)
			}
		}
	}
	return ok, len(pts)
}

// provedSteps draws step sums until one passes the full walk over its own
// valid horizon — the precondition of Windows.
func provedSteps(rng *rand.Rand) StepSum {
	for {
		s, _ := randSteps(rng)
		if L, ok := HorizonLO(s); ok && QPA(s, L) {
			return s
		}
	}
}

func TestQPAWindowsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var passed, failed, grew, withCert, windowed, full int
	for trial := 0; trial < 4000; trial++ {
		old := provedSteps(rng)
		i := rng.Intn(len(old))
		if old[i].D < 2 {
			continue
		}
		// One deadline lowered by 1 … T−1 ticks (D ≤ T in this corpus).
		cut := 1 + mcs.Ticks(rng.Intn(int(old[i].D-1)))
		cur, rose := lowered(old, i, cut)
		L, ok := HorizonLO(cur)
		if !ok {
			t.Fatalf("a deadline move lost the horizon: %+v", cur)
		}
		if L0, _ := HorizonLO(old); L > L0 {
			grew++
		}
		ok, n := checkWindows(t, cur, L, Free{}, rose)
		windowed += n
		var pts []mcs.Ticks
		QPAWitness(recorder[StepSum]{cur, &pts}, L)
		full += len(pts)
		if ok {
			passed++
		} else {
			failed++
		}

		// tuneStep's later tries: a walk at a lower deadline still failed
		// and left a certificate; the looser try gets it on top of its
		// windows. Both are measured against old.
		if cur[i].D < 2 {
			continue
		}
		lower, _ := lowered(cur, i, 1+mcs.Ticks(rng.Intn(int(cur[i].D-1))))
		LLower, _ := HorizonLO(lower)
		if _, _, cert, lowOK := QPAWindows(lower, LLower, Free{}, Windows{}); !lowOK && cert.Lo < cert.Hi {
			withCert++
			checkWindows(t, cur, L, cert, rose)
		}
	}
	t.Logf("%d passed, %d failed, %d horizons grew, %d with a certificate; points %d windowed, %d full", passed, failed, grew, withCert, windowed, full)
	if passed < 100 || failed < 100 || grew < 100 || withCert < 100 {
		t.Fatalf("corpus too tame: %d passed, %d failed, %d horizons grew, %d with a certificate", passed, failed, grew, withCert)
	}
	if windowed*3 > full*2 {
		t.Fatalf("windowed walks evaluated %d points, full walks %d: too little skipped", windowed, full)
	}
}

// TestQPAWindowsGrowingHorizon is PR 16's horizon trap on the LO side: the
// affine horizon grows when a deadline shrinks, and the old curves being
// proved says where violations can sit, not that they sit below the old
// horizon. In each case the only violations of the moved curves are above
// it, inside a window; a walk that started its windows at the old horizon
// would accept.
func TestQPAWindowsGrowingHorizon(t *testing.T) {
	for _, tc := range []struct {
		old           StepSum
		i             int
		cut           mcs.Ticks
		L0, L1, first mcs.Ticks
	}{
		{old: StepSum{{C: 4, D: 9, T: 12}, {C: 9, D: 13, T: 16}}, i: 0, cut: 4, L0: 26, L1: 39, first: 29},
		{old: StepSum{{C: 2, D: 27, T: 32}, {C: 8, D: 29, T: 47}, {C: 3, D: 9, T: 9}, {C: 9, D: 29, T: 39}}, i: 2, cut: 6, L0: 29, L1: 38, first: 30},
		{old: StepSum{{C: 25, D: 46, T: 60}, {C: 4, D: 17, T: 28}, {C: 9, D: 28, T: 39}}, i: 2, cut: 17, L0: 48, L1: 67, first: 50},
	} {
		L0, _ := HorizonLO(tc.old)
		cur, rose := lowered(tc.old, tc.i, tc.cut)
		L1, _ := HorizonLO(cur)
		if L0 != tc.L0 || L1 != tc.L1 || !QPA(tc.old, L0) {
			t.Fatalf("horizons %d → %d, want %d → %d with the old curves passing", L0, L1, tc.L0, tc.L1)
		}
		if first, _ := Exhaustive(cur, L1); first != tc.first || first <= L0 {
			t.Fatalf("first violation at %d, want %d, above the old horizon %d", first, tc.first, L0)
		}
		if _, _, _, ok := QPAWindows(cur, L0, Free{}, rose); !ok {
			t.Fatalf("case too tame: windows walked from the old horizon %d already fail", L0)
		}
		if ok, _ := checkWindows(t, cur, L1, Free{}, rose); ok {
			t.Fatalf("windowed walk from %d accepted %+v", L1, cur)
		}
	}
}

// TestQPAWindowsSecondTick: a two-tick window, [2, 4), whose first point
// passes and whose second fails because another task's step lands on it.
// The walk comes down on it from between windows, so a snap to window
// starts would evaluate 2, jump to 1 and accept.
func TestQPAWindowsSecondTick(t *testing.T) {
	old := StepSum{{C: 3, D: 3, T: 24}, {C: 1, D: 4, T: 8}, {C: 1, D: 7, T: 8}}
	if L, ok := HorizonLO(old); !ok || !QPA(old, L) {
		t.Fatal("case broken: the old curves do not pass")
	}
	cur, rose := lowered(old, 1, 2)
	L, _ := HorizonLO(cur)
	if first, _ := Exhaustive(cur, L); first != 3 || cur.Value(2) > 2 || old[0].D != 3 {
		t.Fatalf("case broken: first violation at %d, want 3, on the first task's step", first)
	}
	if rose != (Windows{Start: 2, Width: 2, T: 8}) || rose.inWindow(L) {
		t.Fatalf("case broken: windows %+v, horizon %d", rose, L)
	}
	if ok, _ := checkWindows(t, cur, L, Free{}, rose); ok {
		t.Fatalf("windowed walk accepted %+v", cur)
	}
}

// TestQPAWindowsFullPeriod: raw Steps allow a deadline move of a period or
// more (mcs.Task.Validate does not). The windows then cover everything
// from the new deadline up and the walk is the full walk down to there.
func TestQPAWindowsFullPeriod(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var passed, failed int
	for trial := 0; trial < 2000; trial++ {
		old := provedSteps(rng)
		i := rng.Intn(len(old))
		// Push the deadline out by whole periods first, so the cut below
		// can span them: demand only falls, the curves stay proved.
		old[i].D += old[i].T * mcs.Ticks(1+rng.Intn(2))
		cut := old[i].T + mcs.Ticks(rng.Intn(int(old[i].D-old[i].T)))
		cur, rose := lowered(old, i, cut)
		L, ok := HorizonLO(cur)
		if !ok {
			continue
		}
		var win, full []mcs.Ticks
		_, _, _, gotOK := QPAWindows(recorder[StepSum]{cur, &win}, L, Free{}, rose)
		_, wantOK := QPAWitness(recorder[StepSum]{cur, &full}, L)
		if gotOK != wantOK {
			t.Fatalf("windowed ok=%v full ok=%v: %+v rose=%+v", gotOK, wantOK, cur, rose)
		}
		for j, p := range win {
			if p != full[j] || p < rose.Start {
				t.Fatalf("windowed walk visits %v, full walk %v: %+v rose=%+v", win, full, cur, rose)
			}
		}
		if len(win) < len(full) && full[len(win)] >= rose.Start {
			t.Fatalf("windowed walk stopped at %v above the new deadline, full walk went on %v: %+v", win, full, cur)
		}
		if gotOK {
			passed++
		} else {
			failed++
		}
	}
	if passed < 50 || failed < 50 {
		t.Fatalf("corpus too tame: %d passed, %d failed", passed, failed)
	}
}

// TestQPAWindowsInsideKnown: the snap from above a certificate lands
// inside it, and the certificate's lower end is between windows. The walk
// must leave the certificate and snap again before it evaluates anything.
func TestQPAWindowsInsideKnown(t *testing.T) {
	old := StepSum{{C: 1, D: 10, T: 10}, {C: 1, D: 7, T: 7}}
	L0, _ := HorizonLO(old)
	if !QPA(old, L0) {
		t.Fatal("case broken: the old curves do not pass")
	}
	cur, rose := lowered(old, 0, 2) // windows [8, 10), [18, 20), [28, 30), …
	known := Free{Lo: 15, Hi: 19}   // 19 is a window point, 15 is not
	if bad, ok := Exhaustive(cur, known.Hi); !ok && bad > known.Lo {
		t.Fatal("case broken: the certificate is false")
	}
	var pts []mcs.Ticks
	if _, _, _, ok := QPAWindows(recorder[StepSum]{cur, &pts}, 25, known, rose); !ok {
		t.Fatalf("windowed walk rejected %+v", cur)
	}
	if len(pts) == 0 || pts[0] != 9 {
		t.Fatalf("walk from 25 evaluated %v, want it to start at 9: 19 is certified, 15 is between windows", pts)
	}
	checkWindows(t, cur, 25, known, rose)
}
