package dbf

import (
	"math/rand"
	"testing"

	"mcsched/internal/mcs"
)

// The two lemmas QPAResume rests on, checked on random curve sums.
//
// (A) Start independence: from every point the full walk passes through,
// and from any certificate proved for a pointwise-higher curve, the walk
// returns what the full walk from the horizon returns.
// (B) Monotonicity: a lower virtual deadline (HI sawtooth) or a larger
// LO-mode deadline (step) gives pointwise lower demand — which is what
// lets a certificate outlive the curve it was proved for.

// harmonicPeriods keeps hyperperiods far below lcmCap, so with utilization
// near 1 the periodic horizon (transient + hyperperiod) is the one that
// binds — the bound that can grow when a deadline moves.
var harmonicPeriods = []mcs.Ticks{4, 6, 8, 12, 16, 24, 48}

func randPeriod(rng *rand.Rand, harmonic bool) mcs.Ticks {
	if harmonic {
		return harmonicPeriods[rng.Intn(len(harmonicPeriods))]
	}
	return mcs.Ticks(2 + rng.Intn(60))
}

// randSaws draws a sawtooth set and a second one with every virtual
// deadline at or above the first's: pointwise-higher HI demand.
func randSaws(rng *rand.Rand) (low, high SawSum) {
	harmonic := rng.Intn(2) == 0
	for n := 1 + rng.Intn(5); n > 0; n-- {
		T := randPeriod(rng, harmonic)
		D := 1 + mcs.Ticks(rng.Intn(int(T)))
		CH := 1 + mcs.Ticks(rng.Intn(int(D)))
		if rng.Intn(3) > 0 { // keep most sets near or below utilization 1
			CH = 1 + CH/3
		}
		CL := 1 + mcs.Ticks(rng.Intn(int(CH)))
		VD := CL + mcs.Ticks(rng.Intn(int(D-CL)+1))
		s := Sawtooth{CL: CL, CH: CH, D: D, VD: VD, T: T}
		low = append(low, s)
		s.VD += mcs.Ticks(rng.Intn(int(D-VD) + 1))
		high = append(high, s)
	}
	return low, high
}

// randSteps is randSaws for LO-mode steps: high has deadlines at or below
// low's.
func randSteps(rng *rand.Rand) (low, high StepSum) {
	harmonic := rng.Intn(2) == 0
	for n := 1 + rng.Intn(6); n > 0; n-- {
		T := randPeriod(rng, harmonic)
		D := 1 + mcs.Ticks(rng.Intn(int(T)))
		C := 1 + mcs.Ticks(rng.Intn(int(D)))
		if rng.Intn(3) > 0 {
			C = 1 + C/3
		}
		low = append(low, Step{C: C, D: D, T: T})
		high = append(high, Step{C: C, D: C + mcs.Ticks(rng.Intn(int(D-C)+1)), T: T})
	}
	return low, high
}

// recorder notes every point a walk evaluates.
type recorder[C Curve] struct {
	c   C
	pts *[]mcs.Ticks
}

func (r recorder[C]) Value(l mcs.Ticks) mcs.Ticks {
	*r.pts = append(*r.pts, l)
	return r.c.Value(l)
}
func (r recorder[C]) PrevKink(l mcs.Ticks) mcs.Ticks { return r.c.PrevKink(l) }

const exhaustiveMax = 6000

// checkResume asserts everything QPAResume promises for curve low at
// horizon L, given a pointwise-higher curve high walked to horizon LHigh.
func checkResume[C Curve](t *testing.T, low, high C, L, LHigh mcs.Ticks, rng *rand.Rand) {
	t.Helper()
	var pts []mcs.Ticks
	w, ok := QPAWitness(recorder[C]{low, &pts}, L)
	if L <= exhaustiveMax {
		if _, want := Exhaustive(low, L); ok != want {
			t.Fatalf("full walk ok=%v exhaustive=%v: %+v L=%d", ok, want, low, L)
		}
	}
	if !ok && low.Value(w) <= w {
		t.Fatalf("witness %d is no violation: %+v", w, low)
	}

	// (B), sampled: the second curve really is pointwise higher.
	for i := 0; i < 50; i++ {
		l := mcs.Ticks(rng.Int63n(int64(L) + 50))
		if low.Value(l) > high.Value(l) {
			t.Fatalf("monotonicity: low %+v above high %+v at %d", low, high, l)
		}
	}

	// (A) from every passing point of the full walk, as a fresh horizon
	// and as a certificate reaching up to L.
	for _, s := range pts {
		if low.Value(s) > s {
			continue
		}
		if w2, ok2 := QPAWitness(low, s); w2 != w || ok2 != ok {
			t.Fatalf("walk from %d gives (%d,%v), from L=%d (%d,%v): %+v", s, w2, ok2, L, w, ok, low)
		}
		if w2, _, _, ok2 := QPAResume(low, L, Free{Lo: s, Hi: L}); w2 != w || ok2 != ok {
			t.Fatalf("resume via (%d,%d] gives (%d,%v), full (%d,%v): %+v", s, L, w2, ok2, w, ok, low)
		}
	}

	// Certificates proved on the higher curve: the one its walk leaves
	// behind and arbitrary sub-intervals of it.
	_, _, cert, _ := QPAResume(high, LHigh, Free{})
	certs := []Free{cert}
	for i := 0; i < 4 && cert.Lo < cert.Hi; i++ {
		lo := cert.Lo + mcs.Ticks(rng.Int63n(int64(cert.Hi-cert.Lo)))
		hi := lo + 1 + mcs.Ticks(rng.Int63n(int64(cert.Hi-lo)))
		certs = append(certs, Free{Lo: lo, Hi: hi})
	}
	for _, known := range certs {
		w2, dem, proved, ok2 := QPAResume(low, L, known)
		if w2 != w || ok2 != ok {
			t.Fatalf("resume via %+v gives (%d,%v), full (%d,%v): low %+v high %+v L=%d LHigh=%d",
				known, w2, ok2, w, ok, low, high, L, LHigh)
		}
		if !ok && dem != low.Value(w) {
			t.Fatalf("demand at witness %d: got %d want %d", w, dem, low.Value(w))
		}
		if proved.Hi > L {
			t.Fatalf("certificate %+v reaches above the horizon %d", proved, L)
		}
		// Free over the reals means the lower end passes too.
		if proved.Lo < proved.Hi && proved.Hi <= exhaustiveMax {
			for l := max(proved.Lo, 1); l <= proved.Hi; l++ {
				if low.Value(l) > l {
					t.Fatalf("certificate %+v holds a violation at %d: %+v", proved, l, low)
				}
			}
		}
	}
}

func TestQPAResumeSawtooth(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	grew, failed := 0, 0
	for trial := 0; trial < 3000; trial++ {
		low, high := randSaws(rng)
		L, okL := HorizonHI(low)
		LHigh, okH := HorizonHI(high)
		if !okL || !okH {
			L, LHigh = mcs.Ticks(1+rng.Intn(400)), mcs.Ticks(1+rng.Intn(400))
		}
		if L > LHigh {
			grew++
		}
		if !QPA(low, L) {
			failed++
		}
		checkResume(t, low, high, L, LHigh, rng)
	}
	if grew == 0 || failed == 0 {
		t.Fatalf("corpus too tame: %d horizons grew, %d walks failed", grew, failed)
	}
}

func TestQPAResumeStep(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	failed := 0
	for trial := 0; trial < 3000; trial++ {
		low, high := randSteps(rng)
		L, okL := HorizonLO(low)
		LHigh, okH := HorizonLO(high)
		if !okL || !okH {
			L, LHigh = mcs.Ticks(1+rng.Intn(400)), mcs.Ticks(1+rng.Intn(400))
		}
		if !QPA(low, L) {
			failed++
		}
		checkResume(t, low, high, L, LHigh, rng)
	}
	if failed == 0 {
		t.Fatal("corpus too tame: no walk failed")
	}
}

// TestQPAResumeGrowingHorizon is the trap a certificate open above would
// fall into: the periodic horizon is max offset + hyperperiod, so shrinking
// a virtual deadline can raise it, and the periodic bound promises a
// violation a counterpart below the horizon, not that none sits above it.
// In both cases the shrink raises the horizon and the full walk's witness
// is the new horizon itself; in the second the earlier walk leaves a
// certificate, (14, 18], that a walk ignoring its upper end would enter
// from 20 and come out of with the stale witness 13.
func TestQPAResumeGrowingHorizon(t *testing.T) {
	for _, tc := range []struct {
		before, after SawSum
		L0, L1        mcs.Ticks
		cert          Free
	}{{
		before: SawSum{{CL: 26, CH: 179, D: 218, VD: 218, T: 237}, {CL: 2, CH: 3, D: 3, VD: 3, T: 14}},
		after:  SawSum{{CL: 26, CH: 179, D: 218, VD: 165, T: 237}, {CL: 2, CH: 3, D: 3, VD: 3, T: 14}},
		L0:     3318, L1: 3371, cert: Free{Lo: 3371, Hi: 3318},
	}, {
		before: SawSum{{CL: 2, CH: 4, D: 11, VD: 5, T: 12}, {CL: 1, CH: 2, D: 3, VD: 3, T: 4}, {CL: 2, CH: 2, D: 9, VD: 3, T: 12}},
		after:  SawSum{{CL: 2, CH: 4, D: 11, VD: 3, T: 12}, {CL: 1, CH: 2, D: 3, VD: 3, T: 4}, {CL: 2, CH: 2, D: 9, VD: 3, T: 12}},
		L0:     18, L1: 20, cert: Free{Lo: 14, Hi: 18},
	}} {
		L0, _ := HorizonHI(tc.before)
		L1, _ := HorizonHI(tc.after)
		if L0 != tc.L0 || L1 != tc.L1 {
			t.Fatalf("horizons %d → %d, want %d → %d", L0, L1, tc.L0, tc.L1)
		}
		_, _, cert, ok := QPAResume(tc.before, L0, Free{})
		if ok || cert != tc.cert {
			t.Fatalf("first walk: ok=%v cert=%+v, want %+v", ok, cert, tc.cert)
		}
		want, _ := QPAWitness(tc.after, L1)
		got, _, _, _ := QPAResume(tc.after, L1, cert)
		if want != L1 || got != want {
			t.Fatalf("witness resumed %d, full %d, want %d", got, want, L1)
		}
	}
}

// slowCurve is tight everywhere with a kink at every point: the walk
// advances one tick per iteration and never converges.
type slowCurve struct{}

func (slowCurve) Value(l mcs.Ticks) mcs.Ticks    { return l }
func (slowCurve) PrevKink(l mcs.Ticks) mcs.Ticks { return l - 1 }

func TestBackstopCounted(t *testing.T) {
	before := Backstops()
	if _, ok := QPAWitness(slowCurve{}, maxQPAIters+10); ok {
		t.Fatal("a walk that ran out of iterations reported schedulable")
	}
	if QPA(slowCurve{}, maxQPAIters-10) != true {
		t.Fatal("a walk inside the budget was cut short")
	}
	if got := Backstops() - before; got != 1 {
		t.Fatalf("backstop hits %d, want 1", got)
	}
}
