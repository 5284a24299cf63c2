package taskgen

// The screened discard loop against the loop it replaced. The screen may
// only ever skip work: discardOracle below is the pre-screen loop, kept
// verbatim, and every test here runs it in lockstep with discard on twin
// sources and demands the same return, the same vector bits and the same
// next draw.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// discardOracle is discard as it stood before the screen (PR 16), verbatim:
// one pass, math.Pow on every step, the uniforms drawn as they are used.
func discardOracle(rng *rand.Rand, u []float64, total, lo, hi float64, caps []float64, keepLast bool) bool {
	n := len(u)
	for try := 0; try < maxDiscardTries; try++ {
		full := keepLast && try == maxDiscardTries-1
		sum := total
		ok := true
		i := 0
		for ; i < n-1; i++ {
			next := sum * math.Pow(rng.Float64(), 1/float64(n-1-i))
			u[i] = sum - next
			sum = next
			if caps != nil {
				hi = caps[i]
			}
			if u[i] < lo || u[i] > hi {
				ok = false
				if !full {
					break
				}
			}
		}
		if i < n-1 {
			for i++; i < n-1; i++ {
				rng.Float64()
			}
			continue
		}
		u[n-1] = sum
		if caps != nil {
			hi = caps[n-1]
		}
		if ok && sum >= lo && sum <= hi {
			return true
		}
	}
	return false
}

// scriptSource yields the scripted 63-bit values first and a seeded stream
// after them, so a test can dictate a try's uniforms exactly:
// Rand.Float64 is float64(Int63())/2⁶³.
type scriptSource struct {
	script []int64
	rest   rand.Source
}

func newScriptSource(seed int64, script ...int64) *scriptSource {
	return &scriptSource{script: script, rest: rand.NewSource(seed)}
}

func (s *scriptSource) Int63() int64 {
	if len(s.script) > 0 {
		v := s.script[0]
		s.script = s.script[1:]
		return v
	}
	return s.rest.Int63()
}

func (s *scriptSource) Seed(int64) { panic("scriptSource: Seed") }

// lockstep runs discardOracle and discard on twin sources and reports
// whether they accepted. The vector is compared when its content is
// specified: a try was accepted, or keepLast holds the last one.
func lockstep(t testing.TB, seed int64, script []int64, n int, total, lo, hi float64, caps []float64, keepLast bool) bool {
	t.Helper()
	oracleRng := rand.New(newScriptSource(seed, script...))
	screenRng := rand.New(newScriptSource(seed, script...))
	want := make([]float64, n)
	wantOK := discardOracle(oracleRng, want, total, lo, hi, caps, keepLast)
	got, r := drawBufs(nil, n)
	gotOK := discard(screenRng, got, r, total, lo, hi, caps, keepLast)
	args := fmt.Sprintf("seed %d script %v n=%d total=%v lo=%v hi=%v caps=%v keepLast=%v",
		seed, script, n, total, lo, hi, caps, keepLast)
	if gotOK != wantOK {
		t.Fatalf("%s: accepted %v, oracle %v", args, gotOK, wantOK)
	}
	if wantOK || keepLast {
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: u[%d] = %v, oracle %v", args, i, got[i], want[i])
			}
		}
	}
	if screenRng.Int63() != oracleRng.Int63() {
		t.Fatalf("%s: source left at a different draw", args)
	}
	return wantOK
}

// randomCase draws discard arguments around the mean value total/n, loose
// and tight, so the cases spread over first-try, mid-loop and exhausted.
func randomCase(rng *rand.Rand) (n int, total, lo, hi float64, caps []float64, keepLast bool) {
	n = 2 + rng.Intn(63)
	total = math.Exp(rng.Float64()*8 - 5)
	mean := total / float64(n)
	if rng.Intn(4) > 0 {
		lo = mean * rng.Float64() * rng.Float64()
	}
	spread := 1 + 8*rng.Float64()*rng.Float64()
	hi = mean * spread * (1 + rng.Float64())
	if rng.Intn(2) == 0 {
		caps = make([]float64, n)
		for i := range caps {
			caps[i] = lo + mean*spread*2*rng.Float64()
		}
		hi = 0
	}
	return n, total, lo, hi, caps, rng.Intn(2) == 0
}

func TestScreenedDiscardLockstep(t *testing.T) {
	cases := 400
	if testing.Short() {
		cases = 100
	}
	rng := rand.New(rand.NewSource(18))
	accepted, exhausted := 0, 0
	for c := 0; c < cases; c++ {
		n, total, lo, hi, caps, keepLast := randomCase(rng)
		if lockstep(t, int64(c), nil, n, total, lo, hi, caps, keepLast) {
			accepted++
		} else {
			exhausted++
		}
	}
	if accepted < cases/10 || exhausted < cases/10 {
		t.Errorf("cases are one-sided: %d accepted, %d exhausted", accepted, exhausted)
	}
}

// stepUlps moves v by k units in the last place.
func stepUlps(v float64, k int) float64 {
	for ; k > 0; k-- {
		v = math.Nextafter(v, math.Inf(1))
	}
	for ; k < 0; k++ {
		v = math.Nextafter(v, math.Inf(-1))
	}
	return v
}

// TestScreenedDiscardNearBounds scripts the first try's uniforms and puts
// one bound — lo, hi or a cap — within three ulps of the value that try
// produces, on either side and on it, everything else loose. The screen's
// arithmetic is not the exact pass's, so only the margin keeps it from
// deciding these tries; the exact pass must, exactly as the oracle does.
func TestScreenedDiscardNearBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1818))
	accepted, rejected := 0, 0
	for c := 0; c < 1500; c++ {
		n := 2 + rng.Intn(15)
		total := 0.05 + 8*rng.Float64()
		script := make([]int64, n-1)
		for i := range script {
			script[i] = rng.Int63()
		}
		// The scripted try's values: the oracle with nothing to violate.
		u := make([]float64, n)
		if !discardOracle(rand.New(newScriptSource(0, script...)), u, total, math.Inf(-1), math.Inf(1), nil, false) {
			t.Fatal("unbounded try rejected")
		}
		// Which bound binds: lo the smallest value, hi the largest, so
		// that the other values pass, or a cap any one.
		kind := c % 3
		i := rng.Intn(n)
		for j, v := range u {
			if (kind == 0 && v < u[i]) || (kind == 1 && v > u[i]) {
				i = j
			}
		}
		bound := stepUlps(u[i], rng.Intn(7)-3)
		lo, hi := -1.0, 2*total
		var caps []float64
		survives := u[i] <= bound
		switch kind {
		case 0:
			lo, survives = bound, u[i] >= bound
		case 1:
			hi = bound
		default:
			caps = make([]float64, n)
			for j := range caps {
				caps[j] = 2 * total
			}
			caps[i] = bound
		}
		if survives {
			accepted++
		} else {
			rejected++
		}
		lockstep(t, int64(c), script, n, total, lo, hi, caps, c%2 == 0)
	}
	if accepted < 300 || rejected < 300 {
		t.Errorf("cases are one-sided: scripted try accepted %d times, rejected %d", accepted, rejected)
	}
}

// TestScreenedDiscardZeroUniform scripts a uniform of exactly 0 — and the
// 2⁻⁶³ next to it — at every step: root declines 0, the screen's sum turns
// NaN and the exact pass decides.
func TestScreenedDiscardZeroUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tiny := range []int64{0, 1} {
		for n := 2; n <= 9; n++ {
			for at := 0; at < n-1; at++ {
				script := make([]int64, n-1)
				for i := range script {
					script[i] = rng.Int63()
				}
				script[at] = tiny
				lockstep(t, int64(n), script, n, 2.5, 0, 2.5, nil, false)
				lockstep(t, int64(n), script, n, 2.5, 0.001, 0.99, nil, true)
				caps := make([]float64, n)
				for i := range caps {
					caps[i] = 2.5
				}
				lockstep(t, int64(n), script, n, 2.5, 0, 0, caps, false)
			}
		}
	}
}

// TestScreenedDiscardDegenerate covers arguments under which the screen must
// stand aside altogether: non-finite or subnormal totals and bounds.
func TestScreenedDiscardDegenerate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for c, a := range []struct{ total, lo, hi float64 }{
		{nan, 0, 1}, {inf, 0, 1}, {-inf, 0, 1}, {1, nan, 1}, {1, 0, nan},
		{1, -inf, inf}, {0, 0, 0}, {0, -1, 1}, {5e-324, 0, 1}, {1e-310, 0, 1e-310},
		{0x1p-1000, 0, 0x1p-1001}, {-1, -1, 0}, {-3, -2, 1}, {math.MaxFloat64, 0, math.MaxFloat64},
	} {
		for _, n := range []int{2, 5, 17} {
			lockstep(t, int64(c), nil, n, a.total, a.lo, a.hi, nil, true)
			lockstep(t, int64(c), nil, n, a.total, a.lo, a.hi, nil, false)
		}
	}
}

// TestRootError measures root against the math.Pow call it stands in for
// over a grid of every table interval's edges and centre × the binades a
// uniform can fall in (all of them down to 2⁻⁷⁰, every seventh below, to
// the smallest normal) × the exponents 1/k, and holds it to the rootErr the
// screen's margin is derived from.
func TestRootError(t *testing.T) {
	var mants []float64
	for j := 0; j < 1<<rootBits; j++ {
		left := 1 + float64(j)/(1<<rootBits)
		right := 1 + float64(j+1)/(1<<rootBits)
		mants = append(mants, left, stepUlps(left, 1), (left+right)/2, stepUlps(right, -1))
	}
	worst, worstX, worstK := 0.0, 0.0, 0
	check := func(x float64, k int) {
		inv := 1 / float64(k)
		want := math.Pow(x, inv)
		e := math.Abs(root(x, inv)-want) / want
		if !(e <= worst) {
			worst, worstX, worstK = e, x, k
		}
	}
	for exp := -1; exp >= -1022; exp-- {
		near := exp >= -71
		if !near && exp%7 != 0 && exp != -1022 {
			continue
		}
		for _, m := range mants {
			x := math.Ldexp(m, exp)
			for k := 1; k <= 63; k++ {
				if near || k <= 3 || k == 7 || k == 63 {
					check(x, k)
				}
			}
		}
	}
	check(1, 1)
	check(1, 63)
	t.Logf("worst relative error %.3g at x=%g k=%d", worst, worstX, worstK)
	if !(worst < rootErr) {
		t.Errorf("root is %.3g off math.Pow at x=%g k=%d; the margin assumes %g", worst, worstX, worstK, rootErr)
	}

	for _, x := range []float64{0, math.Copysign(0, -1), 5e-324, 0x1p-1023, stepUlps(0x1p-1022, -1),
		stepUlps(1, 1), 2, -0.5, math.Inf(1), math.Inf(-1), math.NaN()} {
		if got := root(x, 0.5); !math.IsNaN(got) {
			t.Errorf("root(%g) = %g outside its domain, want NaN", x, got)
		}
	}
}

func FuzzScreenedDiscard(f *testing.F) {
	f.Add(int64(1), uint8(8), 2.0, 0.001, 0.99, false, true)
	f.Add(int64(4), uint8(5), 4.949, 0.001, 0.99, false, true)
	f.Add(int64(11), uint8(19), 1.2, 0.001, 0.3, true, false)
	f.Add(int64(12), uint8(3), 0.05, 0.001, 0.9, true, false)
	f.Add(int64(3), uint8(2), math.NaN(), 0.0, 1.0, false, false)
	f.Add(int64(5), uint8(40), 1e-310, 0.0, 1.0, true, true)
	f.Fuzz(func(t *testing.T, seed int64, size uint8, total, lo, hi float64, capped, keepLast bool) {
		n := 2 + int(size)%63
		var caps []float64
		if capped {
			// Caps spread over [lo, hi] by a stream of their own.
			rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
			caps = make([]float64, n)
			for i := range caps {
				caps[i] = lo + (hi-lo)*rng.Float64()
			}
		}
		lockstep(t, seed, nil, n, total, lo, hi, caps, keepLast)
	})
}
