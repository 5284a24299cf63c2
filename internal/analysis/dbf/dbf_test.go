package dbf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mcsched/internal/mcs"
)

func TestStepValue(t *testing.T) {
	s := Step{C: 3, D: 10, T: 7}
	cases := []struct {
		l    mcs.Ticks
		want mcs.Ticks
	}{
		{0, 0}, {9, 0}, {10, 3}, {16, 3}, {17, 6}, {24, 9}, {100, 3 * 13},
	}
	for _, c := range cases {
		if got := s.Value(c.l); got != c.want {
			t.Errorf("Value(%d) = %d, want %d", c.l, got, c.want)
		}
	}
}

func TestStepPrevKink(t *testing.T) {
	s := Step{C: 3, D: 10, T: 7}
	cases := []struct {
		l    mcs.Ticks
		want mcs.Ticks
	}{
		{10, -1}, {11, 10}, {17, 10}, {18, 17}, {24, 17}, {25, 24},
	}
	for _, c := range cases {
		if got := s.PrevKink(c.l); got != c.want {
			t.Errorf("PrevKink(%d) = %d, want %d", c.l, got, c.want)
		}
	}
	if got := (StepSum{s}).PrevKink(10); got != -1 {
		t.Errorf("sum's PrevKink(10) = %d, want -1", got)
	}
}

func TestSawtoothValue(t *testing.T) {
	// CL=2, CH=5, D=10, VD=6, T=10 → offset 4.
	s := Sawtooth{CL: 2, CH: 5, D: 10, VD: 6, T: 10}
	cases := []struct {
		l    mcs.Ticks
		want mcs.Ticks
	}{
		{0, 0}, {3, 0},
		{4, 3},  // q=0: CH − CL = 3
		{5, 4},  // ramp
		{6, 5},  // ramp end (r = CL)
		{13, 5}, // flat
		{14, 8}, // next jump: 2·CH − CL
		{16, 10},
		{23, 10},
		{24, 13},
	}
	for _, c := range cases {
		if got := s.Value(c.l); got != c.want {
			t.Errorf("Value(%d) = %d, want %d", c.l, got, c.want)
		}
	}
}

func TestSawtoothPrevKink(t *testing.T) {
	s := Sawtooth{CL: 2, CH: 5, D: 10, VD: 6, T: 10}
	// Kinks: 4 (jump), 6 (ramp end), 14, 16, 24, 26, …
	cases := []struct {
		l    mcs.Ticks
		want mcs.Ticks
	}{
		{4, -1}, {5, 4}, {6, 4}, {7, 6}, {14, 6}, {15, 14}, {16, 14}, {17, 16}, {24, 16}, {25, 24},
	}
	for _, c := range cases {
		if got := s.PrevKink(c.l); got != c.want {
			t.Errorf("PrevKink(%d) = %d, want %d", c.l, got, c.want)
		}
	}
	if got := (SawSum{s}).PrevKink(4); got != -1 {
		t.Errorf("sum's PrevKink(4) = %d, want -1", got)
	}
}

// Property: PrevKink never misses a behaviour change — between a point l
// and its PrevKink the curve must be affine (constant second differences on
// interior integer points), which is exactly what QPA's soundness argument
// needs. PrevKink must also return a strictly smaller point, and iterating
// it must strictly descend.
func TestPrevKinkAffineBetweenKinks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		c := randomCurve(rng)
		const L = 200
		for l := mcs.Ticks(1); l <= L; l++ {
			k := c.PrevKink(l)
			if k >= l {
				t.Fatalf("curve %+v: PrevKink(%d) = %d not strictly below", c, l, k)
			}
			// Interior triples (p−1, p, p+1) with k < p−1 and p+1 < l must
			// have matching first differences.
			for p := k + 2; p+1 < l; p++ {
				if p-1 <= k {
					continue
				}
				d1 := c.Value(p) - c.Value(p-1)
				d2 := c.Value(p+1) - c.Value(p)
				if d1 != d2 {
					t.Fatalf("curve %+v: not affine on (%d,%d): kink at %d missed (d1=%d d2=%d)",
						c, k, l, p, d1, d2)
				}
			}
		}
		// Iterating PrevKink strictly descends to -1.
		seen := 0
		for p := c.PrevKink(L); p >= 0; p = c.PrevKink(p) {
			seen++
			if seen > 1000 {
				t.Fatalf("curve %+v: PrevKink chain does not terminate", c)
			}
		}
	}
}

func randomCurve(rng *rand.Rand) Curve {
	T := mcs.Ticks(2 + rng.Intn(30))
	if rng.Intn(2) == 0 {
		D := mcs.Ticks(1 + rng.Intn(int(T)))
		C := mcs.Ticks(1 + rng.Intn(int(D)))
		return Step{C: C, D: D, T: T}
	}
	D := mcs.Ticks(1 + rng.Intn(int(T)))
	CH := mcs.Ticks(1 + rng.Intn(int(D)))
	CL := mcs.Ticks(1 + rng.Intn(int(CH)))
	VD := CL + mcs.Ticks(rng.Intn(int(D-CL)+1))
	return Sawtooth{CL: CL, CH: CH, D: D, VD: VD, T: T}
}

// Property: both curve families are nondecreasing.
func TestCurvesMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		c := randomCurve(rng)
		prev := mcs.Ticks(0)
		for l := mcs.Ticks(0); l < 300; l++ {
			v := c.Value(l)
			if v < prev {
				t.Fatalf("curve %+v decreases at %d: %d < %d", c, l, v, prev)
			}
			prev = v
		}
	}
}

// Sum aggregates curves of any type: the generic form of StepSum and
// SawSum, so a test can walk mixed curves.
type Sum []Curve

// Value returns the total demand at l.
func (s Sum) Value(l mcs.Ticks) mcs.Ticks {
	var v mcs.Ticks
	for _, c := range s {
		v += c.Value(l)
	}
	return v
}

// PrevKink returns the largest kink of any member strictly below l.
func (s Sum) PrevKink(l mcs.Ticks) mcs.Ticks {
	best := mcs.Ticks(-1)
	for _, c := range s {
		if k := c.PrevKink(l); k > best {
			best = k
		}
	}
	return best
}

// HorizonLO is the QPA horizon of a whole set of step curves: beyond it
// demand(ℓ) ≤ ℓ is implied; ok=false means the demand is infeasible at
// any horizon.
func HorizonLO(steps []Step) (L mcs.Ticks, ok bool) {
	var acc LOAccum
	for _, s := range steps {
		acc.Add(s)
	}
	return acc.Horizon()
}

// HorizonHI is the QPA horizon of a whole set of sawtooth curves:
// dbf_HI(ℓ) ≤ u^H·ℓ + C^H·(1 − offset/T) per task gives the utilization
// bound, and dbf_HI(ℓ+T) = dbf_HI(ℓ) + C^H for ℓ ≥ offset the hyperperiod
// bound for exactly-full systems.
func HorizonHI(saws []Sawtooth) (L mcs.Ticks, ok bool) {
	var acc HIAccum
	for _, s := range saws {
		acc.Add(s)
	}
	if acc.N == 0 {
		return 0, true
	}
	return horizon(acc.U, acc.Off, acc.MaxOff, acc.Hyper, acc.HyperOK)
}

// Exhaustive checks ∀ℓ ∈ (0, L]: demand(ℓ) ≤ ℓ by brute force over every
// integer point: the oracle the QPA walks are verified against. It returns
// the first violation, or (-1, true).
func Exhaustive(c Curve, L mcs.Ticks) (witness mcs.Ticks, ok bool) {
	for t := mcs.Ticks(1); t <= L; t++ {
		if c.Value(t) > t {
			return t, false
		}
	}
	return -1, true
}

// Property: QPA agrees with the exhaustive oracle on random curve sums.
func TestQPAMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(5)
		var sum Sum
		for i := 0; i < n; i++ {
			sum = append(sum, randomCurve(rng))
		}
		L := mcs.Ticks(1 + rng.Intn(400))
		_, wantOK := Exhaustive(sum, L)
		gotOK := QPA(sum, L)
		if gotOK != wantOK {
			t.Fatalf("QPA=%v exhaustive=%v for %d curves, L=%d: %+v", gotOK, wantOK, n, L, sum)
		}
		if w, ok := QPAWitness(sum, L); !ok {
			if sum.Value(w) <= w {
				t.Fatalf("witness %d is not a violation", w)
			}
		}
	}
}

func TestQPAEmptyAndTrivial(t *testing.T) {
	if !QPA(Sum{}, 1000) {
		t.Error("empty demand rejected")
	}
	if !QPA(Step{C: 1, D: 1, T: 10}, 0) {
		t.Error("L=0 rejected")
	}
	// Demand exactly equal to supply at every deadline: schedulable.
	if !QPA(Step{C: 10, D: 10, T: 10}, 1000) {
		t.Error("tight utilization-1 step rejected (demand == supply at kinks)")
	}
	// And one unit over.
	if QPA(Step{C: 11, D: 10, T: 10}, 1000) {
		t.Error("overloaded step accepted")
	}
}

func TestHorizonLO(t *testing.T) {
	steps := []Step{{C: 1, D: 5, T: 10}, {C: 2, D: 8, T: 10}}
	L, ok := HorizonLO(steps)
	if !ok || L <= 0 {
		t.Fatalf("HorizonLO = %d, %v", L, ok)
	}
	// Soundness: beyond L the demand never exceeds supply (spot check).
	sum := Sum{steps[0], steps[1]}
	for l := L; l < L+500; l++ {
		if sum.Value(l) > l {
			t.Fatalf("demand exceeds supply at %d beyond horizon %d", l, L)
		}
	}
	if _, ok := HorizonLO([]Step{{C: 10, D: 10, T: 10}, {C: 1, D: 2, T: 10}}); ok {
		t.Error("over-utilized step set got a horizon")
	}
	// At utilization 1 only the periodic bound applies, and only up to a
	// hyperperiod of 2^22 ticks.
	for _, p := range []mcs.Ticks{1 << 22, 1<<22 + 1} {
		if _, ok := HorizonLO([]Step{{C: p, D: p, T: p}}); ok != (p == 1<<22) {
			t.Errorf("utilization-1 step of period %d: horizon found %v", p, ok)
		}
	}
}

func TestHorizonHI(t *testing.T) {
	saws := []Sawtooth{
		{CL: 2, CH: 5, D: 10, VD: 6, T: 20},
		{CL: 1, CH: 3, D: 15, VD: 4, T: 30},
	}
	L, ok := HorizonHI(saws)
	if !ok || L <= 0 {
		t.Fatalf("HorizonHI = %d, %v", L, ok)
	}
	sum := Sum{saws[0], saws[1]}
	for l := L; l < L+500; l++ {
		if sum.Value(l) > l {
			t.Fatalf("demand exceeds supply at %d beyond horizon %d", l, L)
		}
	}
	// Utilization exactly 1: the hyperperiod bound applies and QPA must
	// reject (demand 5 in an interval of length 4).
	tight := Sawtooth{CL: 5, CH: 10, D: 10, VD: 6, T: 10}
	if L, ok := HorizonHI([]Sawtooth{tight}); !ok {
		t.Error("utilization-1 sawtooth got no periodic horizon")
	} else if QPA(Sum{tight}, L) {
		t.Error("infeasible utilization-1 sawtooth accepted")
	}
	// Utilization above 1: no horizon exists.
	if _, ok := HorizonHI([]Sawtooth{tight, {CL: 1, CH: 2, D: 8, VD: 4, T: 8}}); ok {
		t.Error("over-utilized sawtooth set got a horizon")
	}
	if L, ok := HorizonHI(nil); !ok || L != 0 {
		t.Errorf("empty sawtooth set: %d, %v", L, ok)
	}
}

// Property: the sawtooth never exceeds its linear upper bound
// u^H·ℓ + C^H·(1 − offset/T).
func TestSawtoothLinearBound(t *testing.T) {
	f := func(clRaw, chRaw, dRaw, tRaw uint8) bool {
		T := mcs.Ticks(tRaw%50) + 2
		D := mcs.Ticks(dRaw)%T + 1
		CH := mcs.Ticks(chRaw)%D + 1
		CL := mcs.Ticks(clRaw)%CH + 1
		VD := CL + mcs.Ticks(dRaw)%(D-CL+1)
		s := Sawtooth{CL: CL, CH: CH, D: D, VD: VD, T: T}
		uh := float64(CH) / float64(T)
		bound := func(l mcs.Ticks) float64 {
			return uh*float64(l) + float64(CH)*(1-float64(s.offset())/float64(T))
		}
		for l := mcs.Ticks(0); l < 4*T; l++ {
			if float64(s.Value(l)) > bound(l)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkQPA(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	var sum Sum
	for i := 0; i < 10; i++ {
		sum = append(sum, randomCurve(rng))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		QPA(sum, 1<<20)
	}
}
