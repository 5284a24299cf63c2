package taskgen

import (
	"math"
	"math/rand"
	"testing"

	"mcsched/internal/mcs"
)

func TestUUniFastSum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 20; n++ {
		u := UUniFast(rng, n, 2.5)
		var sum float64
		for _, v := range u {
			if v < 0 {
				t.Fatalf("n=%d: negative value %g", n, v)
			}
			sum += v
		}
		if math.Abs(sum-2.5) > 1e-9 {
			t.Fatalf("n=%d: sum = %g, want 2.5", n, sum)
		}
	}
}

// No values asked for: an empty vector, and the source where it was.
func TestUUniFastEmpty(t *testing.T) {
	for _, n := range []int{0, -1} {
		src := newCountingSource(1)
		if u := UUniFast(rand.New(src), n, 2.5); u == nil || len(u) != 0 {
			t.Errorf("UUniFast(n=%d) = %v, want an empty vector", n, u)
		}
		if src.n != 0 {
			t.Errorf("UUniFast(n=%d) consumed %d draws", n, src.n)
		}
	}
}

func TestBoundedSum(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		u, err := BoundedSum(rng, 8, 3.0, 0.001, 0.99)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, v := range u {
			if v < 0.001-1e-12 || v > 0.99+1e-12 {
				t.Fatalf("value %g outside [0.001, 0.99]", v)
			}
			sum += v
		}
		if math.Abs(sum-3.0) > 1e-6 {
			t.Fatalf("sum = %g, want 3.0", sum)
		}
	}
}

func TestBoundedSumInfeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if _, err := BoundedSum(rng, 2, 3.0, 0.0, 0.99); err == nil {
		t.Error("sum 3.0 for 2 values ≤ 0.99 accepted")
	}
	if _, err := BoundedSum(rng, 4, 0.001, 0.01, 0.99); err == nil {
		t.Error("sum below n·lo accepted")
	}
	if _, err := BoundedSum(rng, 0, 1, 0, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := BoundedSum(rng, 3, 1, 0.9, 0.1); err == nil {
		t.Error("lo>hi accepted")
	}
}

func TestBoundedSumTightCorner(t *testing.T) {
	// total ≈ n·hi forces the rescale fallback; the result must still be
	// feasible and exact.
	rng := rand.New(rand.NewSource(4))
	u, err := BoundedSum(rng, 5, 4.949, 0.001, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range u {
		if v > 0.99+1e-9 || v < 0.001-1e-9 {
			t.Fatalf("value %g out of range", v)
		}
		sum += v
	}
	if math.Abs(sum-4.949) > 1e-6 {
		t.Fatalf("sum = %g, want 4.949", sum)
	}
}

func TestRandFixedSum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		n := 1 + rng.Intn(12)
		lo, hi := 0.001, 0.99
		s := float64(n)*lo + rng.Float64()*(float64(n)*hi-float64(n)*lo)
		u, err := RandFixedSum(rng, n, s, lo, hi)
		if err != nil {
			t.Fatalf("n=%d s=%g: %v", n, s, err)
		}
		var sum float64
		for _, v := range u {
			if v < lo-1e-9 || v > hi+1e-9 {
				t.Fatalf("n=%d s=%g: value %g outside [%g,%g]", n, s, v, lo, hi)
			}
			sum += v
		}
		if math.Abs(sum-s) > 1e-6 {
			t.Fatalf("n=%d: sum = %g, want %g", n, sum, s)
		}
	}
}

func TestRandFixedSumEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if u, err := RandFixedSum(rng, 1, 0.4, 0, 1); err != nil || u[0] != 0.4 {
		t.Errorf("n=1: %v %v", u, err)
	}
	if u, err := RandFixedSum(rng, 3, 1.5, 0.5, 0.5); err != nil || u[0] != 0.5 {
		t.Errorf("degenerate range: %v %v", u, err)
	}
	if _, err := RandFixedSum(rng, 3, 99, 0, 1); err == nil {
		t.Error("infeasible sum accepted")
	}
	if _, err := RandFixedSum(rng, 0, 1, 0, 1); err == nil {
		t.Error("n=0 accepted")
	}
}

// RandFixedSum should produce roughly uniform marginals: for n=2, s=1 in
// [0,1], each coordinate is uniform on [0,1] with mean 0.5.
func TestRandFixedSumMarginalMean(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const trials = 20000
	var sum, sumSq float64
	for i := 0; i < trials; i++ {
		u, err := RandFixedSum(rng, 2, 1.0, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		sum += u[0]
		sumSq += u[0] * u[0]
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("marginal mean = %g, want ≈0.5", mean)
	}
	// Var of U(0,1) is 1/12 ≈ 0.0833.
	variance := sumSq/trials - mean*mean
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("marginal variance = %g, want ≈%g", variance, 1.0/12)
	}
}

func TestBoundedSumCapped(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	caps := []float64{0.3, 0.5, 0.2, 0.9}
	for i := 0; i < 200; i++ {
		u, err := BoundedSumCapped(rng, 4, 1.2, 0.001, caps)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for j, v := range u {
			if v < 0.001-1e-9 || v > caps[j]+1e-9 {
				t.Fatalf("value %g violates cap %g", v, caps[j])
			}
			sum += v
		}
		if math.Abs(sum-1.2) > 1e-6 {
			t.Fatalf("sum = %g, want 1.2", sum)
		}
	}
	// Sum equal to Σcaps must return the caps themselves (within fp noise).
	u, err := BoundedSumCapped(rng, 4, 1.9, 0.001, caps)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range u {
		if math.Abs(v-caps[j]) > 1e-6 {
			t.Errorf("tight sum: u[%d]=%g, want cap %g", j, v, caps[j])
		}
	}
	if _, err := BoundedSumCapped(rng, 4, 2.5, 0.001, caps); err == nil {
		t.Error("sum above Σcaps accepted")
	}
	if _, err := BoundedSumCapped(rng, 3, 1, 0.001, caps); err == nil {
		t.Error("cap length mismatch accepted")
	}
}

func TestLogUniformTicks(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	counts := map[bool]int{}
	const trials = 20000
	for i := 0; i < trials; i++ {
		v := LogUniformTicks(rng, 10, 500)
		if v < 10 || v > 500 {
			t.Fatalf("period %d outside [10,500]", v)
		}
		// Log-uniform: P(T < sqrt(10·500)≈70.7) = 0.5.
		counts[v < 71]++
	}
	frac := float64(counts[true]) / trials
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("P(T<71) = %g, want ≈0.5 for log-uniform", frac)
	}
	if LogUniformTicks(rng, 50, 50) != 50 {
		t.Error("degenerate range should return lo")
	}
}

func TestGenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cfg := DefaultConfig(4, 0.5, 0.3, 0.4)
	for i := 0; i < 100; i++ {
		ts, err := Generate(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ts.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(ts) < cfg.NMin || len(ts) > cfg.NMax {
			t.Fatalf("n=%d outside [%d,%d]", len(ts), cfg.NMin, cfg.NMax)
		}
		// Realized utilizations are the drawn targets inflated by the
		// ceiling C = ⌈u·T⌉: at least the target, at most 1/T_i above per
		// task.
		m := float64(cfg.M)
		slack := float64(len(ts)) / (m * float64(cfg.TMin))
		checkBand := func(name string, got, target float64) {
			t.Helper()
			if got < target-1e-9 || got > target+slack+1e-9 {
				t.Fatalf("%s = %g outside [%g, %g]", name, got, target, target+slack)
			}
		}
		checkBand("UHH", ts.UHH()/m, 0.5)
		checkBand("ULH", ts.ULH()/m, 0.3)
		checkBand("ULL", ts.ULL()/m, 0.4)
		for _, task := range ts {
			if task.Period < cfg.TMin || task.Period > cfg.TMax {
				t.Fatalf("period %d outside bounds", task.Period)
			}
			if !task.Implicit() {
				t.Fatalf("implicit config produced constrained task %v", task)
			}
		}
	}
}

func TestGenerateConstrained(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := DefaultConfig(2, 0.6, 0.3, 0.3)
	cfg.Constrained = true
	sawConstrained := false
	for i := 0; i < 50; i++ {
		ts, err := Generate(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range ts {
			if task.Deadline < task.CHi() || task.Deadline > task.Period {
				t.Fatalf("deadline %d outside [C^H=%d, T=%d]", task.Deadline, task.CHi(), task.Period)
			}
			if !task.Implicit() {
				sawConstrained = true
			}
		}
	}
	if !sawConstrained {
		t.Error("constrained generator never produced D < T")
	}
}

func TestGeneratePH(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, ph := range []float64{0.1, 0.5, 0.9} {
		cfg := DefaultConfig(4, 0.4, 0.2, 0.3)
		cfg.PH = ph
		var hc, total int
		for i := 0; i < 200; i++ {
			ts, err := Generate(rng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			hc += len(ts.HC())
			total += len(ts)
		}
		got := float64(hc) / float64(total)
		if math.Abs(got-ph) > 0.12 {
			t.Errorf("PH=%g: realized HC fraction %g", ph, got)
		}
	}
}

func TestGenerateInfeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cfg := DefaultConfig(2, 0.5, 0.3, 0.3)
	cfg.ULH = 0.8 // ULH > UHH is structurally impossible
	if _, err := Generate(rng, cfg); err == nil {
		t.Error("ULH > UHH accepted")
	}
	cfg = DefaultConfig(8, 0.99, 0.05, 0.9)
	cfg.NMax = 8 // 8 tasks cannot carry 0.99·8 + 0.9·8 utilization below 0.99 each
	cfg.NMin = 8
	if _, err := Generate(rng, cfg); err == nil {
		t.Error("overloaded split accepted")
	}
}

func TestGenerateUtilizationConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	cfg := DefaultConfig(2, 0.5, 0.25, 0.3)
	ts, err := Generate(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range ts {
		// ULo/UHi must be exactly the realized integer ratios, so analyses
		// and the integer-time simulator describe the same workload.
		lo := float64(task.CLo()) / float64(task.Period)
		hi := float64(task.CHi()) / float64(task.Period)
		if task.ULo != lo {
			t.Errorf("task %d: ULo %g != C^L/T %g", task.ID, task.ULo, lo)
		}
		if task.UHi != hi {
			t.Errorf("task %d: UHi %g != C^H/T %g", task.ID, task.UHi, hi)
		}
	}
}

func TestDefaultGrid(t *testing.T) {
	grid := DefaultGrid()
	if len(grid) == 0 {
		t.Fatal("empty grid")
	}
	for _, c := range grid {
		if c.ULH > c.UHH+1e-9 {
			t.Errorf("combo %+v has ULH > UHH", c)
		}
		if c.ULH+c.ULL > 0.99+1e-9 {
			t.Errorf("combo %+v has ULH+ULL > 0.99", c)
		}
		if c.UB() < 0.1-1e-9 {
			t.Errorf("combo %+v has tiny UB", c)
		}
	}
	// Spot-check: UHH=0.99 must appear.
	found := false
	for _, c := range grid {
		if c.UHH == 0.99 {
			found = true
			break
		}
	}
	if !found {
		t.Error("grid missing UHH=0.99 row")
	}
}

func TestBucketByUB(t *testing.T) {
	buckets := BucketByUB(DefaultGrid())
	if len(buckets) < 5 {
		t.Fatalf("only %d buckets", len(buckets))
	}
	last := -1.0
	total := 0
	for _, b := range buckets {
		if b.UB <= last {
			t.Error("buckets not sorted by UB")
		}
		last = b.UB
		total += len(b.Combos)
		for _, c := range b.Combos {
			if round2(c.UB()) != b.UB {
				t.Errorf("combo %+v in bucket %g", c, b.UB)
			}
		}
	}
	if total != len(DefaultGrid()) {
		t.Errorf("buckets hold %d combos, grid has %d", total, len(DefaultGrid()))
	}
	f := FilterBuckets(buckets, 0.4, 0.8)
	for _, b := range f {
		if b.UB < 0.4 || b.UB > 0.8 {
			t.Errorf("filter kept UB=%g", b.UB)
		}
	}
	if len(f) == 0 || len(f) >= len(buckets) {
		t.Errorf("filter kept %d of %d", len(f), len(buckets))
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},                                    // M = 0
		{M: 2, PH: 1.5, UMin: 0.1, UMax: 0.9}, // PH out of range
		{M: 2, PH: 0.5, UHH: 0.2, ULH: 0.5, UMin: 0.1, UMax: 0.9, NMin: 1, NMax: 2, TMin: 1, TMax: 2},                         // ULH>UHH
		{M: 2, PH: math.NaN(), UHH: 0.5, ULH: 0.3, ULL: 0.2, UMin: 0.001, UMax: 0.99, NMin: 3, NMax: 10, TMin: 10, TMax: 500}, // PH NaN, all else valid
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := DefaultConfig(4, 0.5, 0.3, 0.2).Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestConfigUB(t *testing.T) {
	c := DefaultConfig(2, 0.5, 0.3, 0.4)
	if got := c.UB(); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("UB = %g, want 0.7 (LO side dominates)", got)
	}
	c = DefaultConfig(2, 0.9, 0.3, 0.4)
	if got := c.UB(); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("UB = %g, want 0.9 (HI side dominates)", got)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	cfg := DefaultConfig(4, 0.5, 0.3, 0.4)
	a, err := Generate(rand.New(rand.NewSource(42)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(rand.New(rand.NewSource(42)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("different sizes %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("task %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestGeneratorReuseMatchesFresh holds a long-lived Generator — dirty
// vectors, dirty RandFixedSum tables, a recycled output buffer — to the
// stream of fresh ones, across task counts that grow and shrink, both
// methods and both deadline models.
func TestGeneratorReuseMatchesFresh(t *testing.T) {
	var g Generator
	grid := DefaultGrid()
	for i := 0; i < 600; i++ {
		combo := grid[(i*37)%len(grid)]
		cfg := DefaultConfig([]int{8, 2, 4}[i%3], combo.UHH, combo.ULH, combo.ULL)
		cfg.Method = Method(i % 2)
		cfg.Constrained = i%4 >= 2
		want, wantErr := Generate(rand.New(rand.NewSource(int64(i))), cfg)
		got, gotErr := g.Generate(rand.New(rand.NewSource(int64(i))), cfg)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("draw %d: fresh err %v, reused err %v", i, wantErr, gotErr)
		}
		if len(got) != len(want) {
			t.Fatalf("draw %d: %d tasks reused, %d fresh", i, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("draw %d task %d: reused %v, fresh %v", i, k, got[k], want[k])
			}
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultConfig(8, 0.6, 0.3, 0.3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(rng, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = mcs.TaskSet{} // keep the import obviously used
