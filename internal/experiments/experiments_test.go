package experiments

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mcsched/internal/core"
	"mcsched/internal/mcs"
	"mcsched/internal/taskgen"
)

// fastConfig returns a small sweep that runs in well under a second.
func fastConfig(m int, algos []core.Algorithm) Config {
	return Config{
		Population: Population{M: m, PH: 0.5, SetsPerUB: 8, Seed: 1, UBMin: 0.4, UBMax: 0.8},
		Algorithms: algos,
	}
}

func TestRunValidation(t *testing.T) {
	algos := Figure3Algorithms()
	cases := []Config{
		{},
		{Population: Population{M: 2, PH: 0.5, SetsPerUB: 1}},                           // no algorithms
		{Population: Population{M: 0, PH: 0.5, SetsPerUB: 1}, Algorithms: algos},        // m=0
		{Population: Population{M: 2, PH: -0.1, SetsPerUB: 1}, Algorithms: algos},       // PH<0
		{Population: Population{M: 2, PH: math.NaN(), SetsPerUB: 1}, Algorithms: algos}, // PH NaN
		{Population: Population{M: 2, PH: 0.5, SetsPerUB: 0}, Algorithms: algos},        // sets=0
		// Figure 3's EDF-VD covers implicit deadlines only.
		{Population: Population{M: 2, PH: 0.5, SetsPerUB: 1, Constrained: true}, Algorithms: algos},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: Run accepted invalid config %+v", i, cfg)
		}
	}
}

func TestRunEmptyUBWindow(t *testing.T) {
	cfg := fastConfig(2, Figure3Algorithms())
	cfg.UBMin, cfg.UBMax = 5, 6 // outside the grid
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run accepted a UB window that selects no buckets")
	}
}

func TestRunShape(t *testing.T) {
	cfg := fastConfig(2, Figure3Algorithms())
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != len(cfg.Algorithms) {
		t.Fatalf("got %d series, want %d", len(res.Series), len(cfg.Algorithms))
	}
	n := len(res.Series[0].Points)
	if n == 0 {
		t.Fatal("empty series")
	}
	for _, s := range res.Series {
		if len(s.Points) != n {
			t.Fatalf("series %s has %d points, others %d", s.Name, len(s.Points), n)
		}
		last := -1.0
		for _, p := range s.Points {
			if p.UB <= last {
				t.Fatalf("series %s: UB not strictly increasing at %g", s.Name, p.UB)
			}
			last = p.UB
			if p.Accepted < 0 || p.Accepted > p.Total {
				t.Fatalf("series %s: accepted %d outside [0,%d]", s.Name, p.Accepted, p.Total)
			}
			if p.UB <= cfg.UBMax && p.UB >= cfg.UBMin && p.Total == 0 {
				t.Errorf("series %s: empty bucket at UB=%g", s.Name, p.UB)
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := fastConfig(2, Figure3Algorithms())
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Series {
		for j := range a.Series[i].Points {
			pa, pb := a.Series[i].Points[j], b.Series[i].Points[j]
			if pa != pb {
				t.Fatalf("series %s point %d differs across runs: %+v vs %+v",
					a.Series[i].Name, j, pa, pb)
			}
		}
	}
}

func TestAcceptanceMonotoneTrend(t *testing.T) {
	// Acceptance at the lowest swept UB must not be lower than at the
	// highest: low-utilization sets are easier. (Not necessarily monotone
	// point-to-point because buckets use different grid combos.)
	cfg := Config{
		Population: Population{M: 2, PH: 0.5, SetsPerUB: 12, Seed: 7, UBMin: 0.3, UBMax: 0.99},
		Algorithms: Figure3Algorithms(),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		first, last := s.Points[0], s.Points[len(s.Points)-1]
		if first.Ratio() < last.Ratio() {
			t.Errorf("series %s: AR(%.2f)=%.2f < AR(%.2f)=%.2f",
				s.Name, first.UB, first.Ratio(), last.UB, last.Ratio())
		}
	}
}

func TestUDPBeatsBaselineFig3(t *testing.T) {
	// The paper's headline: UDP strategies dominate CA(nosort)-F-F with
	// EDF-VD in aggregate. Verified on a reduced sweep at m=4.
	cfg := Config{
		Population: Population{M: 4, PH: 0.5, SetsPerUB: 10, Seed: 42, UBMin: 0.5, UBMax: 0.9},
		Algorithms: Figure3Algorithms(),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cu, _ := res.SeriesByName("CU-UDP-EDF-VD")
	base, _ := res.SeriesByName("CA(nosort)-F-F-EDF-VD")
	if cu.Name == "" || base.Name == "" {
		t.Fatalf("missing series in %v", res.Series)
	}
	if cu.WAR() < base.WAR() {
		t.Errorf("CU-UDP WAR %.3f below baseline %.3f", cu.WAR(), base.WAR())
	}
}

func TestWARBounds(t *testing.T) {
	res, err := Run(fastConfig(2, Figure3Algorithms()))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		w := s.WAR()
		if w < 0 || w > 1 {
			t.Errorf("series %s: WAR %g outside [0,1]", s.Name, w)
		}
	}
}

func TestWARFormula(t *testing.T) {
	s := Series{Name: "x", Points: []Point{
		{UB: 0.5, Accepted: 10, Total: 10}, // AR=1
		{UB: 1.0, Accepted: 5, Total: 10},  // AR=0.5
	}}
	want := (1.0*0.5 + 0.5*1.0) / (0.5 + 1.0)
	if got := s.WAR(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("WAR=%g want %g", got, want)
	}
	if (Series{}).WAR() != 0 {
		t.Fatal("empty series WAR should be 0")
	}
}

// TestRunWARKeepsRuns holds each (m, PH) point that RunWAR keeps to a
// direct Run at the point's derived seed, bucket by bucket, and its WARs
// to the bits RunWAR reported before it kept the runs.
func TestRunWARKeepsRuns(t *testing.T) {
	cfg := WARConfig{
		Ms:         []int{2, 4},
		PHs:        []float64{0.3, 0.7},
		SetsPerUB:  4,
		Seed:       3,
		Algorithms: Figure3Algorithms(),
	}
	res, err := RunWAR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// wantWAR[mi][ai][pi], as RunWAR reported it per (algorithm, m) curve.
	wantWAR := [][][]uint64{
		{ // m = 2
			{0x3fe59105211b8308, 0x3fe59105211b8308},
			{0x3fe79b47582192e2, 0x3fe9105211b8307e},
			{0x3fe64b8a7de6d1d5, 0x3fe7c095377d6f72},
		},
		{ // m = 4
			{0x3fe5211b8307ed59, 0x3fe131e4f457aa33},
			{0x3fe5211b8307ed59, 0x3fe8eb04325c53ee},
			{0x3fe2a6efadee47cf, 0x3fe3f6ac882908dc},
		},
	}
	if len(res.Runs) != len(cfg.Ms) {
		t.Fatalf("%d rows of runs, want one per m (%d)", len(res.Runs), len(cfg.Ms))
	}
	genFailures := 0
	for mi, m := range cfg.Ms {
		if len(res.Runs[mi]) != len(cfg.PHs) {
			t.Fatalf("m=%d: %d runs, want one per PH (%d)", m, len(res.Runs[mi]), len(cfg.PHs))
		}
		for pi, ph := range cfg.PHs {
			kept := res.Runs[mi][pi]
			if kept.Config.M != m || kept.Config.PH != ph {
				t.Fatalf("Runs[%d][%d] is the run at m=%d PH=%g, want m=%d PH=%g", mi, pi, kept.Config.M, kept.Config.PH, m, ph)
			}
			for _, p := range kept.Series[0].Points {
				if p.Total == 0 {
					t.Errorf("m=%d PH=%g: no sets judged at UB %.2f", m, ph, p.UB)
				}
			}
			direct, err := Run(Config{
				Population: Population{M: m, PH: ph, SetsPerUB: cfg.SetsPerUB, Seed: deriveSeed(cfg.Seed, mi*1000+pi, 0)},
				Algorithms: cfg.Algorithms,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(kept.Series, direct.Series) || kept.GenFailures != direct.GenFailures {
				t.Errorf("m=%d PH=%g: kept run %+v differs from a direct Run %+v", m, ph, kept.Series, direct.Series)
			}
			genFailures += kept.GenFailures
			for ai, s := range kept.Series {
				if got := math.Float64bits(s.WAR()); got != wantWAR[mi][ai][pi] {
					t.Errorf("m=%d PH=%g %s: WAR bits %#x, want %#x", m, ph, s.Name, got, wantWAR[mi][ai][pi])
				}
			}
		}
	}
	if res.GenFailures != genFailures {
		t.Errorf("GenFailures %d, the runs' sum is %d", res.GenFailures, genFailures)
	}
}

func TestRunWARValidation(t *testing.T) {
	bad := []WARConfig{
		{},
		{Ms: []int{2}, PHs: []float64{0.5}}, // no algos
		{Ms: []int{2}, PHs: []float64{0.5}, Algorithms: Figure3Algorithms()}, // sets=0
		{Ms: nil, PHs: []float64{0.5}, SetsPerUB: 1, Algorithms: Figure3Algorithms()},
		{Ms: []int{2}, PHs: []float64{math.NaN()}, SetsPerUB: 1, Algorithms: Figure3Algorithms()},
	}
	for i, cfg := range bad {
		if _, err := RunWAR(cfg); err == nil {
			t.Errorf("case %d: RunWAR accepted invalid config", i)
		}
	}
}

func TestImprove(t *testing.T) {
	alg := Series{Name: "a", Points: []Point{
		{UB: 0.5, Accepted: 9, Total: 10},
		{UB: 0.7, Accepted: 8, Total: 10},
	}}
	base := Series{Name: "b", Points: []Point{
		{UB: 0.5, Accepted: 9, Total: 10},
		{UB: 0.7, Accepted: 4, Total: 10},
	}}
	im := Improve(alg, base)
	if math.Abs(im.MaxGainPts-40) > 1e-9 || im.AtUB != 0.7 {
		t.Fatalf("got %+v, want 40pts at UB=0.7", im)
	}
	if im.Algorithm != "a" || im.Baseline != "b" {
		t.Fatalf("names not carried: %+v", im)
	}
	if im.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestImprovementsVs(t *testing.T) {
	res, err := Run(fastConfig(2, Figure3Algorithms()))
	if err != nil {
		t.Fatal(err)
	}
	ims, err := ImprovementsVs(res, "CA(nosort)-F-F-EDF-VD")
	if err != nil {
		t.Fatal(err)
	}
	if len(ims) != 2 {
		t.Fatalf("got %d improvements, want 2", len(ims))
	}
	if _, err := ImprovementsVs(res, "no-such-algorithm"); err == nil {
		t.Fatal("unknown baseline accepted")
	}
}

func TestSummaryRenders(t *testing.T) {
	res, err := Run(fastConfig(2, Figure3Algorithms()))
	if err != nil {
		t.Fatal(err)
	}
	s := Summary(res)
	if s == "" {
		t.Fatal("empty summary")
	}
	for _, name := range []string{"CA-UDP-EDF-VD", "CU-UDP-EDF-VD", "WAR"} {
		if !contains(s, name) {
			t.Errorf("summary missing %q:\n%s", name, s)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestDeriveSeedSpread(t *testing.T) {
	seen := make(map[int64]bool)
	for b := 0; b < 10; b++ {
		for s := 0; s < 10; s++ {
			v := deriveSeed(1, b, s)
			if v < 0 {
				t.Fatalf("negative seed %d", v)
			}
			if seen[v] {
				t.Fatalf("seed collision at bucket=%d set=%d", b, s)
			}
			seen[v] = true
		}
	}
}

func TestFigureDispatch(t *testing.T) {
	if _, err := Figure("9", 2, 1, 1); err == nil {
		t.Fatal("unknown figure accepted")
	}
	// All three valid figures run with a minimal size; this also exercises
	// the ECDF/AMC/EY algorithm stacks end-to-end.
	wantSeries := map[string]int{"3": 3, "4": 6, "5": 6}
	for fig, n := range wantSeries {
		res, err := Figure(fig, 2, 1, 1)
		if err != nil {
			t.Fatalf("figure %s: %v", fig, err)
		}
		if len(res.Series) != n {
			t.Fatalf("figure %s: %d series, want %d", fig, len(res.Series), n)
		}
	}
}

func TestSeriesRatioAt(t *testing.T) {
	s := Series{Points: []Point{{UB: 0.5, Accepted: 1, Total: 2}}}
	if r, ok := s.RatioAt(0.5); !ok || r != 0.5 {
		t.Fatalf("RatioAt(0.5)=%g,%v", r, ok)
	}
	if _, ok := s.RatioAt(0.6); ok {
		t.Fatal("RatioAt found a missing UB")
	}
	if (Point{}).Ratio() != 0 {
		t.Fatal("empty point ratio should be 0")
	}
}

// TestSweepRoundAllocs holds one round of Figures 4 and 5's six algorithms
// on one worker's sampler — every algorithm judging the same set on the
// Assigner of its slot — to one allocation per algorithm: the clone its
// strategy sorts the set in. A rejection reports its verdict and builds no
// error. The 32 sets are core's benchSets (m = 8, UHH 0.6, ULH 0.3, ULL
// 0.3, seed 4), and some algorithm rejects some of them. Each set is
// measured on its own, since AllocsPerRun truncates its mean: averaged
// over all 32, a rejection's extra allocation would not show. A slot
// builds each core's analyzer on the first probe of that core, so one
// pass over the sets comes first; from then on the analyzers serve every
// set, whichever test ran before.
func TestSweepRoundAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sets := make([]mcs.TaskSet, 32)
	for i := range sets {
		ts, err := taskgen.Generate(rng, taskgen.DefaultConfig(8, 0.6, 0.3, 0.3))
		if err != nil {
			t.Fatal(err)
		}
		sets[i] = ts
	}
	algos := Figure45Algorithms()
	var tests []core.Test
	for _, a := range algos {
		tests = append(tests, a.Test)
	}
	smp := newSampler(8, tests...)
	accepted := make([]bool, len(algos))
	round := func(ts mcs.TaskSet) {
		for ai, algo := range algos {
			accepted[ai] = smp.asn[ai].Allocate(algo.Strategy, ts)
		}
	}
	for _, ts := range sets {
		round(ts)
	}
	rejecting := 0
	for si, ts := range sets {
		got := testing.AllocsPerRun(10, func() { round(ts) })
		if slices.Contains(accepted, false) {
			rejecting++
		}
		if got > float64(len(algos)) {
			t.Errorf("set %d (accepted %v): %.0f allocs per round of %d algorithms, want at most %d",
				si, accepted, got, len(algos), len(algos))
		}
	}
	if rejecting == 0 {
		t.Fatal("no algorithm rejects any set: the round measures no rejection")
	}
}
