package experiments

import (
	"math"
	"testing"

	"mcsched/internal/core"
)

// fastConfig returns a small sweep that runs in well under a second.
func fastConfig(m int, algos []core.Algorithm) Config {
	return Config{
		M:          m,
		PH:         0.5,
		SetsPerUB:  8,
		Seed:       1,
		UBMin:      0.4,
		UBMax:      0.8,
		Algorithms: algos,
	}
}

func TestRunValidation(t *testing.T) {
	cases := []Config{
		{},
		{M: 2, PH: 0.5, SetsPerUB: 1}, // no algorithms
		{M: 0, PH: 0.5, SetsPerUB: 1, Algorithms: Figure3Algorithms()},  // m=0
		{M: 2, PH: -0.1, SetsPerUB: 1, Algorithms: Figure3Algorithms()}, // PH<0
		{M: 2, PH: 0.5, SetsPerUB: 0, Algorithms: Figure3Algorithms()},  // sets=0
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
	cfg.Workers = 3 // different parallelism must not change results
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
		M:          2,
		PH:         0.5,
		SetsPerUB:  12,
		Seed:       7,
		UBMin:      0.3,
		UBMax:      0.99,
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
		M:          4,
		PH:         0.5,
		SetsPerUB:  10,
		Seed:       42,
		UBMin:      0.5,
		UBMax:      0.9,
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

func TestRunWARShape(t *testing.T) {
	cfg := WARConfig{
		Ms:         []int{2},
		PHs:        []float64{0.3, 0.7},
		SetsPerUB:  4,
		Seed:       3,
		Algorithms: Figure3Algorithms(),
	}
	res, err := RunWAR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(cfg.Ms) * len(cfg.Algorithms); len(res.Series) != want {
		t.Fatalf("got %d series, want %d", len(res.Series), want)
	}
	for _, s := range res.Series {
		if len(s.Points) != len(cfg.PHs) {
			t.Fatalf("series %s: %d points, want %d", s.Label(), len(s.Points), len(cfg.PHs))
		}
		for i, p := range s.Points {
			if p.PH != cfg.PHs[i] {
				t.Fatalf("series %s: PH[%d]=%g want %g", s.Label(), i, p.PH, cfg.PHs[i])
			}
			if p.WAR < 0 || p.WAR > 1 {
				t.Fatalf("series %s: WAR %g outside [0,1]", s.Label(), p.WAR)
			}
			if p.Sets <= 0 {
				t.Fatalf("series %s: no sets at PH=%g", s.Label(), p.PH)
			}
		}
	}
}

func TestRunWARValidation(t *testing.T) {
	bad := []WARConfig{
		{},
		{Ms: []int{2}, PHs: []float64{0.5}}, // no algos
		{Ms: []int{2}, PHs: []float64{0.5}, Algorithms: Figure3Algorithms()}, // sets=0
		{Ms: nil, PHs: []float64{0.5}, SetsPerUB: 1, Algorithms: Figure3Algorithms()},
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
