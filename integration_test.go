package mcsched

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestStrategyTestMatrix exercises every strategy with every uniprocessor
// test on generated workloads (implicit for EDF-VD, constrained for the
// rest): each acceptance must produce a partition that re-verifies, and
// each partition must survive a JSON round-trip with its verification
// intact. This is the library's contract surface in one sweep.
func TestStrategyTestMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweep")
	}
	type combo struct {
		test        Test
		constrained bool
	}
	combos := []combo{
		{EDFVD(), false},
		{ECDF(), true},
		{EY(), true},
		{AMC(), true},
	}
	for _, c := range combos {
		accepted := 0
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(1000 + seed))
			cfg := DefaultGenConfig(2, 0.45, 0.25, 0.3)
			cfg.Constrained = c.constrained
			ts, err := Generate(rng, cfg)
			if err != nil {
				continue
			}
			for _, s := range Strategies() {
				algo := Algorithm{Strategy: s, Test: c.test}
				p, err := algo.Partition(ts, 2)
				if err != nil {
					continue
				}
				accepted++
				if err := algo.Verify(ts, p); err != nil {
					t.Fatalf("%s: %v", algo.Name(), err)
				}
				var buf bytes.Buffer
				if err := WritePartition(&buf, p); err != nil {
					t.Fatalf("%s: encode: %v", algo.Name(), err)
				}
				p2, err := ReadPartition(&buf)
				if err != nil {
					t.Fatalf("%s: decode: %v", algo.Name(), err)
				}
				if err := algo.Verify(ts, p2); err != nil {
					t.Fatalf("%s: decoded partition broken: %v", algo.Name(), err)
				}
			}
		}
		if accepted == 0 {
			t.Errorf("test %s: no acceptance in the matrix sweep", c.test.Name())
		}
	}
}

// TestCUUDPDominatesBaselineAggregate re-checks the paper's headline on a
// medium sweep: CU-UDP accepts at least as many task sets as the CA(nosort)
// baseline at every swept UB, and strictly more somewhere.
func TestCUUDPDominatesBaselineAggregate(t *testing.T) {
	if testing.Short() {
		t.Skip("medium sweep")
	}
	res, err := RunExperiment(ExperimentConfig{
		Population: ExperimentPopulation{M: 4, PH: 0.5, SetsPerUB: 40, Seed: 31, UBMin: 0.6, UBMax: 0.9},
		Algorithms: Figure3Algorithms(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cu, _ := res.SeriesByName("CU-UDP-EDF-VD")
	base, _ := res.SeriesByName("CA(nosort)-F-F-EDF-VD")
	strict := false
	for i := range cu.Points {
		c, b := cu.Points[i].Accepted, base.Points[i].Accepted
		// Allow small per-bucket noise against the trend, but require the
		// aggregate relation the paper reports.
		if c > b {
			strict = true
		}
	}
	if cu.WAR() < base.WAR() {
		t.Fatalf("CU-UDP WAR %.3f below baseline %.3f", cu.WAR(), base.WAR())
	}
	if !strict {
		t.Error("CU-UDP never strictly beat the baseline in the sweep")
	}
}

// TestConstrainedECDFBeatsEYBaseline mirrors Fig. 5's claim on a reduced
// sweep: CU-UDP-ECDF ≥ the EY baselines in aggregate for constrained
// deadlines.
func TestConstrainedECDFBeatsEYBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("medium sweep")
	}
	res, err := RunExperiment(ExperimentConfig{
		Population: ExperimentPopulation{M: 2, PH: 0.5, SetsPerUB: 20, Seed: 77, Constrained: true, UBMin: 0.5, UBMax: 0.9},
		Algorithms: Figure45Algorithms(),
	})
	if err != nil {
		t.Fatal(err)
	}
	udp, _ := res.SeriesByName("CU-UDP-ECDF")
	eca, _ := res.SeriesByName("ECA-Wu-F-EY")
	caff, _ := res.SeriesByName("CA-F-F-EY")
	best := eca.WAR()
	if w := caff.WAR(); w > best {
		best = w
	}
	if udp.WAR() < best {
		t.Fatalf("CU-UDP-ECDF WAR %.3f below best EY baseline %.3f", udp.WAR(), best)
	}
}

// TestGeneratorTargetsRealized checks that the generator hits the requested
// normalized utilizations to within the documented ceiling inflation across
// the whole grid used by the figures.
func TestGeneratorTargetsRealized(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, m := range []int{2, 8} {
		for _, uhh := range []float64{0.2, 0.6, 0.99} {
			cfg := DefaultGenConfig(m, uhh, uhh/2, 0.3)
			ts, err := Generate(rng, cfg)
			if err != nil {
				t.Fatalf("m=%d uhh=%g: %v", m, uhh, err)
			}
			fm := float64(m)
			slack := float64(len(ts)) / (fm * 10) // n·(1/Tmin)/m
			if got := ts.UHH() / fm; got < uhh-1e-9 || got > uhh+slack {
				t.Errorf("m=%d: UHH %.4f outside [%g, %g]", m, got, uhh, uhh+slack)
			}
		}
	}
}

// TestFacadeChartPipelines renders every figure-shaped chart through all
// three backends from one small sweep.
func TestFacadeChartPipelines(t *testing.T) {
	res, err := RunExperiment(ExperimentConfig{
		Population: ExperimentPopulation{M: 2, PH: 0.5, SetsPerUB: 3, Seed: 5, UBMin: 0.5, UBMax: 0.8},
		Algorithms: Figure3Algorithms(),
	})
	if err != nil {
		t.Fatal(err)
	}
	chart := ChartFromExperiment(res, "pipeline")
	if _, err := RenderASCII(chart, 72, 16); err != nil {
		t.Fatal(err)
	}
	csv, err := RenderCSV(chart)
	if err != nil {
		t.Fatal(err)
	}
	if len(csv) == 0 {
		t.Fatal("empty CSV")
	}
	svg, err := RenderSVG(chart, 640, 420)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains([]byte(svg), []byte("</svg>")) {
		t.Fatal("truncated SVG")
	}
}
