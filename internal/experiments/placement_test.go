package experiments

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"mcsched/internal/core"
)

// tinyPlacementConfig keeps the sweep small enough for -race CI while still
// crossing several UB buckets.
func tinyPlacementConfig() PlacementConfig {
	return PlacementConfig{Population: Population{M: 2, PH: 0.5, SetsPerUB: 2, Seed: 7, UBMin: 0.4, UBMax: 0.7}}
}

func TestPlacementValidate(t *testing.T) {
	bad := []PlacementConfig{
		{Population: Population{M: 0, PH: 0.5, SetsPerUB: 1}},
		{Population: Population{M: 2, PH: -0.1, SetsPerUB: 1}},
		{Population: Population{M: 2, PH: math.NaN(), SetsPerUB: 1}},
		{Population: Population{M: 2, PH: 0.5, SetsPerUB: 0}},
		{Population: Population{M: 2, PH: 0.5, SetsPerUB: 1}, Placements: []string{"nosuch"}},
		{Population: Population{M: 2, PH: 0.5, SetsPerUB: 1}, Placements: []string{"ff@9"}},
		{Population: Population{M: 2, PH: 0.5, SetsPerUB: 1, Constrained: true}}, // EDF-VD by default
	}
	for _, cfg := range bad {
		if _, err := RunPlacement(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestPlacementDeterministic(t *testing.T) {
	cfg := tinyPlacementConfig()
	a, err := RunPlacement(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPlacement(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Scores) != len(core.Placers()) {
		t.Fatalf("default sweep scored %d heuristics, want the full registry (%d)",
			len(a.Scores), len(core.Placers()))
	}
	for i := range a.Scores {
		sa, sb := a.Scores[i], b.Scores[i]
		sa.Series, sb.Series = Series{}, Series{}
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("run-to-run divergence for %s:\n%+v\n%+v", a.Scores[i].Name, sa, sb)
		}
		if !reflect.DeepEqual(a.Scores[i].Series, b.Scores[i].Series) {
			t.Fatalf("series divergence for %s", a.Scores[i].Name)
		}
	}
	if a.GenFailures != b.GenFailures {
		t.Fatalf("gen failures diverged: %d vs %d", a.GenFailures, b.GenFailures)
	}
}

// TestPlacementWorkerIndependence runs the sweep one and four workers wide
// (a sweep is GOMAXPROCS wide) and wants the same scores from both.
func TestPlacementWorkerIndependence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cfg := tinyPlacementConfig()
	runtime.GOMAXPROCS(1)
	serial, err := RunPlacement(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	fanned, err := RunPlacement(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Scores {
		sa, sb := serial.Scores[i], fanned.Scores[i]
		sa.Series, sb.Series = Series{}, Series{}
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("worker-count changed %s:\n1 worker:  %+v\n4 workers: %+v", serial.Scores[i].Name, sa, sb)
		}
	}
}

func TestPlacementScoresSane(t *testing.T) {
	cfg := tinyPlacementConfig()
	cfg.Placements = []string{"udp-ca", "ff", "prm-ll"}
	res, err := RunPlacement(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != 3 {
		t.Fatalf("scored %d heuristics, want 3", len(res.Scores))
	}
	for _, s := range res.Scores {
		if s.Offered == 0 || s.Sets == 0 {
			t.Fatalf("%s evaluated nothing: %+v", s.Name, s)
		}
		if s.Admitted > s.Offered || s.FullSets > s.Sets {
			t.Fatalf("%s over-counted: %+v", s.Name, s)
		}
		if ar := s.AcceptanceRatio(); ar <= 0 || ar > 1 {
			t.Fatalf("%s acceptance %g outside (0,1]", s.Name, ar)
		}
		if f := s.Fragmentation(); f < 0 || f >= 1 {
			t.Fatalf("%s fragmentation %g outside [0,1)", s.Name, f)
		}
		if s.Probes == 0 {
			t.Fatalf("%s counted no analysis probes", s.Name)
		}
		if len(s.Series.Points) == 0 {
			t.Fatalf("%s has no acceptance curve", s.Name)
		}
	}
	if _, ok := res.ScoreByName("ff"); !ok {
		t.Fatal("ScoreByName missed ff")
	}
	if _, ok := res.ScoreByName("nf"); ok {
		t.Fatal("ScoreByName invented nf")
	}
	if out := PlacementSummary(res); len(out) == 0 {
		t.Fatal("empty summary")
	}
}
