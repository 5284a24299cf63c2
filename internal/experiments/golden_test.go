package experiments

// Golden per-bucket acceptance counts of the paper's two figure families,
// recorded before the generator and the sweep's worker loop were optimised
// (PR 13). They are the first step of ROADMAP's "pin the science": the
// counts are a function of (figure, m, sets per bucket, seed) alone, so a
// refactor that moves one of them changed which task sets are judged, or
// how, and must say so. The worker count must not matter.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// goldenCurve is one algorithm's accepted count per UB bucket, in bucket
// order.
type goldenCurve struct {
	name     string
	accepted []int
}

var goldenUBs = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99}

// checkGoldenFigure runs the figure at m = 8 and seed 2017 through its own
// entry point (default width), then repeats the same Config at Workers 1, 2
// and GOMAXPROCS, and holds every run to the golden curves.
func checkGoldenFigure(t *testing.T, fig func(m, setsPerUB int, seed int64) (Result, error), setsPerUB int, want []goldenCurve) {
	t.Helper()
	res, err := fig(8, setsPerUB, 2017)
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenResult(t, "default workers", res, setsPerUB, want)
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		cfg := res.Config
		cfg.Workers = w
		again, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkGoldenResult(t, fmt.Sprintf("workers=%d", w), again, setsPerUB, want)
	}
}

func checkGoldenResult(t *testing.T, label string, res Result, setsPerUB int, want []goldenCurve) {
	t.Helper()
	if res.GenFailures != 0 {
		t.Errorf("%s: %d generation failures, golden 0", label, res.GenFailures)
	}
	if len(res.Series) != len(want) {
		t.Fatalf("%s: %d series, golden %d", label, len(res.Series), len(want))
	}
	for i, s := range res.Series {
		got := goldenCurve{name: s.Name}
		var ubs []float64
		for _, p := range s.Points {
			got.accepted = append(got.accepted, p.Accepted)
			ubs = append(ubs, p.UB)
			if p.Total != setsPerUB {
				t.Errorf("%s: %s judged %d sets at UB %.2f, golden %d", label, s.Name, p.Total, p.UB, setsPerUB)
			}
		}
		if !reflect.DeepEqual(ubs, goldenUBs) {
			t.Errorf("%s: %s has buckets %v, golden %v", label, s.Name, ubs, goldenUBs)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s: series %d is %q %v, golden %q %v",
				label, i, got.name, got.accepted, want[i].name, want[i].accepted)
		}
	}
}

func TestGoldenFigure3Acceptance(t *testing.T) {
	checkGoldenFigure(t, Figure3, 40, []goldenCurve{
		{name: "CA-UDP-EDF-VD", accepted: []int{40, 40, 40, 40, 38, 37, 29, 19, 4, 0}},
		{name: "CU-UDP-EDF-VD", accepted: []int{40, 40, 40, 40, 40, 40, 36, 24, 9, 0}},
		{name: "CA(nosort)-F-F-EDF-VD", accepted: []int{40, 40, 40, 40, 40, 38, 26, 13, 2, 0}},
	})
}

func TestGoldenFigure5Acceptance(t *testing.T) {
	checkGoldenFigure(t, Figure5, 10, []goldenCurve{
		{name: "CU-UDP-ECDF", accepted: []int{10, 10, 10, 10, 10, 8, 7, 6, 0, 0}},
		{name: "CU-UDP-AMC-max", accepted: []int{10, 10, 10, 10, 10, 8, 8, 3, 0, 0}},
		{name: "CA-UDP-ECDF", accepted: []int{10, 10, 10, 10, 9, 6, 3, 3, 0, 0}},
		{name: "CA-UDP-AMC-max", accepted: []int{10, 10, 10, 10, 9, 5, 1, 1, 0, 0}},
		{name: "ECA-Wu-F-EY", accepted: []int{10, 10, 10, 10, 9, 6, 6, 3, 0, 0}},
		{name: "CA-F-F-EY", accepted: []int{10, 10, 10, 10, 10, 8, 5, 2, 0, 0}},
	})
}
