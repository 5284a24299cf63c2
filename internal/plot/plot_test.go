package plot

import (
	"strings"
	"testing"

	"mcsched/internal/experiments"
)

func demoChart() Chart {
	return Chart{
		Title:  "demo",
		XLabel: "ub",
		YLabel: "ar",
		Series: []Series{
			{Name: "alpha", X: []float64{0.1, 0.5, 0.9}, Y: []float64{1, 0.8, 0.2}},
			{Name: "beta", X: []float64{0.1, 0.5, 0.9}, Y: []float64{1, 0.6, 0.1}},
		},
	}
}

func TestSeriesValidate(t *testing.T) {
	bad := Series{Name: "b", X: []float64{1, 2}, Y: []float64{1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if err := (Series{Name: "ok"}).Validate(); err != nil {
		t.Fatalf("empty series rejected: %v", err)
	}
}

func TestChartValidate(t *testing.T) {
	if err := (Chart{}).Validate(); err == nil {
		t.Fatal("chart without series accepted")
	}
	c := demoChart()
	c.Series[0].Y = c.Series[0].Y[:1]
	if err := c.Validate(); err == nil {
		t.Fatal("chart with broken series accepted")
	}
}

func TestASCII(t *testing.T) {
	out, err := ASCII(demoChart(), 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"demo", "alpha", "beta", "x: ub", "*", "o"} {
		if !strings.Contains(out, want) {
			t.Errorf("ASCII output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 10 {
		t.Fatalf("only %d lines", len(lines))
	}
}

func TestASCIIErrors(t *testing.T) {
	if _, err := ASCII(demoChart(), 4, 2); err == nil {
		t.Fatal("tiny canvas accepted")
	}
	if _, err := ASCII(Chart{}, 40, 10); err == nil {
		t.Fatal("empty chart accepted")
	}
	empty := Chart{Series: []Series{{Name: "e"}}}
	if _, err := ASCII(empty, 40, 10); err == nil {
		t.Fatal("chart with no points accepted")
	}
}

func TestASCIIDegenerateRanges(t *testing.T) {
	// Single point: x and y ranges collapse; must still render.
	c := Chart{Series: []Series{{Name: "p", X: []float64{0.5}, Y: []float64{0.5}}}}
	if _, err := ASCII(c, 30, 6); err != nil {
		t.Fatalf("single-point chart failed: %v", err)
	}
}

func TestCSV(t *testing.T) {
	out, err := CSV(demoChart())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "ub,alpha,beta" {
		t.Fatalf("header %q", lines[0])
	}
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out)
	}
	if lines[1] != "0.1,1,1" {
		t.Fatalf("first row %q", lines[1])
	}
}

func TestCSVMissingSamples(t *testing.T) {
	c := Chart{Series: []Series{
		{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
		{Name: "b", X: []float64{2, 3}, Y: []float64{200, 300}},
	}}
	out, err := CSV(c)
	if err != nil {
		t.Fatal(err)
	}
	want := "x,a,b\n1,10,\n2,20,200\n3,,300\n"
	if out != want {
		t.Fatalf("got:\n%s\nwant:\n%s", out, want)
	}
}

func TestCSVEscaping(t *testing.T) {
	c := Chart{Series: []Series{
		{Name: `na"me,with`, X: []float64{1}, Y: []float64{2}},
	}}
	out, err := CSV(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"na""me,with"`) {
		t.Fatalf("unescaped header: %s", out)
	}
}

func TestSVG(t *testing.T) {
	out, err := SVG(demoChart(), 480, 320)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<svg", "</svg>", "polyline", "circle", "alpha", "beta"} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
}

func TestSVGErrors(t *testing.T) {
	if _, err := SVG(demoChart(), 10, 10); err == nil {
		t.Fatal("tiny svg accepted")
	}
	if _, err := SVG(Chart{}, 480, 320); err == nil {
		t.Fatal("empty chart accepted")
	}
}

func TestSVGEscapesTitle(t *testing.T) {
	c := demoChart()
	c.Title = `<script>&"`
	out, err := SVG(c, 480, 320)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "<script>") {
		t.Fatal("unescaped title in SVG")
	}
}

func TestFromSweep(t *testing.T) {
	r := experiments.Result{Series: []experiments.Series{
		{Name: "A", Points: []experiments.Point{
			{UB: 0.5, Accepted: 1, Total: 2},
			{UB: 0.6, Accepted: 2, Total: 2},
		}},
	}}
	c := FromSweep(r.Series, "t", "acceptance ratio")
	if len(c.Series) != 1 || c.Series[0].Name != "A" || c.YLabel != "acceptance ratio" {
		t.Fatalf("bad chart %+v", c)
	}
	if c.Series[0].Y[0] != 0.5 || c.Series[0].Y[1] != 1 {
		t.Fatalf("ratios not carried: %+v", c.Series[0])
	}
	if _, err := CSV(c); err != nil {
		t.Fatal(err)
	}
}

func TestFromWAR(t *testing.T) {
	algos := experiments.Figure3Algorithms()[:1]
	r := experiments.WARResult{
		Config: experiments.WARConfig{Ms: []int{2}, PHs: []float64{0.1}, Algorithms: algos},
		Runs: [][]experiments.Result{{{Series: []experiments.Series{
			{Name: algos[0].Name(), Points: []experiments.Point{{UB: 1, Accepted: 9, Total: 10}}},
		}}}},
	}
	c := FromWAR(r, "t")
	if len(c.Series) != 1 || c.Series[0].Name != "CA-UDP-EDF-VD (m=2)" {
		t.Fatalf("bad chart %+v", c)
	}
	if c.Series[0].X[0] != 0.1 || c.Series[0].Y[0] != 0.9 {
		t.Fatalf("point not carried: %+v", c.Series[0])
	}
}
