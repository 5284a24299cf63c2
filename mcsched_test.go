package mcsched

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// mustStrategy resolves a partitioning strategy by its registry name, the
// way callers outside this module do.
func mustStrategy(name string) Strategy {
	s, ok := StrategyByName(name)
	if !ok {
		panic("unknown strategy " + name)
	}
	return s
}

// paperFig1Like builds a small implicit-deadline system in the spirit of the
// paper's Figure 1: three HC tasks plus one heavy LC task on two cores.
func paperFig1Like() TaskSet {
	return TaskSet{
		NewHCTask(0, 20, 60, 100), // uL=0.2 uH=0.6
		NewHCTask(1, 30, 40, 100), // uL=0.3 uH=0.4
		NewHCTask(2, 10, 30, 100), // uL=0.1 uH=0.3
		NewLCTask(3, 45, 100),     // uL=0.45
	}
}

func TestPublicPartitionRoundTrip(t *testing.T) {
	ts := paperFig1Like()
	algo := Algorithm{Strategy: mustStrategy("CU-UDP"), Test: EDFVD()}
	p, err := algo.Partition(ts, 2)
	if err != nil {
		t.Fatalf("partition failed: %v", err)
	}
	if err := algo.Verify(ts, p); err != nil {
		t.Fatal(err)
	}
	if got := p.NumTasks(); got != len(ts) {
		t.Fatalf("placed %d tasks, want %d", got, len(ts))
	}
}

func TestPublicStrategiesComplete(t *testing.T) {
	names := map[string]bool{}
	for _, s := range Strategies() {
		names[s.Name()] = true
	}
	for _, want := range []string{
		"CA-UDP", "CU-UDP", "CA(nosort)-F-F", "CA-F-F", "CA-Wu-F", "ECA-Wu-F", "FFD", "WFD",
	} {
		if !names[want] {
			t.Errorf("Strategies() missing %q", want)
		}
	}
	for name := range names {
		s, ok := StrategyByName(name)
		if !ok || s.Name() != name {
			t.Errorf("StrategyByName(%q) broken", name)
		}
	}
}

func TestPublicTestsComplete(t *testing.T) {
	want := []string{"EDF-VD", "ECDF", "EY", "AMC-max"}
	got := Tests()
	if len(got) != len(want) {
		t.Fatalf("Tests() returned %d entries", len(got))
	}
	for i, w := range want {
		if got[i].Name() != w {
			t.Errorf("Tests()[%d] = %q, want %q", i, got[i].Name(), w)
		}
		if tt, ok := TestByName(w); !ok || tt.Name() != w {
			t.Errorf("TestByName(%q) broken", w)
		}
	}
	for _, extra := range []string{"AMC-rtb", "EDF-util", "EDF-demand"} {
		if tt, ok := TestByName(extra); !ok || tt.Name() != extra {
			t.Errorf("TestByName(%q) broken", extra)
		}
	}
	if _, ok := TestByName("bogus"); ok {
		t.Error("TestByName accepted bogus name")
	}
}

func TestPublicGenerateAndAnalyze(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultGenConfig(4, 0.5, 0.3, 0.4)
	ts, err := Generate(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Validate(); err != nil {
		t.Fatal(err)
	}
	res := AnalyzeEDFVD(ts) // whole set on one core: usually infeasible, must not panic
	_ = res.Schedulable
	for _, test := range Tests() {
		_ = test.Schedulable(ts)
	}
}

func TestPublicUnpartitionableError(t *testing.T) {
	// Two heavy HC tasks cannot share one core.
	ts := TaskSet{
		NewHCTask(0, 60, 90, 100),
		NewHCTask(1, 60, 90, 100),
	}
	algo := Algorithm{Strategy: mustStrategy("CA-UDP"), Test: EDFVD()}
	_, err := algo.Partition(ts, 1)
	if err == nil {
		t.Fatal("expected failure")
	}
	if !errors.Is(err, ErrUnpartitionable) {
		t.Fatalf("error %v does not unwrap to ErrUnpartitionable", err)
	}
}

func TestPublicSimulationValidatesAcceptance(t *testing.T) {
	ts := paperFig1Like()
	algo := Algorithm{Strategy: mustStrategy("CU-UDP"), Test: EDFVD()}
	p, err := algo.Partition(ts, 2)
	if err != nil {
		t.Fatal(err)
	}
	miss, err := ValidatePartitionBySimulation(p, "EDF-VD", 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if miss != nil {
		t.Fatalf("accepted partition missed a deadline in simulation: %v", *miss)
	}
	if _, err := ValidatePartitionBySimulation(p, "EDF-VD", 0, 1); err == nil {
		t.Error("non-positive horizon accepted")
	}
	if _, err := ValidatePartitionBySimulation(p, "warp-drive", 20000, 1); err == nil {
		t.Error("unknown test accepted")
	}
}

func TestPublicSimulateScenarios(t *testing.T) {
	ts := TaskSet{
		NewHCTask(0, 2, 4, 10),
		NewLCTask(1, 3, 12),
	}
	for _, spec := range []SimSpec{
		{Horizon: 5000, Scenario: SimLoSteady},
		{Horizon: 5000, Scenario: SimHiStorm},
		{Horizon: 5000, Scenario: SimRandom, Seed: 9, OverrunProb: 0.3, Jitter: 0.5},
		{Horizon: 5000, Scenario: SimSingleOverrun, OverrunTask: 0, OverrunJob: 2},
	} {
		res := SimulateCore(ts, SimConfig{
			Spec: spec,
			CoreRuntime: SimCoreRuntime{Policy: PolicyVirtualDeadlineEDF,
				VD: VirtualDeadlinesFromX(ts, AnalyzeEDFVD(ts).X)},
		})
		if !res.OK() {
			t.Errorf("scenario %s: misses %v", spec.Scenario, res.Misses)
		}
	}
}

func TestPublicIORoundTrip(t *testing.T) {
	ts := paperFig1Like()
	var buf bytes.Buffer
	if err := WriteTaskSet(&buf, ts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTaskSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ts) {
		t.Fatalf("%d tasks, want %d", len(got), len(ts))
	}

	algo := Algorithm{Strategy: mustStrategy("CA-UDP"), Test: EDFVD()}
	p, err := algo.Partition(ts, 2)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WritePartition(&buf, p); err != nil {
		t.Fatal(err)
	}
	p2, err := ReadPartition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := algo.Verify(ts, p2); err != nil {
		t.Fatal(err)
	}
}

func TestPublicExperimentAndCharts(t *testing.T) {
	res, err := RunExperiment(ExperimentConfig{
		Population: ExperimentPopulation{M: 2, PH: 0.5, SetsPerUB: 4, Seed: 2, UBMin: 0.5, UBMax: 0.7},
		Algorithms: Figure3Algorithms(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("got %d series", len(res.Series))
	}
	if s := ExperimentSummary(res); !strings.Contains(s, "WAR") {
		t.Fatalf("summary missing WAR:\n%s", s)
	}
	ims, err := ImprovementsVs(res, "CA(nosort)-F-F-EDF-VD")
	if err != nil || len(ims) != 2 {
		t.Fatalf("improvements: %v %v", ims, err)
	}

	chart := ChartFromExperiment(res, "test")
	if _, err := RenderCSV(chart); err != nil {
		t.Fatal(err)
	}
	if _, err := RenderASCII(chart, 60, 12); err != nil {
		t.Fatal(err)
	}
	if _, err := RenderSVG(chart, 480, 320); err != nil {
		t.Fatal(err)
	}
}

func TestPublicWARExperiment(t *testing.T) {
	res, err := RunWARExperiment(WARConfig{
		Ms:         []int{2},
		PHs:        []float64{0.5},
		SetsPerUB:  2,
		Seed:       4,
		Algorithms: Figure3Algorithms(),
	})
	if err != nil {
		t.Fatal(err)
	}
	chart := ChartFromWAR(res, "war")
	if len(chart.Series) != 3 {
		t.Fatalf("got %d chart series", len(chart.Series))
	}
}

func TestPublicAMCVariants(t *testing.T) {
	ts := TaskSet{
		NewHCTaskD(0, 2, 4, 20, 10),
		NewLCTaskD(1, 3, 15, 12),
	}
	rtb, max := AMCWith(AMCRtb), AMCWith(AMCMax)
	if rtb.Name() != "AMC-rtb" || max.Name() != "AMC-max" {
		t.Fatalf("variant names %q %q", rtb.Name(), max.Name())
	}
	// AMC-max dominates AMC-rtb: anything rtb accepts, max must accept.
	if rtb.Schedulable(ts) && !max.Schedulable(ts) {
		t.Fatal("AMC-max rejected a set AMC-rtb accepted")
	}
	// Audsley dominates deadline-monotonic under the same variant.
	dm := AMCDeadlineMonotonic()
	if dm.Schedulable(ts) && !max.Schedulable(ts) {
		t.Fatal("Audsley rejected a set DM accepted")
	}
	if !dm.Schedulable(TaskSet{NewLCTask(0, 1, 10)}) {
		t.Fatal("DM rejected a trivial set")
	}
}

func TestPublicPlainEDF(t *testing.T) {
	// Worst-case-reservation EDF provisions HC tasks at C^H: a set with
	// UHH + ULL > 1 fails even though EDF-VD may pass.
	ts := TaskSet{
		NewHCTask(0, 10, 60, 100), // uH = 0.6
		NewLCTask(1, 50, 100),     // uL = 0.5
	}
	if PlainEDF(false).Schedulable(ts) {
		t.Fatal("reservation EDF accepted UHH+ULL=1.1")
	}
	light := TaskSet{NewHCTaskD(0, 2, 4, 20, 10)}
	if !PlainEDF(true).Schedulable(light) {
		t.Fatal("demand EDF rejected a light constrained set")
	}
}

func TestPublicSpeedupAPI(t *testing.T) {
	algo := Algorithm{Strategy: mustStrategy("CU-UDP"), Test: EDFVD()}
	over := TaskSet{
		NewHCTask(0, 100, 600, 1000),
		NewHCTask(1, 100, 600, 1000),
	}
	s, ok := MinSpeed(algo, over, 1, 4, 1e-3)
	if !ok || s < 1.1 || s > 1.3 {
		t.Fatalf("MinSpeed=%g ok=%v, want ≈1.2", s, ok)
	}
	scaled := SpeedScaled(over, s)
	if !algo.Schedulable(scaled, 1) {
		t.Fatal("scaled set rejected at its measured speed")
	}
	survey, err := RunSpeedupSurvey(algo, 2, 20, 1.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if survey.Max() > 8.0/3.0+1e-6 {
		t.Fatalf("survey exceeded 8/3: %v", survey)
	}
	if survey.String() == "" {
		t.Fatal("empty survey summary")
	}
}
