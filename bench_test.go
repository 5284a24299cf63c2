package mcsched

// This file is the benchmark harness of the reproduction: one benchmark per
// figure of the paper (Figs. 3, 4, 5, 6a, 6b) plus ablation benches for the
// design choices of Section III and micro-benchmarks for the individual
// schedulability tests and partitioning strategies. cmd/mcbench runs a
// fixed subset of these (its row table) and records them in BENCH_4.json.
//
// Figure benches run a reduced number of task sets per UB bucket (the CLI
// tool cmd/mcfigures regenerates the figures at full scale) and attach the
// resulting weighted acceptance ratios as custom metrics, so a bench run
// doubles as a sanity check of the paper's ordering:
//
//	go test -bench=Fig -benchmem .
//
// reports e.g. "war/CU-UDP-EDF-VD" above "war/CA(nosort)-F-F-EDF-VD".

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mcsched/internal/analysis/kernel"
	"mcsched/internal/mcsio"
	"mcsched/internal/taskgen"
)

// benchSets is the per-UB sample count of the figure benches. Small on
// purpose: the benches gauge harness cost and preserve the ordering of the
// algorithms, not publication-grade precision.
const benchSets = 4

// reportWARs attaches each algorithm's WAR as a custom benchmark metric.
func reportWARs(b *testing.B, res ExperimentResult) {
	b.Helper()
	for _, s := range res.Series {
		b.ReportMetric(s.WAR(), "war/"+s.Name)
	}
}

func benchFigure(b *testing.B, runner func(m, sets int, seed int64) (ExperimentResult, error), m int) {
	b.Helper()
	b.ReportAllocs()
	var last ExperimentResult
	for i := 0; i < b.N; i++ {
		res, err := runner(m, benchSets, 2017)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportWARs(b, last)
}

// BenchmarkFig3 regenerates the three panels of Fig. 3 (implicit deadlines,
// EDF-VD, PH=0.5): UDP strategies versus the speed-up-bound baseline.
func BenchmarkFig3(b *testing.B) {
	for _, m := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) { benchFigure(b, Figure3, m) })
	}
}

// BenchmarkFig4 regenerates Fig. 4 (implicit deadlines, ECDF and AMC versus
// the EY baselines).
func BenchmarkFig4(b *testing.B) {
	for _, m := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) { benchFigure(b, Figure4, m) })
	}
}

// BenchmarkFig5 regenerates Fig. 5 (constrained deadlines).
func BenchmarkFig5(b *testing.B) {
	for _, m := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) { benchFigure(b, Figure5, m) })
	}
}

// BenchmarkFig6a regenerates Fig. 6a (WAR versus PH, implicit deadlines,
// EDF-VD, m ∈ {2,4}).
func BenchmarkFig6a(b *testing.B) {
	b.ReportAllocs()
	var last WARResult
	for i := 0; i < b.N; i++ {
		res, err := Figure6a(benchSets, 2017)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportMidWARs(b, last)
}

// reportMidWARs attaches each (algorithm, m) pair's WAR at the middle PH as
// a custom metric. Metric units must be whitespace-free.
func reportMidWARs(b *testing.B, res WARResult) {
	b.Helper()
	mid := len(res.Config.PHs) / 2
	for mi, m := range res.Config.Ms {
		for _, s := range res.Runs[mi][mid].Series {
			b.ReportMetric(s.WAR(), fmt.Sprintf("war@PH=0.5/%s,m=%d", s.Name, m))
		}
	}
}

// BenchmarkFig6b regenerates Fig. 6b (WAR versus PH, constrained deadlines,
// AMC and ECDF, m ∈ {2,4}).
func BenchmarkFig6b(b *testing.B) {
	b.ReportAllocs()
	var last WARResult
	for i := 0; i < b.N; i++ {
		res, err := Figure6b(benchSets, 2017)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportMidWARs(b, last)
}

// ---------------------------------------------------------------------------
// Ablations (design choices of Section III)
// ---------------------------------------------------------------------------

// ablationSweep runs a reduced implicit-deadline sweep with the given
// algorithms and reports their WARs, so the bench output ranks the design
// variants directly.
func ablationSweep(b *testing.B, m int, algos []Algorithm) {
	b.Helper()
	b.ReportAllocs()
	var last ExperimentResult
	for i := 0; i < b.N; i++ {
		res, err := RunExperiment(ExperimentConfig{
			Population: ExperimentPopulation{M: m, PH: 0.5, SetsPerUB: benchSets, Seed: 99, UBMin: 0.5, UBMax: 0.99},
			Algorithms: algos,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportWARs(b, last)
}

// BenchmarkAblationFitKey isolates the paper's core idea: worst-fit by the
// utilization difference (CA-UDP) versus worst-fit by raw HI utilization
// (CA-Wu-F) versus plain first-fit (CA-F-F), all under the same EDF-VD test.
func BenchmarkAblationFitKey(b *testing.B) {
	t := EDFVD()
	ablationSweep(b, 4, []Algorithm{
		{Strategy: mustStrategy("CA-UDP"), Test: t},
		{Strategy: mustStrategy("CA-Wu-F"), Test: t},
		{Strategy: mustStrategy("CA-F-F"), Test: t},
	})
}

// BenchmarkAblationSort isolates decreasing-utilization sorting:
// CA-F-F (sorted) versus CA(nosort)-F-F under EDF-VD.
func BenchmarkAblationSort(b *testing.B) {
	t := EDFVD()
	ablationSweep(b, 4, []Algorithm{
		{Strategy: mustStrategy("CA-F-F"), Test: t},
		{Strategy: mustStrategy("CA(nosort)-F-F"), Test: t},
	})
}

// BenchmarkAblationOrdering isolates criticality-aware versus unaware
// allocation order at a high HC-task fraction, where the paper reports
// CA-UDP degrading (heavy LC tasks get stranded).
func BenchmarkAblationOrdering(b *testing.B) {
	t := EDFVD()
	algos := []Algorithm{
		{Strategy: mustStrategy("CA-UDP"), Test: t},
		{Strategy: mustStrategy("CU-UDP"), Test: t},
	}
	b.ReportAllocs()
	var last ExperimentResult
	for i := 0; i < b.N; i++ {
		res, err := RunExperiment(ExperimentConfig{
			Population: ExperimentPopulation{M: 4, PH: 0.9, SetsPerUB: benchSets, Seed: 7, UBMin: 0.5, UBMax: 0.99},
			Algorithms: algos,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportWARs(b, last)
}

// BenchmarkAblationAMCVariant compares the pessimism of AMC-rtb against
// AMC-max under the same CU-UDP strategy.
func BenchmarkAblationAMCVariant(b *testing.B) {
	ablationSweep(b, 2, []Algorithm{
		{Strategy: mustStrategy("CU-UDP"), Test: AMCWith(AMCMax)},
		{Strategy: mustStrategy("CU-UDP"), Test: AMCWith(AMCRtb)},
	})
}

// BenchmarkAblationTestStrength ranks the four uniprocessor tests under one
// strategy: ECDF ≥ EY and ECDF ≥ EDF-VD are the relations the paper's
// algorithm choices rely on.
func BenchmarkAblationTestStrength(b *testing.B) {
	ablationSweep(b, 2, []Algorithm{
		{Strategy: mustStrategy("CU-UDP"), Test: ECDF()},
		{Strategy: mustStrategy("CU-UDP"), Test: EY()},
		{Strategy: mustStrategy("CU-UDP"), Test: EDFVD()},
		{Strategy: mustStrategy("CU-UDP"), Test: AMC()},
	})
}

// BenchmarkAblationPriorityPolicy compares Audsley's optimal priority
// assignment against the deadline-monotonic fallback under AMC-max — the
// priority-assignment design choice of the AMC substrate.
func BenchmarkAblationPriorityPolicy(b *testing.B) {
	audsley := AMC()
	dm := AMCDeadlineMonotonic()
	ablationSweep(b, 2, []Algorithm{
		{Strategy: mustStrategy("CU-UDP"), Test: audsley},
		{Strategy: mustStrategy("CU-UDP"), Test: dm},
	})
}

// ---------------------------------------------------------------------------
// Micro-benchmarks: tests, strategies, simulator
// ---------------------------------------------------------------------------

// benchSet draws one representative mid-load task set.
func benchSet(b *testing.B, m int, constrained bool) TaskSet {
	b.Helper()
	rng := rand.New(rand.NewSource(1234))
	cfg := DefaultGenConfig(m, 0.5, 0.3, 0.3)
	cfg.Constrained = constrained
	ts, err := Generate(rng, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return ts
}

// BenchmarkTestEDFVD measures one EDF-VD acceptance decision.
func BenchmarkTestEDFVD(b *testing.B) {
	ts := benchSet(b, 1, false)
	t := EDFVD()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Schedulable(ts)
	}
}

// BenchmarkTestECDF measures one ECDF acceptance decision (dbf iteration
// plus deadline tuning).
func BenchmarkTestECDF(b *testing.B) {
	ts := benchSet(b, 1, true)
	t := ECDF()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Schedulable(ts)
	}
}

// BenchmarkTestEY measures one Ekberg–Yi acceptance decision.
func BenchmarkTestEY(b *testing.B) {
	ts := benchSet(b, 1, true)
	t := EY()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Schedulable(ts)
	}
}

// BenchmarkTestAMC measures one AMC-max + Audsley acceptance decision.
func BenchmarkTestAMC(b *testing.B) {
	ts := benchSet(b, 1, true)
	t := AMC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Schedulable(ts)
	}
}

// BenchmarkPartition measures a full partitioning run per strategy on an
// 8-core load under EDF-VD.
func BenchmarkPartition(b *testing.B) {
	ts := benchSet(b, 8, false)
	for _, s := range Strategies() {
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = s.Partition(ts, 8, EDFVD())
			}
		})
	}
}

// BenchmarkSimulateCore measures the discrete-event engine under the
// randomized scenario on one mid-load core.
func BenchmarkSimulateCore(b *testing.B) {
	ts := benchSet(b, 1, false)
	cfg := SimConfig{
		Spec:        SimSpec{Horizon: 100000, Scenario: SimRandom, Seed: 5, OverrunProb: 0.2, Jitter: 0.5},
		CoreRuntime: SimCoreRuntime{Policy: PolicyVirtualDeadlineEDF},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SimulateCore(ts, cfg)
	}
}

// BenchmarkGenerate measures one task-set draw at the paper's default
// parameters.
func BenchmarkGenerate(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	cfg := DefaultGenConfig(8, 0.5, 0.3, 0.3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(rng, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Admission-control service hot path
// ---------------------------------------------------------------------------

// admitTasks draws a stream of distinct small tasks for admission benches.
func admitTasks(tb testing.TB, n int) TaskSet {
	tb.Helper()
	rng := rand.New(rand.NewSource(2024))
	out := make(TaskSet, 0, n)
	for i := 0; i < n; i++ {
		t := Ticks(10 + rng.Intn(490))
		cl := 1 + Ticks(rng.Intn(int(t/10+1)))
		if rng.Intn(2) == 0 {
			ch := cl + Ticks(rng.Intn(int(t/5+1)))
			if ch > t {
				ch = t
			}
			out = append(out, NewHCTask(i, cl, ch, t))
		} else {
			out = append(out, NewLCTask(i, cl, t))
		}
	}
	return out
}

// workCounters are the analyzer counters a benchmark reports, under
// cmd/mcbench's JSON keys: deterministic at a fixed iteration count, so
// TestBenchCountersGolden pins them.
type workCounters struct {
	TestsRun, FastAccepts, FastRejects, IncrementalHits, ExactRuns, WarmStarts uint64
}

// controllerCounters reads the controller's analyzer counters, accumulated
// over the whole run (set-up and warm-up included).
func controllerCounters(ctrl *AdmissionController) workCounters {
	st := ctrl.Stats()
	return workCounters{st.TestsRun, st.FastAccepts, st.FastRejects, st.IncrementalHits, st.ExactRuns, st.WarmStarts}
}

// analyzerCounters reads one analyzer's counters.
func analyzerCounters(c *kernel.Counters) workCounters {
	return workCounters{c.Total(), c.FastAccepts, c.FastRejects, c.IncrementalHits, c.ExactRuns, c.WarmStarts}
}

// reportCounters attaches the counters as custom metrics whose units are
// cmd/mcbench's JSON keys.
func reportCounters(b *testing.B, c workCounters) {
	b.ReportMetric(float64(c.TestsRun), "tests_run")
	b.ReportMetric(float64(c.FastAccepts), "fast_accepts")
	b.ReportMetric(float64(c.FastRejects), "fast_rejects")
	b.ReportMetric(float64(c.IncrementalHits), "incremental_hits")
	b.ReportMetric(float64(c.ExactRuns), "exact_runs")
	b.ReportMetric(float64(c.WarmStarts), "warm_starts")
}

// loop runs op n times. Under a benchmark only the loop is timed and its
// allocations reported; TestBenchCountersGolden calls the same bodies with
// a fixed n.
func loop(tb testing.TB, n int, op func(i int)) {
	if b, ok := tb.(*testing.B); ok {
		b.ReportAllocs()
		b.ResetTimer()
		defer b.StopTimer()
	}
	for i := 0; i < n; i++ {
		op(i)
	}
}

// admitSingle runs n admit+release cycles (or n probes) against an 8-core
// tenant of ctrl loaded with half of the admit stream, and returns the
// controller's counters. warm runs the measured cycle once before the
// loop, so the per-core analyzers have seen every candidate set already;
// cold starts the loop on the freshly loaded tenant.
func admitSingle(tb testing.TB, ctrl *AdmissionController, test Test, warm, probe bool, n int) workCounters {
	sys, err := ctrl.CreateSystem("bench", 8, test)
	if err != nil {
		tb.Fatal(err)
	}
	stream := admitTasks(tb, 256)
	// Pre-load half the stream so admits land on non-trivial cores.
	for _, t := range stream[:128] {
		if _, err := sys.Admit(t); err != nil {
			tb.Fatal(err)
		}
	}
	cycle := func(i int) {
		task := stream[128+i%128]
		if probe {
			if _, err := sys.Probe(task); err != nil {
				tb.Fatal(err)
			}
			return
		}
		res, err := sys.Admit(task)
		if err != nil {
			tb.Fatal(err)
		}
		if res.Admitted {
			if _, err := sys.Release(task.ID); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if warm {
		for i := 0; i < 128; i++ {
			cycle(i)
		}
	}
	loop(tb, n, cycle)
	return controllerCounters(ctrl)
}

// admitSingleCases are BenchmarkAdmitSingle's rows: cold from a freshly
// loaded tenant, warm with the analyzers' memoized state in place (the
// steady state of service traffic) under EDF-VD, EY and ECDF, warm with a
// live metrics registry (the observability layer must keep it at 0
// allocs/op), and warm probes.
var admitSingleCases = []struct {
	name                      string
	test                      Test
	warm, probe, instrumented bool
}{
	{"cold", EDFVD(), false, false, false},
	{"warm", EDFVD(), true, false, false},
	{"warm-instrumented", EDFVD(), true, false, true},
	{"warm-ey", EY(), true, false, false},
	{"warm-ecdf", ECDF(), true, false, false},
	{"probe-warm", EDFVD(), true, true, false},
}

// BenchmarkAdmitSingle measures the single-task admit hot path
// (admitSingleCases).
func BenchmarkAdmitSingle(b *testing.B) {
	for _, c := range admitSingleCases {
		b.Run(c.name, func(b *testing.B) {
			ctrl := NewAdmissionController(DefaultAdmissionConfig())
			if c.instrumented {
				ctrl.EnableMetrics(NewMetricsRegistry())
			}
			reportCounters(b, admitSingle(b, ctrl, c.test, c.warm, c.probe, b.N))
		})
	}
}

// admitBatch64Cases are BenchmarkAdmitBatch64's rows: every test family
// with the default UDP placement, and EDF-VD with each other registry
// placement.
var admitBatch64Cases = []struct {
	name, placement string
	test            Test
}{
	{"edfvd-cold", "", EDFVD()},
	{"ey-cold", "", EY()},
	{"ecdf-cold", "", ECDF()},
	{"edf-cold", "", PlainEDF(true)},
	{"amc-cold", "", AMC()},
	{"edfvd-ff", "ff", EDFVD()},
	{"edfvd-nf", "nf", EDFVD()},
	{"edfvd-bf-total", "bf-total", EDFVD()},
	{"edfvd-wf-total", "wf-total", EDFVD()},
	{"edfvd-prm-ll", "prm-ll", EDFVD()},
}

// admitBatch64 runs n all-or-nothing 64-task batch admits (each admitted
// batch released again) against a fresh 8-core tenant and returns the
// controller's counters.
func admitBatch64(tb testing.TB, placement string, test Test, n int) workCounters {
	ctrl := NewAdmissionController(DefaultAdmissionConfig())
	sys, err := ctrl.CreateSystemWithPlacement("bench", 8, test, placement)
	if err != nil {
		tb.Fatal(err)
	}
	batch := admitTasks(tb, 64)
	ids := make([]int, len(batch))
	for i, t := range batch {
		ids[i] = t.ID
	}
	loop(tb, n, func(int) {
		res, err := sys.AdmitBatch(batch)
		if err != nil {
			tb.Fatal(err)
		}
		if res.Admitted {
			if _, err := sys.Release(ids...); err != nil {
				tb.Fatal(err)
			}
		}
	})
	return controllerCounters(ctrl)
}

// BenchmarkAdmitBatch64 measures an all-or-nothing 64-task batch admit
// (plus the release that resets the tenant between iterations) for each of
// admitBatch64Cases: the per-family cost, and the per-heuristic cost of
// the placement registry.
func BenchmarkAdmitBatch64(b *testing.B) {
	for _, c := range admitBatch64Cases {
		b.Run(c.name, func(b *testing.B) {
			reportCounters(b, admitBatch64(b, c.placement, c.test, b.N))
		})
	}
}

// BenchmarkAdmitBatch16FullTenant mirrors mcload's serve-analysis-batch
// write: a 16-task all-or-nothing ECDF batch (one generated set of about
// one core's load, constrained deadlines) offered to an 8-core tenant that
// was filled with such batches until it refused three, so every core holds
// about a dozen tasks and the exact analysis runs on most probes. An
// admitted batch is released again; the measured cycle has run once before
// the timer starts.
func BenchmarkAdmitBatch16FullTenant(b *testing.B) {
	reportCounters(b, admitBatch16FullTenant(b, b.N))
}

// admitBatch16FullTenant is BenchmarkAdmitBatch16FullTenant's body: n
// measured cycles, returning the controller's counters.
func admitBatch16FullTenant(tb testing.TB, n int) workCounters {
	rng := rand.New(rand.NewSource(2017))
	cfg := DefaultGenConfig(1, 0.55, 0.25, 0.35)
	cfg.NMin, cfg.NMax = 16, 16
	cfg.Constrained = true
	nextID := 0
	draw := func() (TaskSet, []int) {
		for {
			ts, err := Generate(rng, cfg)
			if err != nil {
				continue // infeasible draw; the rng has advanced
			}
			ids := make([]int, len(ts))
			for i := range ts {
				ts[i].ID, ids[i] = nextID, nextID
				nextID++
			}
			return ts, ids
		}
	}
	ctrl := NewAdmissionController(DefaultAdmissionConfig())
	sys, err := ctrl.CreateSystem("bench", 8, ECDF())
	if err != nil {
		tb.Fatal(err)
	}
	for refused := 0; refused < 3; {
		batch, _ := draw()
		res, err := sys.AdmitBatch(batch)
		if err != nil {
			tb.Fatal(err)
		}
		if !res.Admitted {
			refused++
		}
	}
	const pool = 32
	batches, ids := make([]TaskSet, pool), make([][]int, pool)
	for i := range batches {
		batches[i], ids[i] = draw()
	}
	cycle := func(i int) {
		res, err := sys.AdmitBatch(batches[i%pool])
		if err != nil {
			tb.Fatal(err)
		}
		if res.Admitted {
			if _, err := sys.Release(ids[i%pool]...); err != nil {
				tb.Fatal(err)
			}
		}
	}
	for i := 0; i < pool; i++ {
		cycle(i)
	}
	loop(tb, n, cycle)
	return controllerCounters(ctrl)
}

// analysisColdCases are BenchmarkAnalysisCold's two fixed single-core
// sets. They have the size the m = 8 constrained sweep puts on a core,
// each at the 90th percentile of its kind's cost among 4000 drawn:
// ey-shape-m8 passes EY after 58 shaping steps; ecdf-exact-reject passes
// the LO test at d = D and fails the EY pass and all five ECDF restarts.
var analysisColdCases = []struct {
	name string
	test Test
	ts   TaskSet
	want bool
}{
	{"ey-shape-m8", EY(), TaskSet{
		NewLCTaskD(3, 5, 33, 23), NewHCTaskD(2, 1, 4, 11, 9), NewLCTaskD(5, 1, 10, 4),
		NewHCTaskD(0, 37, 57, 294, 259), NewLCTaskD(4, 4, 13, 5), NewHCTaskD(1, 23, 63, 438, 395),
	}, true},
	{"ecdf-exact-reject", ECDF(), TaskSet{
		NewHCTaskD(0, 32, 157, 218, 182), NewLCTaskD(3, 3, 11, 5), NewHCTaskD(1, 1, 2, 29, 20),
		NewHCTaskD(2, 1, 2, 15, 6), NewLCTaskD(4, 2, 33, 32), NewLCTaskD(5, 1, 24, 22),
	}, false},
}

// analysisCold runs n cold exact analyses of ts on one analyzer of test,
// its memo dropped before each, and returns the analyzer's counters.
func analysisCold(tb testing.TB, test Test, ts TaskSet, want bool, n int) workCounters {
	an := test.(kernel.Incremental).NewAnalyzer()
	loop(tb, n, func(int) {
		an.Invalidate()
		if an.Schedulable(ts) != want {
			tb.Fatalf("%s verdict is not %v", test.Name(), want)
		}
	})
	return analyzerCounters(an.Counters())
}

// BenchmarkAnalysisCold is one cold exact analysis per op on the family's
// per-core analyzer (analysisColdCases), its memo dropped before every op:
// a whole shaping run with no admission or placement around it.
func BenchmarkAnalysisCold(b *testing.B) {
	for _, c := range analysisColdCases {
		b.Run(c.name, func(b *testing.B) {
			reportCounters(b, analysisCold(b, c.test, c.ts, c.want, b.N))
		})
	}
}

// BenchmarkGenerateGrid is one task-set draw at m = 8 per op, the ops
// cycling through the paper's utilization grid, so the figure is the
// sweeps' per-set generation cost, not one combination's.
func BenchmarkGenerateGrid(b *testing.B) {
	for _, constrained := range []bool{false, true} {
		name := "implicit"
		if constrained {
			name = "constrained"
		}
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(77))
			grid := taskgen.DefaultGrid()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				combo := grid[i%len(grid)]
				cfg := DefaultGenConfig(8, combo.UHH, combo.ULH, combo.ULL)
				cfg.Constrained = constrained
				if _, err := Generate(rng, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCappedDraw is one BoundedSumCapped call per op on a continuing
// stream: the LO-mode utilizations of twelve HC tasks under their HI-mode
// caps, summing to share·Σcap. At 0.95 (exhausted) no UUniFast try fits
// under the caps, so every op is the discard loop run to exhaustion plus
// the proportional fallback, which is what 43.8 % of the generator's
// capped draws on the paper's grid are; at 0.45 (accepted) an op accepts
// after some 90 tries, as the grid's other capped draws do.
func BenchmarkCappedDraw(b *testing.B) {
	caps := []float64{0.62, 0.18, 0.41, 0.09, 0.77, 0.25, 0.33, 0.52, 0.14, 0.47, 0.29, 0.71}
	var capSum float64
	for _, c := range caps {
		capSum += c
	}
	for _, c := range []struct {
		name      string
		share     float64
		exhausted bool
	}{{"exhausted", 0.95, true}, {"accepted", 0.45, false}} {
		total := c.share * capSum
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(77))
			fell := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u, err := taskgen.BoundedSumCapped(rng, len(caps), total, 0.001, caps)
				if err != nil {
					b.Fatal(err)
				}
				if u[0] == total*caps[0]/capSum { // the proportional fallback
					fell++
				}
			}
			if c.exhausted && fell != b.N || !c.exhausted && fell*100 > b.N {
				b.Fatalf("%d of %d ops fell back, want exhausted=%v", fell, b.N, c.exhausted)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Task-set-level parallelism of the experiment sweeps
// ---------------------------------------------------------------------------

// BenchmarkSweep runs one reduced acceptance-ratio sweep (the paper's
// Fig. 3 shape, CU-UDP-EDF-VD on m = 4). The sweep is GOMAXPROCS wide, so
// -cpu sets its width: `-cpu 1,2` gives the serial time and the parallel
// one, and the curves are identical at both.
func BenchmarkSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := RunExperiment(ExperimentConfig{
			Population: ExperimentPopulation{M: 4, PH: 0.5, SetsPerUB: benchSets, Seed: 2017, UBMin: 0.5, UBMax: 0.99},
			Algorithms: []Algorithm{{Strategy: mustStrategy("CU-UDP"), Test: EDFVD()}},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepFig3 is one Figure 3 panel (m = 8, EDF-VD, three
// algorithms) at 100 task sets per UB bucket: generation, partitioning and
// the parallel map at a tenth of the paper's scale.
func BenchmarkSweepFig3(b *testing.B) {
	b.Run("m8-100", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Figure3(8, 100, 2017); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSweepFig5 is one Figure 5 panel (m = 8, constrained deadlines:
// CU-UDP and CA-UDP under ECDF and AMC against the EY baselines) at 40
// task sets per UB bucket, a sixth of what the offline-sweep load
// workload runs: there the exact demand-bound shaping runs own the time.
func BenchmarkSweepFig5(b *testing.B) {
	b.Run("m8-40", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Figure5(8, 40, 2017); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPartitionAMC measures one full offline partitioning run of
// CU-UDP-AMC on 8 cores — the offline counterpart of the admit-path
// benchmarks.
func BenchmarkPartitionAMC(b *testing.B) {
	ts := benchSet(b, 8, true)
	strategy, test := mustStrategy("CU-UDP"), AMC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = strategy.Partition(ts, 8, test)
	}
}

// BenchmarkSpeedupSurvey measures the empirical speed-up sweep that
// accompanies the 8/3 theorem, and reports the observed mean and max
// speeds for CU-UDP-EDF-VD.
func BenchmarkSpeedupSurvey(b *testing.B) {
	algo := Algorithm{Strategy: mustStrategy("CU-UDP"), Test: EDFVD()}
	b.ReportAllocs()
	var last SpeedupSurvey
	for i := 0; i < b.N; i++ {
		s, err := RunSpeedupSurvey(algo, 4, 40, 1.0, 11)
		if err != nil {
			b.Fatal(err)
		}
		last = s
	}
	b.ReportMetric(last.Mean(), "speed-mean")
	b.ReportMetric(last.Max(), "speed-max")
}

// ---------------------------------------------------------------------------
// Write-ahead journal: admit hot path with journaling on/off, recovery
// ---------------------------------------------------------------------------

// journalAdmit runs admitSingle's cold cycle under a journaling policy:
// off (in-memory), on (page-cache durability), or on with fsync
// (power-loss durability). The delta between the modes is the price of
// the durability guarantee on the hot path.
func journalAdmit(tb testing.TB, journaled, fsync bool, n int) workCounters {
	cfg := DefaultAdmissionConfig()
	cfg.SnapshotEvery = -1 // isolate append cost from snapshot cost
	if journaled {
		cfg.DataDir = tb.TempDir()
		cfg.Fsync = fsync
	}
	ctrl := NewAdmissionController(cfg)
	defer ctrl.Close()
	return admitSingle(tb, ctrl, EDFVD(), false, false, n)
}

func benchJournalAdmit(b *testing.B, journaled, fsync bool) {
	reportCounters(b, journalAdmit(b, journaled, fsync, b.N))
}

// BenchmarkJournalAdmitOff is the in-memory baseline of the journal pair.
func BenchmarkJournalAdmitOff(b *testing.B) { benchJournalAdmit(b, false, false) }

// BenchmarkJournalAdmitOn appends every committed transition to the
// write-ahead journal without fsync (durability to the OS page cache).
func BenchmarkJournalAdmitOn(b *testing.B) { benchJournalAdmit(b, true, false) }

// BenchmarkJournalAdmitOnFsync additionally fsyncs per transition —
// power-loss durability, dominated by the storage stack's flush latency.
func BenchmarkJournalAdmitOnFsync(b *testing.B) { benchJournalAdmit(b, true, true) }

// benchJournalAdmitWriters drives fsync-durable admit+release cycles from
// `writers` concurrent goroutines against one tenant. Each worker cycles its
// own task ID, so every iteration is two journal records (admit, release),
// each demanding durability before the call returns. Concurrent appends
// share segment writes and fsyncs, so ns/op at high writer counts measures
// the coalescing win.
func benchJournalAdmitWriters(b *testing.B, writers int) {
	cfg := DefaultAdmissionConfig()
	cfg.SnapshotEvery = -1
	cfg.DataDir = b.TempDir()
	cfg.Fsync = true
	ctrl := NewAdmissionController(cfg)
	defer ctrl.Close()
	// One core keeps the placement probe (serialized under the tenant
	// lock) trivial, so the number isolates journal flushing: the staging
	// rate, not the analysis, governs how full the shared batches get.
	sys, err := ctrl.CreateSystem("bench", 1, EDFVD())
	if err != nil {
		b.Fatal(err)
	}
	errs := make([]error, writers)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		n := b.N / writers
		if w < b.N%writers {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			task := NewLCTask(w+1, 1, 1_000_000)
			for i := 0; i < n; i++ {
				res, err := sys.Admit(task)
				if err != nil {
					errs[w] = err
					return
				}
				if !res.Admitted {
					errs[w] = fmt.Errorf("writer %d: admit rejected", w)
					return
				}
				if _, err := sys.Release(task.ID); err != nil {
					errs[w] = err
					return
				}
			}
		}(w, n)
	}
	wg.Wait()
	b.StopTimer()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	if js, ok := sys.JournalStats(); ok && js.GroupCommits > 0 {
		b.ReportMetric(float64(js.Records)/float64(js.GroupCommits), "records/flush")
	}
}

// BenchmarkJournalAdmitGroupCommit is the group-commit headline number:
// fsync-durable admit+release throughput at 1, 16 and 64 concurrent
// writers. At one writer every batch has one record; the gain grows with
// writer count as batches fill. The reported records/flush metric is the
// achieved batching factor.
func BenchmarkJournalAdmitGroupCommit(b *testing.B) {
	for _, writers := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("%dw/group", writers), func(b *testing.B) {
			benchJournalAdmitWriters(b, writers)
		})
	}
}

// eventCodecs are the two record encodings: canonical JSON and the
// length-delimited binary framing (magic + version + type + body + CRC-32C).
var eventCodecs = []struct {
	name   string
	encode func(mcsio.EventJSON) ([]byte, error)
}{{"json", mcsio.EncodeEvent}, {"binary", mcsio.EncodeEventBinary}}

// benchAdmitEvent is one representative admit event, the dominant journal
// record kind.
func benchAdmitEvent() mcsio.EventJSON {
	task := mcsio.TaskToJSON(NewHCTask(7, 3, 6, 100))
	return mcsio.EventJSON{Version: 1, Seq: 42, Kind: mcsio.EventAdmit, Task: &task, Core: 3}
}

// BenchmarkJournalEncode compares the two record encodings of the admit
// event; the journal writes binary.
func BenchmarkJournalEncode(b *testing.B) {
	ev := benchAdmitEvent()
	for _, c := range eventCodecs {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.encode(ev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJournalDecode is the replay-side counterpart: strict decode +
// validation of the same admit event from both encodings (auto-detected
// per record, as recovery does).
func BenchmarkJournalDecode(b *testing.B) {
	ev := benchAdmitEvent()
	for _, c := range eventCodecs {
		rec, err := c.encode(ev)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mcsio.DecodeEvent(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// journalBenchTenant populates a journaled 64-core, 1024-task tenant and
// returns its data dir. Light per-task utilization keeps every admit
// accepted, so the journal holds exactly 1+1024 events.
func journalBenchTenant(b *testing.B, snapshot bool) AdmissionConfig {
	b.Helper()
	cfg := DefaultAdmissionConfig()
	cfg.DataDir = b.TempDir()
	cfg.SnapshotEvery = -1
	ctrl := NewAdmissionController(cfg)
	sys, err := ctrl.CreateSystem("big", 64, EDFVD())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1024; i++ {
		t := Ticks(1000 + i%7)
		var task Task
		if i%4 == 0 {
			task = NewHCTask(i, 1, 2, t)
		} else {
			task = NewLCTask(i, 1, t)
		}
		res, err := sys.Admit(task)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Admitted {
			b.Fatalf("bench tenant rejected task %d", i)
		}
	}
	if snapshot {
		if err := ctrl.SnapshotSystem("big"); err != nil {
			b.Fatal(err)
		}
	}
	if err := ctrl.Close(); err != nil {
		b.Fatal(err)
	}
	return cfg
}

// BenchmarkJournalReplay1k measures full-log recovery of the 64-core,
// 1024-task tenant: every admit re-runs the placement (and its analyses)
// to verify the journaled decision.
func BenchmarkJournalReplay1k(b *testing.B) {
	cfg := journalBenchTenant(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl := NewAdmissionController(cfg)
		rs, err := ctrl.Recover()
		if err != nil {
			b.Fatal(err)
		}
		if rs.Tasks != 1024 {
			b.Fatalf("recovered %d tasks", rs.Tasks)
		}
		ctrl.Close()
	}
}

// BenchmarkJournalSnapshotRecover1k measures recovery of the same tenant
// from a snapshot: one cold EDF-VD analysis per non-empty core checks it,
// then the partition restores by direct commit, with no placement. The gap to
// BenchmarkJournalReplay1k is what each snapshot buys.
func BenchmarkJournalSnapshotRecover1k(b *testing.B) {
	cfg := journalBenchTenant(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl := NewAdmissionController(cfg)
		rs, err := ctrl.Recover()
		if err != nil {
			b.Fatal(err)
		}
		if rs.Tasks != 1024 || rs.SnapshotsLoaded != 1 {
			b.Fatalf("recovered %d tasks, %d snapshots", rs.Tasks, rs.SnapshotsLoaded)
		}
		ctrl.Close()
	}
}

// BenchmarkJournalSnapshotWrite1k measures writing one snapshot of the
// 64-core, 1024-task tenant (encode + fsync + rename + truncate).
func BenchmarkJournalSnapshotWrite1k(b *testing.B) {
	cfg := journalBenchTenant(b, false)
	ctrl := NewAdmissionController(cfg)
	if _, err := ctrl.Recover(); err != nil {
		b.Fatal(err)
	}
	defer ctrl.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctrl.SnapshotSystem("big"); err != nil {
			b.Fatal(err)
		}
	}
}

// simBenchPartition builds a deterministic multi-core partition for the
// simulation benches. Periods are drawn from a divisor chain with
// hyperperiod 2000, so the benchmark horizon of exactly one hyperperiod
// exercises every release phase; utilizations stay low enough that the
// runs are miss-free (no witness re-run distorting the number).
func simBenchPartition(cores, perCore int) Partition {
	periods := []Ticks{40, 50, 80, 100, 200, 400, 500, 1000}
	p := Partition{Cores: make([]TaskSet, cores)}
	id := 0
	for k := range p.Cores {
		ts := make(TaskSet, 0, perCore)
		for i := 0; i < perCore; i++ {
			t := periods[(k+i)%len(periods)]
			if i%2 == 0 {
				ts = append(ts, NewHCTask(id, 1, 2, t))
			} else {
				ts = append(ts, NewLCTask(id, 1, t))
			}
			id++
		}
		p.Cores[k] = ts
	}
	return p
}

func benchSimulateSystem(b *testing.B, cores, perCore int) {
	b.Helper()
	p := simBenchPartition(cores, perCore)
	spec := SimSpec{Horizon: 2000, Scenario: SimRandom, Seed: 2017, OverrunProb: 0.1, Jitter: 0.2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SimulateSystem(p, nil, spec)
		if err != nil {
			b.Fatal(err)
		}
		if res.Released == 0 {
			b.Fatal("simulation released no jobs")
		}
	}
}

// BenchmarkSimulateHyperperiodSmall: a 2-core, 10-task tenant over one
// hyperperiod — the interactive what-if shape of the simulate endpoint.
func BenchmarkSimulateHyperperiodSmall(b *testing.B) { benchSimulateSystem(b, 2, 5) }

// BenchmarkSimulateHyperperiod1k: a 64-core, 1024-task tenant over one
// hyperperiod — the full-system scale the daemon serves.
func BenchmarkSimulateHyperperiod1k(b *testing.B) { benchSimulateSystem(b, 64, 16) }

// TestBenchCountersGolden pins the analyzer counters every
// counter-reporting benchmark body produces at a fixed iteration count.
// They count analyzer calls and how each was resolved (filters, memo,
// warm starts, exact runs), so a change that moves one changed what the
// analyses do — a lost warm start, another shaping trajectory — even
// where every verdict differential still passes. A change that moves one
// on purpose re-records the table and says why.
//
// Left out by name: BenchmarkJournalAdmitGroupCommit
// (journal/admit-groupcommit-*) and BenchmarkReplicationStreamBatch64
// (repl/stream-batch64). They report no analyzer counters; their one work
// figure, records per flush, depends on how writers interleave with
// flushes, which is timing.
func TestBenchCountersGolden(t *testing.T) {
	type run struct {
		name string
		n    int
		body func(tb testing.TB, n int) workCounters
	}
	var runs []run
	for _, c := range admitSingleCases {
		runs = append(runs, run{"AdmitSingle/" + c.name, 512, func(tb testing.TB, n int) workCounters {
			ctrl := NewAdmissionController(DefaultAdmissionConfig())
			if c.instrumented {
				ctrl.EnableMetrics(NewMetricsRegistry())
			}
			return admitSingle(tb, ctrl, c.test, c.warm, c.probe, n)
		}})
	}
	for _, c := range admitBatch64Cases {
		runs = append(runs, run{"AdmitBatch64/" + c.name, 40, func(tb testing.TB, n int) workCounters {
			return admitBatch64(tb, c.placement, c.test, n)
		}})
	}
	runs = append(runs, run{"AdmitBatch16FullTenant", 40, admitBatch16FullTenant})
	for _, c := range analysisColdCases {
		runs = append(runs, run{"AnalysisCold/" + c.name, 20, func(tb testing.TB, n int) workCounters {
			return analysisCold(tb, c.test, c.ts, c.want, n)
		}})
	}
	for _, j := range []struct {
		name             string
		journaled, fsync bool
	}{{"JournalAdmitOff", false, false}, {"JournalAdmitOn", true, false}, {"JournalAdmitOnFsync", true, true}} {
		runs = append(runs, run{j.name, 64, func(tb testing.TB, n int) workCounters {
			return journalAdmit(tb, j.journaled, j.fsync, n)
		}})
	}
	// tests_run, fast_accepts, fast_rejects, incremental_hits, exact_runs, warm_starts
	want := map[string]workCounters{
		"AdmitSingle/cold":               {4509, 8, 0, 4501, 0, 4501},
		"AdmitSingle/warm":               {5512, 8, 0, 5504, 0, 5504},
		"AdmitSingle/warm-instrumented":  {5512, 8, 0, 5504, 0, 5504},
		"AdmitSingle/warm-ey":            {4610, 0, 4115, 0, 495, 487},
		"AdmitSingle/warm-ecdf":          {4641, 0, 4183, 0, 458, 450},
		"AdmitSingle/probe-warm":         {5512, 8, 0, 5504, 0, 5504},
		"AdmitBatch64/edfvd-cold":        {4040, 8, 0, 4032, 0, 4032},
		"AdmitBatch64/ey-cold":           {3600, 0, 1040, 0, 2560, 2552},
		"AdmitBatch64/ecdf-cold":         {3600, 0, 1040, 0, 2560, 2552},
		"AdmitBatch64/edf-cold":          {5000, 2560, 2440, 0, 0, 0},
		"AdmitBatch64/amc-cold":          {4000, 3120, 0, 2032, 1968, 15450},
		"AdmitBatch64/edfvd-ff":          {12760, 7, 0, 12753, 0, 12753},
		"AdmitBatch64/edfvd-nf":          {2840, 8, 0, 2832, 0, 2832},
		"AdmitBatch64/edfvd-bf-total":    {12560, 7, 0, 12553, 0, 12553},
		"AdmitBatch64/edfvd-wf-total":    {2560, 8, 0, 2552, 0, 2552},
		"AdmitBatch64/edfvd-prm-ll":      {1520, 8, 0, 1512, 0, 1512},
		"AdmitBatch16FullTenant":         {1048, 0, 356, 202, 490, 684},
		"AnalysisCold/ey-shape-m8":       {20, 0, 0, 0, 20, 0},
		"AnalysisCold/ecdf-exact-reject": {20, 0, 0, 0, 20, 0},
		"JournalAdmitOff":                {1002, 8, 0, 994, 0, 994},
		"JournalAdmitOn":                 {1002, 8, 0, 994, 0, 994},
		"JournalAdmitOnFsync":            {1002, 8, 0, 994, 0, 994},
	}
	for _, r := range runs {
		got := r.body(t, r.n)
		w, ok := want[r.name]
		if !ok {
			t.Errorf("%s: no golden entry; at %d iterations it counts\n\t%q: {%d, %d, %d, %d, %d, %d},", r.name, r.n,
				r.name, got.TestsRun, got.FastAccepts, got.FastRejects, got.IncrementalHits, got.ExactRuns, got.WarmStarts)
			continue
		}
		if got != w {
			t.Errorf("%s at %d iterations: counters %+v, golden %+v", r.name, r.n, got, w)
		}
	}
	if len(want) != len(runs) {
		t.Errorf("golden has %d entries for %d bodies", len(want), len(runs))
	}
}
