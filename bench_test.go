package mcsched

// This file is the benchmark harness of the reproduction: one benchmark per
// figure of the paper (Figs. 3, 4, 5, 6a, 6b) plus the ablation benches
// called out in DESIGN.md and micro-benchmarks for the individual
// schedulability tests and partitioning strategies.
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

	"mcsched/internal/mcsio"
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
	for _, s := range res.Series {
		if len(s.Points) > 0 {
			unit := fmt.Sprintf("war@PH=0.5/%s,m=%d", s.Name, s.M)
			b.ReportMetric(s.Points[len(s.Points)/2].WAR, unit)
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
			M: m, PH: 0.5, SetsPerUB: benchSets, Seed: 99,
			UBMin: 0.5, UBMax: 0.99, Algorithms: algos,
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
		{Strategy: CAWuF(), Test: t},
		{Strategy: CAFF(), Test: t},
	})
}

// BenchmarkAblationSort isolates decreasing-utilization sorting:
// CA-F-F (sorted) versus CA(nosort)-F-F under EDF-VD.
func BenchmarkAblationSort(b *testing.B) {
	t := EDFVD()
	ablationSweep(b, 4, []Algorithm{
		{Strategy: CAFF(), Test: t},
		{Strategy: CANoSortFF(), Test: t},
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
			M: 4, PH: 0.9, SetsPerUB: benchSets, Seed: 7,
			UBMin: 0.5, UBMax: 0.99, Algorithms: algos,
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
		{Strategy: mustStrategy("CU-UDP"), Test: audsley, Label: "CU-UDP-AMC-audsley"},
		{Strategy: mustStrategy("CU-UDP"), Test: dm, Label: "CU-UDP-AMC-dm"},
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
		Horizon:  100000,
		Policy:   PolicyVirtualDeadlineEDF,
		Scenario: ScenarioRandom(5, 0.2, 0.5),
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
func admitTasks(b *testing.B, n int) TaskSet {
	b.Helper()
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

// benchAdmitSingle measures one admit+release cycle against a loaded
// tenant. warm runs the measured cycle once before the timer starts, so the
// per-core analyzers have seen every candidate set already; cold starts the
// timer on the freshly loaded tenant.
func benchAdmitSingle(b *testing.B, warm bool) {
	ctrl := NewAdmissionController(DefaultAdmissionConfig())
	sys, err := ctrl.CreateSystem("bench", 8, EDFVD())
	if err != nil {
		b.Fatal(err)
	}
	stream := admitTasks(b, 256)
	// Pre-load half the stream so admits land on non-trivial cores.
	for _, t := range stream[:128] {
		if _, err := sys.Admit(t); err != nil {
			b.Fatal(err)
		}
	}
	cycle := func(task Task) {
		res, err := sys.Admit(task)
		if err != nil {
			b.Fatal(err)
		}
		if res.Admitted {
			if _, err := sys.Release(task.ID); err != nil {
				b.Fatal(err)
			}
		}
	}
	if warm {
		for _, task := range stream[128:] {
			cycle(task)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(stream[128+i%128])
	}
}

// BenchmarkAdmitSingleCold measures the admit hot path from a freshly loaded
// tenant.
func BenchmarkAdmitSingleCold(b *testing.B) { benchAdmitSingle(b, false) }

// BenchmarkAdmitSingleWarm measures the same hot path with the analyzers'
// memoized state in place — the steady state of service traffic.
func BenchmarkAdmitSingleWarm(b *testing.B) { benchAdmitSingle(b, true) }

// BenchmarkAdmitBatch64 measures an all-or-nothing 64-task batch admit
// (plus the release that resets the tenant between iterations) under a
// cheap closed-form test and an iterative one.
func BenchmarkAdmitBatch64(b *testing.B) {
	for _, test := range []Test{EDFVD(), AMC()} {
		b.Run(test.Name(), func(b *testing.B) {
			ctrl := NewAdmissionController(DefaultAdmissionConfig())
			sys, err := ctrl.CreateSystem("bench", 8, test)
			if err != nil {
				b.Fatal(err)
			}
			batch := admitTasks(b, 64)
			ids := make([]int, len(batch))
			for i, t := range batch {
				ids[i] = t.ID
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sys.AdmitBatch(batch)
				if err != nil {
					b.Fatal(err)
				}
				if res.Admitted {
					if _, err := sys.Release(ids...); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Task-set-level parallelism of the experiment sweeps
// ---------------------------------------------------------------------------

// benchSweep runs one reduced acceptance-ratio sweep (the paper's Fig. 3
// shape) with the given task-set parallelism.
func benchSweep(b *testing.B, workers int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := RunExperiment(ExperimentConfig{
			M: 4, PH: 0.5, SetsPerUB: benchSets, Seed: 2017,
			UBMin: 0.5, UBMax: 0.99, Workers: workers,
			Algorithms: []Algorithm{{Strategy: mustStrategy("CU-UDP"), Test: EDFVD()}},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSerial measures the acceptance-ratio sweep on one worker.
func BenchmarkSweepSerial(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepParallel measures the same sweep fanned over GOMAXPROCS
// workers; curves are identical to serial.
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 0) }

// BenchmarkPartitionAMC measures one full offline partitioning run of
// CU-UDP-AMC on 8 cores — the offline counterpart of the admit-path
// benchmarks.
func BenchmarkPartitionAMC(b *testing.B) {
	ts := benchSet(b, 8, true)
	strategy, test := mustStrategy("CU-UDP"), AMC()
	b.ReportAllocs()
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

// benchJournalAdmit measures the admit+release cycle of benchAdmitSingle
// under a journaling policy: off (in-memory), on (page-cache durability),
// or on with fsync (power-loss durability). The delta between the modes is
// the price of the durability guarantee on the hot path.
func benchJournalAdmit(b *testing.B, journaled, fsync bool) {
	cfg := DefaultAdmissionConfig()
	cfg.SnapshotEvery = -1 // isolate append cost from snapshot cost
	if journaled {
		cfg.DataDir = b.TempDir()
		cfg.Fsync = fsync
	}
	ctrl := NewAdmissionController(cfg)
	defer ctrl.Close()
	sys, err := ctrl.CreateSystem("bench", 8, EDFVD())
	if err != nil {
		b.Fatal(err)
	}
	stream := admitTasks(b, 256)
	for _, t := range stream[:128] {
		if _, err := sys.Admit(t); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task := stream[128+i%128]
		res, err := sys.Admit(task)
		if err != nil {
			b.Fatal(err)
		}
		if res.Admitted {
			if _, err := sys.Release(task.ID); err != nil {
				b.Fatal(err)
			}
		}
	}
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

// benchEventEncode measures encoding one representative admit event (the
// dominant journal record kind) under the given codec.
func benchEventEncode(b *testing.B, codec mcsio.Codec) {
	task := mcsio.TaskToJSON(NewHCTask(7, 3, 6, 100))
	ev := mcsio.EventJSON{Version: 1, Seq: 42, Kind: mcsio.EventAdmit, Task: &task, Core: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.EncodeEvent(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalEncode compares the two record encodings on the admit
// hot path: canonical JSON versus the length-delimited binary framing
// (magic + version + type + body + CRC-32C).
func BenchmarkJournalEncode(b *testing.B) {
	b.Run("json", func(b *testing.B) { benchEventEncode(b, mcsio.CodecJSON) })
	b.Run("binary", func(b *testing.B) { benchEventEncode(b, mcsio.CodecBinary) })
}

// BenchmarkJournalDecode is the replay-side counterpart: strict decode +
// validation of the same admit event from both encodings (auto-detected
// per record, as recovery does).
func BenchmarkJournalDecode(b *testing.B) {
	task := mcsio.TaskToJSON(NewHCTask(7, 3, 6, 100))
	ev := mcsio.EventJSON{Version: 1, Seq: 42, Kind: mcsio.EventAdmit, Task: &task, Core: 3}
	for _, codec := range []mcsio.Codec{mcsio.CodecJSON, mcsio.CodecBinary} {
		rec, err := codec.EncodeEvent(ev)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(codec), func(b *testing.B) {
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
// from a snapshot: the partition restores by direct commit, no analyses.
// The gap to BenchmarkJournalReplay1k is what each snapshot buys.
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
