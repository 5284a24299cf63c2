package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"mcsched/internal/analysis/edfvd"
	"mcsched/internal/mcs"
	"mcsched/internal/taskgen"
)

// strategyNamed resolves a built-in strategy, failing the test when the
// name is unknown.
func strategyNamed(t testing.TB, name string) Strategy {
	t.Helper()
	s, ok := StrategyByName(name)
	if !ok {
		t.Fatalf("no strategy named %q", name)
	}
	return s
}

// utilSet builds a task set from (uL, uH) pairs on T=1000; uL == uH makes
// an LC task. The float utilizations are exact.
func utilSet(pairs ...[2]float64) mcs.TaskSet {
	var ts mcs.TaskSet
	for i, p := range pairs {
		const T = 1000
		cl := mcs.Ticks(p[0]*T) + 1
		ch := mcs.Ticks(p[1]*T) + 1
		var task mcs.Task
		if p[0] == p[1] {
			task = mcs.NewLC(i, cl, T)
		} else {
			task = mcs.NewHC(i, cl, ch, T)
		}
		task.ULo, task.UHi = p[0], p[1]
		ts = append(ts, task)
	}
	return ts
}

// Figure 1 (reconstructed): CA-UDP balances the utilization difference and
// fits the heavy LC task; CA-Wu-F (worst-fit by UHH alone) does not.
// HC: τ1=(.55,.60), τ2=(.15,.50), τ3=(.25,.30); LC: τ4=.70; m=2, EDF-VD.
func fig1Set() mcs.TaskSet {
	return utilSet(
		[2]float64{0.55, 0.60},
		[2]float64{0.15, 0.50},
		[2]float64{0.25, 0.30},
		[2]float64{0.70, 0.70},
	)
}

func TestFig1(t *testing.T) {
	ts := fig1Set()
	test := edfvd.Test{}

	udp, err := CAUDP().Partition(ts, 2, test)
	if err != nil {
		t.Fatalf("CA-UDP failed on Figure 1 set: %v", err)
	}
	// The balanced allocation puts τ1 and τ3 together (diffs .05/.05 vs
	// .35), leaving room for the heavy LC task with τ2.
	if udp.CoreOf(0) != udp.CoreOf(2) {
		t.Errorf("CA-UDP split τ1/τ3: cores %d/%d", udp.CoreOf(0), udp.CoreOf(2))
	}
	if udp.CoreOf(3) != udp.CoreOf(1) {
		t.Errorf("heavy LC τ4 not with τ2: cores %d/%d", udp.CoreOf(3), udp.CoreOf(1))
	}

	if _, err := strategyNamed(t, "CA-Wu-F").Partition(ts, 2, test); !errors.Is(err, ErrUnpartitionable) {
		t.Errorf("CA-Wu-F unexpectedly succeeded on Figure 1 set: %v", err)
	}
}

// Figure 2 (reconstructed): CU-UDP allocates the heavy LC task before the
// HC tasks and succeeds; CA-UDP starves it.
// HC: τ1=(.40,.50), τ2=(.35,.45), τ3=(.05,.30), τ4=(.05,.20); LC: τ5=.60.
func fig2Set() mcs.TaskSet {
	return utilSet(
		[2]float64{0.40, 0.50},
		[2]float64{0.35, 0.45},
		[2]float64{0.05, 0.30},
		[2]float64{0.05, 0.20},
		[2]float64{0.60, 0.60},
	)
}

func TestFig2(t *testing.T) {
	ts := fig2Set()
	test := edfvd.Test{}

	if _, err := CAUDP().Partition(ts, 2, test); !errors.Is(err, ErrUnpartitionable) {
		t.Errorf("CA-UDP unexpectedly succeeded on Figure 2 set: %v", err)
	}
	p, err := CUUDP().Partition(ts, 2, test)
	if err != nil {
		t.Fatalf("CU-UDP failed on Figure 2 set: %v", err)
	}
	if p.NumTasks() != 5 {
		t.Errorf("CU-UDP placed %d tasks, want 5", p.NumTasks())
	}
}

// Every strategy must produce verifiable partitions on random feasible
// workloads, and every task must land on exactly one core.
func TestAllStrategiesVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := taskgen.DefaultConfig(4, 0.5, 0.25, 0.3)
	test := edfvd.Test{}
	for i := 0; i < 40; i++ {
		ts, err := taskgen.Generate(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range Strategies() {
			alg := Algorithm{Strategy: s, Test: test}
			p, err := alg.Partition(ts, 4)
			if err != nil {
				continue // rejection is a legal outcome
			}
			if err := alg.Verify(ts, p); err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
		}
	}
}

// The UDP worst-fit must balance the utilization difference at least as
// well as worst-fit by UHH on HC-only workloads (the design rationale of
// Section III).
func TestUDPBalancesUtilDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	test := edfvd.Test{}
	better, worse := 0, 0
	for i := 0; i < 200; i++ {
		var ts mcs.TaskSet
		n := 4 + rng.Intn(8)
		for j := 0; j < n; j++ {
			uh := 0.1 + rng.Float64()*0.5
			ul := uh * rng.Float64()
			task := mcs.NewHC(j, mcs.Ticks(ul*1000)+1, mcs.Ticks(uh*1000)+1, 1000)
			task.ULo, task.UHi = ul, uh
			ts = append(ts, task)
		}
		pUDP, err1 := CAUDP().Partition(ts, 4, test)
		pWu, err2 := strategyNamed(t, "CA-Wu-F").Partition(ts, 4, test)
		if err1 != nil || err2 != nil {
			continue
		}
		d1, d2 := pUDP.MaxUtilDiff(), pWu.MaxUtilDiff()
		if d1 <= d2+1e-9 {
			better++
		} else {
			worse++
		}
	}
	if better <= worse {
		t.Errorf("UDP balanced worse than Wu: better=%d worse=%d", better, worse)
	}
}

func TestPartitionErrors(t *testing.T) {
	test := edfvd.Test{}
	for _, s := range Strategies() {
		if _, err := s.Partition(utilSet([2]float64{0.5, 0.5}), 0, test); err == nil {
			t.Errorf("%s accepted m=0", s.Name())
		}
		// Overload: total LO utilization 2.4 on 2 cores can never fit.
		over := utilSet(
			[2]float64{0.8, 0.8}, [2]float64{0.8, 0.8}, [2]float64{0.8, 0.8}, [2]float64{0.7, 0.7},
		)
		if _, err := s.Partition(over, 2, test); !errors.Is(err, ErrUnpartitionable) {
			t.Errorf("%s accepted overload: %v", s.Name(), err)
		}
		// Empty set: trivially partitionable.
		if _, err := s.Partition(nil, 2, test); err != nil {
			t.Errorf("%s rejected empty set: %v", s.Name(), err)
		}
	}
}

func TestFailErrorCarriesTask(t *testing.T) {
	over := utilSet([2]float64{0.9, 0.9}, [2]float64{0.9, 0.9}, [2]float64{0.9, 0.9})
	_, err := CUUDP().Partition(over, 2, edfvd.Test{})
	var fe FailError
	if !errors.As(err, &fe) {
		t.Fatalf("error %v is not FailError", err)
	}
	if fe.Task.ULo != 0.9 {
		t.Errorf("failed task = %v", fe.Task)
	}
	if fe.Error() == "" {
		t.Error("empty error message")
	}
}

func TestStrategyNames(t *testing.T) {
	want := []string{"CA-UDP", "CU-UDP", "CA(nosort)-F-F", "CA-F-F", "CA-Wu-F", "ECA-Wu-F", "FFD", "WFD"}
	var got []string
	for _, s := range Strategies() {
		got = append(got, s.Name())
	}
	if !slices.Equal(got, want) {
		t.Errorf("Strategies() names %q, want %q", got, want)
	}
	if CAUDP().Name() != "CA-UDP" || CUUDP().Name() != "CU-UDP" {
		t.Errorf("CAUDP() is %q, CUUDP() is %q", CAUDP().Name(), CUUDP().Name())
	}
	if s, ok := StrategyByName("CU-UDP"); !ok || s.Name() != "CU-UDP" {
		t.Error("StrategyByName(CU-UDP) failed")
	}
	if _, ok := StrategyByName("nope"); ok {
		t.Error("StrategyByName accepted garbage")
	}
}

func TestAlgorithmName(t *testing.T) {
	alg := Algorithm{Strategy: CUUDP(), Test: edfvd.Test{}}
	if alg.Name() != "CU-UDP-EDF-VD" {
		t.Errorf("Name = %q", alg.Name())
	}
}

func TestECAWuFHeavyLCFirst(t *testing.T) {
	// A heavy LC task (u=.7) above every HC u^H (.5,.4) must be placed
	// even though HC-first strategies would starve it.
	ts := utilSet(
		[2]float64{0.25, 0.50},
		[2]float64{0.20, 0.40},
		[2]float64{0.70, 0.70},
		[2]float64{0.30, 0.30}, // light LC
	)
	p, err := strategyNamed(t, "ECA-Wu-F").Partition(ts, 2, edfvd.Test{})
	if err != nil {
		t.Fatalf("ECA-Wu-F failed: %v", err)
	}
	// The heavy LC task must be alone-ish on its core: first-fit put it on
	// core 0 before any HC task.
	if p.CoreOf(2) != 0 {
		t.Errorf("heavy LC task on core %d, want 0", p.CoreOf(2))
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	ts := utilSet([2]float64{0.3, 0.5}, [2]float64{0.2, 0.2})
	alg := Algorithm{Strategy: CUUDP(), Test: edfvd.Test{}}
	p, err := alg.Partition(ts, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Drop a task.
	broken := p.Clone()
	for k := range broken.Cores {
		if len(broken.Cores[k]) > 0 {
			broken.Cores[k] = broken.Cores[k][1:]
			break
		}
	}
	if err := alg.Verify(ts, broken); err == nil {
		t.Error("Verify accepted partition with missing task")
	}
	// Duplicate a task onto another core.
	dup := p.Clone()
	var donor mcs.Task
	for _, c := range dup.Cores {
		if len(c) > 0 {
			donor = c[0]
			break
		}
	}
	for k := range dup.Cores {
		if _, ok := dup.Cores[k].ByID(donor.ID); !ok {
			dup.Cores[k] = append(dup.Cores[k], donor)
			break
		}
	}
	if err := alg.Verify(ts, dup); err == nil {
		t.Error("Verify accepted partition with duplicated task")
	}
	// Every task once, on a core the test fails (u = 1.2).
	full := Partition{Cores: []mcs.TaskSet{{mcs.NewLC(1, 6, 10), mcs.NewLC(2, 6, 10)}, nil}}
	if err := VerifyCores(full, alg.Test); err == nil {
		t.Error("VerifyCores accepted a core EDF-VD fails")
	}
}

// CU-UDP must dominate or match CA-UDP on heavy-LC workloads (the paper's
// stated motivation for CU-UDP).
func TestCUBeatsCAOnHeavyLC(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := taskgen.DefaultConfig(2, 0.5, 0.25, 0.4)
	cfg.PH = 0.7 // few LC tasks ⇒ heavy LC tasks
	test := edfvd.Test{}
	cu, ca := 0, 0
	for i := 0; i < 300; i++ {
		ts, err := taskgen.Generate(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := CUUDP().Partition(ts, 2, test); err == nil {
			cu++
		}
		if _, err := CAUDP().Partition(ts, 2, test); err == nil {
			ca++
		}
	}
	if cu < ca {
		t.Errorf("CU-UDP accepted %d < CA-UDP %d on heavy-LC workload", cu, ca)
	}
	t.Logf("CU-UDP %d, CA-UDP %d of 300", cu, ca)
}

// benchSets are the 32 task sets BenchmarkCUUDPPartition cycles through:
// m = 8, UHH 0.6, ULH 0.3, ULL 0.3, seed 4.
func benchSets(tb testing.TB) []mcs.TaskSet {
	rng := rand.New(rand.NewSource(4))
	cfg := taskgen.DefaultConfig(8, 0.6, 0.3, 0.3)
	sets := make([]mcs.TaskSet, 32)
	for i := range sets {
		ts, err := taskgen.Generate(rng, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		sets[i] = ts
	}
	return sets
}

func BenchmarkCUUDPPartition(b *testing.B) {
	sets := benchSets(b)
	alg := Algorithm{Strategy: CUUDP(), Test: edfvd.Test{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Schedulable(sets[i%len(sets)], 8)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestStrategySchedulableAllocs holds Algorithm.Schedulable under every
// registered test, on BenchmarkCUUDPPartition's sets, to one allocation
// per call for every strategy: the clone its task sequence is sorted in.
// The recycled assigner — its analyzers included, which needs every
// registered test to be a comparable value (sameTest) — the placers' core
// orders and the probes allocate nothing.
func TestStrategySchedulableAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	sets := benchSets(t)
	for _, test := range allTests() {
		for _, s := range Strategies() {
			alg := Algorithm{Strategy: s, Test: test}
			i := 0
			got := testing.AllocsPerRun(10*len(sets), func() {
				alg.Schedulable(sets[i%len(sets)], 8)
				i++
			})
			if got > 1 {
				t.Errorf("%s-%s: %.0f allocs per Schedulable, want at most 1", s.Name(), test.Name(), got)
			}
		}
	}
}
