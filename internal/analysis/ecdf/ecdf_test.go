package ecdf

import (
	"math/rand"
	"testing"

	"mcsched/internal/mcs"
	"mcsched/internal/oracle"
	"mcsched/internal/taskgen"
)

func TestBasicAcceptReject(t *testing.T) {
	if !(Test{}).Schedulable(mcs.TaskSet{mcs.NewHC(0, 1, 2, 4)}) {
		t.Error("single HC task rejected")
	}
	if (Test{}).Schedulable(mcs.TaskSet{mcs.NewHC(0, 2, 3, 4), mcs.NewHC(1, 1, 2, 4)}) {
		t.Error("HI-overloaded set accepted")
	}
	if !(Test{}).Schedulable(nil) {
		t.Error("empty set rejected")
	}
}

// The headline relationship the paper relies on: ECDF dominates EY per set
// (EY is "identical … but relatively less efficient"). Our construction
// guarantees it: pass 1 of ECDF is exactly the EY test.
func TestDominatesEY(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	eyAcc, ecdfAcc := 0, 0
	for i := 0; i < 400; i++ {
		ts := randomSet(rng, 1+rng.Intn(6))
		e := oracle.EY(ts, 0).Schedulable
		c := oracle.ECDF(ts, 0, nil).Schedulable
		if e {
			eyAcc++
			if !c {
				t.Fatalf("EY accepted but ECDF rejected: %v", ts)
			}
		}
		if c {
			ecdfAcc++
		}
	}
	if ecdfAcc < eyAcc {
		t.Fatalf("ECDF accepted %d < EY %d", ecdfAcc, eyAcc)
	}
	t.Logf("EY %d, ECDF %d of 400", eyAcc, ecdfAcc)
}

func randomSet(rng *rand.Rand, n int) mcs.TaskSet {
	var ts mcs.TaskSet
	for i := 0; i < n; i++ {
		T := mcs.Ticks(5 + rng.Intn(50))
		if rng.Intn(2) == 0 {
			c := mcs.Ticks(1 + rng.Intn(int(T)/3+1))
			ts = append(ts, mcs.NewLC(i, c, T))
		} else {
			ch := mcs.Ticks(1 + rng.Intn(int(T)/2+1))
			cl := mcs.Ticks(1 + rng.Intn(int(ch)))
			d := ch + mcs.Ticks(rng.Intn(int(T-ch)+1))
			ts = append(ts, mcs.NewHCConstrained(i, cl, ch, T, d))
		}
	}
	return ts
}

// Accepted assignments must satisfy both QPA tests.
func TestResultSelfConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	restartWins := 0
	for i := 0; i < 400; i++ {
		ts := randomSet(rng, 2+rng.Intn(5))
		r := Analyze(ts)
		if !r.Schedulable {
			continue
		}
		if oracle.ECDF(ts, 0, nil).Restarts > 0 {
			restartWins++
		}
		if !oracle.LOFeasible(ts, r.VD) {
			t.Fatalf("accepted assignment fails LO test: %v / %v", ts, r.VD)
		}
		if _, ok := oracle.HIFeasible(ts, r.VD); !ok {
			t.Fatalf("accepted assignment fails HI test: %v / %v", ts, r.VD)
		}
	}
	t.Logf("restart pass decided %d sets", restartWins)
}

// The scale-factor restarts must find sets the plain EY greedy misses at
// least occasionally on constrained-deadline workloads — otherwise ECDF
// degenerates to EY and the reconstruction note in the package comment is wrong.
func TestRestartsAddValue(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := taskgen.DefaultConfig(1, 0.7, 0.35, 0.3)
	cfg.Constrained = true
	extra := 0
	for i := 0; i < 300; i++ {
		ts, err := taskgen.Generate(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !oracle.EY(ts, 0).Schedulable && oracle.ECDF(ts, 0, nil).Schedulable {
			extra++
		}
	}
	if extra == 0 {
		t.Error("ECDF never beat EY on 300 constrained sets — search adds no value")
	}
	t.Logf("ECDF rescued %d/300 sets EY rejected", extra)
}

func TestLOInfeasibleShortCircuit(t *testing.T) {
	// ΣC^L/T > 1: no assignment can help; must reject quickly.
	ts := mcs.TaskSet{mcs.NewHC(0, 3, 3, 4), mcs.NewHC(1, 2, 2, 4)}
	r := oracle.ECDF(ts, 0, nil)
	if r.Schedulable {
		t.Error("LO-overloaded set accepted")
	}
	if r.Restarts != 0 {
		t.Errorf("restarts attempted on LO-infeasible set: %d", r.Restarts)
	}
}

func TestTestAdapter(t *testing.T) {
	var tst Test
	if tst.Name() != "ECDF" {
		t.Errorf("Name = %q", tst.Name())
	}
	if !tst.Schedulable(mcs.TaskSet{mcs.NewHC(0, 1, 2, 10)}) {
		t.Error("adapter rejected trivial set")
	}
}

func BenchmarkAnalyze(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	cfg := taskgen.DefaultConfig(1, 0.7, 0.35, 0.25)
	cfg.Constrained = true
	sets := make([]mcs.TaskSet, 32)
	for i := range sets {
		ts, err := taskgen.Generate(rng, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sets[i] = ts
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analyze(sets[i%len(sets)])
	}
}
