package amc

import (
	"math/rand"
	"testing"

	"mcsched/internal/mcs"
	"mcsched/internal/oracle"
	"mcsched/internal/taskgen"
)

func TestSingleTask(t *testing.T) {
	for _, v := range []Variant{RTB, Max} {
		if !Analyze(mcs.TaskSet{mcs.NewHC(0, 1, 4, 4)}, Options{Variant: v}).Schedulable {
			t.Errorf("%v rejected single tight HC task", v)
		}
		if !Analyze(mcs.TaskSet{mcs.NewLC(0, 4, 4)}, Options{Variant: v}).Schedulable {
			t.Errorf("%v rejected single tight LC task", v)
		}
	}
}

func TestKnownResponseTimes(t *testing.T) {
	// Classic RTA example: τ1 (C=1, T=D=4) high prio, τ2 (C=2, T=D=8):
	// R2^LO = 2 + ⌈R/4⌉·1 → R = 3.
	hi := mcs.NewLC(0, 1, 4)
	lo := mcs.NewLC(1, 2, 8)
	r, ok := responseLOSeed(lo, mcs.TaskSet{hi}, lo.CLo())
	if !ok || r != 3 {
		t.Errorf("R^LO = %d, %v, want 3", r, ok)
	}
	// Infeasible: C=5 with D=4 interference makes R exceed D.
	bad := mcs.NewLC(2, 7, 8)
	if _, ok := responseLOSeed(bad, mcs.TaskSet{hi}, bad.CLo()); ok {
		t.Error("overloaded response accepted")
	}
}

func TestModeSwitchInterference(t *testing.T) {
	// HC τ0 (C^L=1, C^H=2, T=D=10) with a higher-priority LC τ1
	// (C=2, T=D=5) and HC τ2 (C^L=1, C^H=3, T=D=10) highest.
	// Under AMC the LC task stops interfering after the switch; both
	// variants must accept.
	ts := mcs.TaskSet{
		mcs.NewHC(0, 1, 2, 10),
		mcs.NewLC(1, 2, 5),
		mcs.NewHC(2, 1, 3, 10),
	}
	for _, v := range []Variant{RTB, Max} {
		if !Analyze(ts, Options{Variant: v}).Schedulable {
			t.Errorf("%v rejected feasible AMC set", v)
		}
	}
}

func TestRejectOverload(t *testing.T) {
	ts := mcs.TaskSet{
		mcs.NewHC(0, 4, 8, 10),
		mcs.NewHC(1, 4, 8, 10),
	}
	for _, v := range []Variant{RTB, Max} {
		for _, p := range []PriorityPolicy{Audsley, DeadlineMonotonic} {
			if Analyze(ts, Options{Variant: v, Policy: p}).Schedulable {
				t.Errorf("%v/%v accepted HI-overloaded set", v, p)
			}
		}
	}
}

// AMC-max dominates AMC-rtb (Baruah/Burns/Davis): anything rtb accepts,
// max accepts.
func TestMaxDominatesRTB(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rtbAcc, maxAcc := 0, 0
	for i := 0; i < 500; i++ {
		ts := randomSet(rng, 2+rng.Intn(5))
		rtb := oracle.AMC(ts, oracle.AMCOptions{}).Schedulable
		mx := oracle.AMC(ts, oracle.AMCOptions{Max: true}).Schedulable
		if rtb {
			rtbAcc++
			if !mx {
				t.Fatalf("rtb accepted, max rejected: %v", ts)
			}
		}
		if mx {
			maxAcc++
		}
	}
	if maxAcc <= rtbAcc {
		t.Logf("warning: max %d vs rtb %d — dominance strict nowhere in sample", maxAcc, rtbAcc)
	}
	t.Logf("rtb %d, max %d of 500", rtbAcc, maxAcc)
}

// Audsley dominates deadline-monotonic for OPA-compatible tests.
func TestAudsleyDominatesDM(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dmAcc, audAcc := 0, 0
	for i := 0; i < 400; i++ {
		ts := randomSet(rng, 2+rng.Intn(5))
		dm := oracle.AMC(ts, oracle.AMCOptions{DeadlineMonotonic: true}).Schedulable
		aud := oracle.AMC(ts, oracle.AMCOptions{}).Schedulable
		if dm {
			dmAcc++
			if !aud {
				t.Fatalf("DM accepted, Audsley rejected: %v", ts)
			}
		}
		if aud {
			audAcc++
		}
	}
	t.Logf("DM %d, Audsley %d of 400", dmAcc, audAcc)
}

func randomSet(rng *rand.Rand, n int) mcs.TaskSet {
	var ts mcs.TaskSet
	for i := 0; i < n; i++ {
		T := mcs.Ticks(5 + rng.Intn(60))
		if rng.Intn(2) == 0 {
			c := mcs.Ticks(1 + rng.Intn(int(T)/4+1))
			d := c + mcs.Ticks(rng.Intn(int(T-c)+1))
			ts = append(ts, mcs.NewLCConstrained(i, c, T, d))
		} else {
			ch := mcs.Ticks(1 + rng.Intn(int(T)/3+1))
			cl := mcs.Ticks(1 + rng.Intn(int(ch)))
			d := ch + mcs.Ticks(rng.Intn(int(T-ch)+1))
			ts = append(ts, mcs.NewHCConstrained(i, cl, ch, T, d))
		}
	}
	return ts
}

// Priorities returned on acceptance must be a permutation of levels and
// re-checking the explicit order must agree.
func TestPriorityConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	checked := 0
	for i := 0; i < 300; i++ {
		ts := randomSet(rng, 2+rng.Intn(5))
		r := Analyze(ts, DefaultOptions())
		if !r.Schedulable {
			continue
		}
		checked++
		if len(r.Priority) != len(ts) {
			t.Fatalf("priority map size %d != %d", len(r.Priority), len(ts))
		}
		seen := make(map[int]bool)
		order := make([]int, len(ts))
		for id, p := range r.Priority {
			if p < 0 || p >= len(ts) || seen[p] {
				t.Fatalf("bad priority %d for task %d", p, id)
			}
			seen[p] = true
			order[p] = id
		}
		if !oracle.FeasibleOrder(ts, order, true) {
			t.Fatalf("returned order fails re-check: %v / %v", ts, order)
		}
		checked++
	}
	if checked == 0 {
		t.Error("no accepted sets to check")
	}
}

// Degenerate MC (C^L = C^H): AMC must reduce to plain fixed-priority RTA —
// the mode switch changes nothing, so LO acceptance decides.
func TestDegenerateReducesToRTA(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		var ts mcs.TaskSet
		n := 2 + rng.Intn(4)
		for j := 0; j < n; j++ {
			T := mcs.Ticks(5 + rng.Intn(40))
			c := mcs.Ticks(1 + rng.Intn(int(T)/3+1))
			if rng.Intn(2) == 0 {
				ts = append(ts, mcs.NewLC(j, c, T))
			} else {
				ts = append(ts, mcs.NewHC(j, c, c, T))
			}
		}
		rtb := Analyze(ts, Options{Variant: RTB}).Schedulable
		mx := Analyze(ts, Options{Variant: Max}).Schedulable
		if rtb != mx {
			t.Fatalf("degenerate set: rtb=%v max=%v: %v", rtb, mx, ts)
		}
	}
}

func TestSwitchCandidates(t *testing.T) {
	hp := mcs.TaskSet{mcs.NewLC(0, 1, 5), mcs.NewHC(1, 1, 2, 7)}
	got := oracle.SwitchCandidates(hp, 12)
	want := []mcs.Ticks{0, 5, 10}
	if len(got) != len(want) {
		t.Fatalf("candidates = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidates = %v, want %v", got, want)
		}
	}
}

func TestHiJobs(t *testing.T) {
	k := mcs.NewHCConstrained(0, 1, 2, 10, 8)
	// M(k, s, t) = min(⌈(t−s−(T−D))/T⌉+1, ⌈t/T⌉), T−D = 2.
	if got := hiJobs(k, 0, 1); got != 1 {
		t.Errorf("hiJobs(0,1) = %d, want 1", got)
	}
	if got := hiJobs(k, 5, 30); got != 3 {
		// (30−5−2)/10 = 2.3 → ⌈⌉=3 → +1=4? No: ⌈23/10⌉=3, +1 = 4 — capped
		// by caller with ⌈t/T⌉=3; raw value here is 4.
		if got != 4 {
			t.Errorf("hiJobs(5,30) = %d, want 4 raw", got)
		}
	}
	if got := hiJobs(k, 20, 10); got != 0 {
		t.Errorf("hiJobs past window = %d, want 0", got)
	}
}

func TestEmptySet(t *testing.T) {
	if !(Test{Opts: DefaultOptions()}).Schedulable(nil) {
		t.Error("empty set rejected")
	}
}

func TestVariantNames(t *testing.T) {
	if RTB.String() != "AMC-rtb" || Max.String() != "AMC-max" {
		t.Errorf("names = %q, %q", RTB.String(), Max.String())
	}
	if (Test{Opts: Options{Variant: Max}}).Name() != "AMC-max" {
		t.Error("adapter name mismatch")
	}
}

func TestGeneratedLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := taskgen.DefaultConfig(1, 0.3, 0.15, 0.2)
	for i := 0; i < 50; i++ {
		ts, err := taskgen.Generate(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !(Test{Opts: DefaultOptions()}).Schedulable(ts) {
			// Fixed-priority cannot guarantee all light loads, but 0.3/0.2
			// should essentially always pass; tolerate nothing here to
			// catch regressions, revisit if the generator changes.
			t.Errorf("light-load set rejected: %v", ts)
		}
	}
}

func BenchmarkAnalyzeMax(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	cfg := taskgen.DefaultConfig(1, 0.6, 0.3, 0.3)
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
		Analyze(sets[i%len(sets)], DefaultOptions())
	}
}

// TestDeadlineMonotonicPriorities: ordering by deadline, HC-first ties,
// ID as the final tiebreak.
func TestDeadlineMonotonicPriorities(t *testing.T) {
	ts := mcs.TaskSet{
		mcs.NewLC(10, 1, 30),                  // D=30
		mcs.NewHCConstrained(11, 1, 2, 30, 8), // D=8
		mcs.NewLC(12, 1, 8),                   // D=8, LC loses the tie
		mcs.NewLC(13, 1, 5),                   // D=5, tightest
	}
	p := DeadlineMonotonicPriorities(ts)
	if p[13] != 0 || p[11] != 1 || p[12] != 2 || p[10] != 3 {
		t.Fatalf("unexpected priority order: %v", p)
	}
}
