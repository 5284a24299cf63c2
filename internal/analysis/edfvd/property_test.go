package edfvd

import (
	"testing"
	"testing/quick"

	"mcsched/internal/mcs"
)

// specSet decodes a compact quick-generated spec into a task set with one
// LC block and up to five HC tasks on a common period.
type specSet struct {
	LCUtil uint8
	HC     [5][2]uint8
}

func (s specSet) taskSet() mcs.TaskSet {
	const T = 10000
	ts := mcs.TaskSet{}
	if lc := int64(s.LCUtil%95) + 1; lc > 0 { // u^L in (0, 0.96]
		ts = append(ts, mcs.NewLC(0, mcs.Ticks(lc*T/100), T))
	}
	for i, p := range s.HC {
		lo := int64(p[0]%50) + 1 // ≤ 0.51
		hi := lo + int64(p[1]%50)
		ts = append(ts, mcs.NewHC(i+1, mcs.Ticks(lo*T/100), mcs.Ticks(hi*T/100), T))
	}
	return ts
}

// TestInPaperFormEquivalenceQuick: the x-factor formulation used by Analyze
// and the in-paper inequality a ≤ (1−c)/(1−(c−b)) accept exactly the same
// systems (whenever the virtual-deadline branch is the deciding one).
func TestInPaperFormEquivalenceQuick(t *testing.T) {
	prop := func(spec specSet) bool {
		ts := spec.taskSet()
		a, b, c := ts.ULL(), ts.ULH(), ts.UHH()
		res := Analyze(ts)

		plain := a+c <= 1+1e-12
		inPaper := false
		if den := 1 - (c - b); den > 0 && a+b <= 1+1e-12 && c <= 1+1e-12 {
			inPaper = a <= (1-c)/den+1e-9
		}
		want := plain || inPaper
		return res.Schedulable == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestXValidQuick: whenever the test accepts, the scaling factor is usable:
// x ∈ (0, 1], the LO-mode density a + b/x ≤ 1 and the HI-mode bound
// x·a + c ≤ 1 both hold.
func TestXValidQuick(t *testing.T) {
	prop := func(spec specSet) bool {
		ts := spec.taskSet()
		res := Analyze(ts)
		if !res.Schedulable {
			return true
		}
		if res.X <= 0 || res.X > 1 {
			return false
		}
		a, b, c := ts.ULL(), ts.ULH(), ts.UHH()
		if res.PlainEDF {
			return a+c <= 1+1e-9
		}
		return a+b/res.X <= 1+1e-9 && res.X*a+c <= 1+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestSpeedupBoundWitness: the utilization bound behind EDF-VD's 4/3
// speed-up guarantee — max(a+b, c) ≤ 3/4 implies acceptance. (Proof sketch:
// if a+c > 1 the x-branch needs x·a + c ≤ 1 with x = b/(1−a) ≤ (3/4−a)/(1−a);
// substituting c ≤ 3/4 reduces the requirement to (2a−1)² ≥ 0.) This is the
// property that gives the partitioned algorithms their 8/3 bound via
// Theorem 9 of Baruah et al. (RTS 2014).
func TestSpeedupBoundWitness(t *testing.T) {
	prop := func(spec specSet) bool {
		ts := spec.taskSet()
		a, b, c := ts.ULL(), ts.ULH(), ts.UHH()
		if a+b > 0.75 || c > 0.75 {
			return true // outside the bound's premise
		}
		return Schedulable(ts)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestMonotoneInLoad: adding a task never turns an unschedulable set
// schedulable (the test is monotone in every utilization).
func TestMonotoneInLoad(t *testing.T) {
	prop := func(spec specSet, extra uint8) bool {
		ts := spec.taskSet()
		before := Schedulable(ts)
		grown := ts.Clone()
		u := int64(extra%40) + 1
		grown = append(grown, mcs.NewLC(99, mcs.Ticks(u*100), 10000))
		after := Schedulable(grown)
		// after ⇒ before (contrapositive of monotonicity).
		return !after || before
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
