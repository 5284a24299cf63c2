package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"mcsched/internal/analysis/edfvd"
	"mcsched/internal/mcs"
	"mcsched/internal/oracle"
	"mcsched/internal/taskgen"
)

// acceptAll is a test stub that admits any assignment, isolating the pure
// load-balancing behaviour of the strategies.
type acceptAll struct{}

func (acceptAll) Name() string                 { return "accept-all" }
func (acceptAll) Schedulable(mcs.TaskSet) bool { return true }

// rejectAll admits nothing.
type rejectAll struct{}

func (rejectAll) Name() string                 { return "reject-all" }
func (rejectAll) Schedulable(mcs.TaskSet) bool { return false }

// hcSet builds an all-HC task set from (uLo, uHi) percent pairs encoded as
// uint8s, giving testing/quick a tractable input space. Periods are fixed;
// utilizations land in (0, 1].
type hcSpec struct {
	Pairs [7][2]uint8
	M     uint8
}

func (s hcSpec) taskSet() mcs.TaskSet {
	var ts mcs.TaskSet
	for i, p := range s.Pairs {
		lo := int64(p[0]%100) + 1 // 1..100
		hi := lo + int64(p[1]%uint8(101-lo))
		const T = 1000
		ts = append(ts, mcs.NewHC(i, mcs.Ticks(lo*10), mcs.Ticks(hi*10), T))
	}
	return ts
}

func (s hcSpec) m() int { return int(s.M%4) + 1 }

// TestWorstFitBalanceBound is the classic greedy-balancing guarantee, which
// carries over to CA-UDP's worst-fit on the utilization difference when the
// schedulability test never rejects: after allocation, the spread between
// the most and least loaded core (in util-diff) is at most the largest
// single-task difference.
func TestWorstFitBalanceBound(t *testing.T) {
	prop := func(spec hcSpec) bool {
		ts := spec.taskSet()
		m := spec.m()
		p, err := CAUDP().Partition(ts, m, acceptAll{})
		if err != nil {
			return false
		}
		var maxDiff, minDiff, maxTask float64
		minDiff = 1e18
		for _, c := range p.Cores {
			d := c.UtilDiff()
			if d > maxDiff {
				maxDiff = d
			}
			if d < minDiff {
				minDiff = d
			}
		}
		for _, task := range ts {
			if d := task.UtilDiff(); d > maxTask {
				maxTask = d
			}
		}
		return maxDiff-minDiff <= maxTask+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestAllStrategiesPlaceEverythingUnderAcceptAll: with no schedulability
// constraint, every strategy must place every task (bin capacity is not
// modelled by the strategies themselves).
func TestAllStrategiesPlaceEverythingUnderAcceptAll(t *testing.T) {
	prop := func(spec hcSpec) bool {
		ts := spec.taskSet()
		m := spec.m()
		for _, s := range Strategies() {
			p, err := s.Partition(ts, m, acceptAll{})
			if err != nil || p.NumTasks() != len(ts) {
				return false
			}
			if len(p.Cores) != m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRejectAllFailsOnFirstTask: with a test that rejects everything, every
// strategy fails and reports the first task of its allocation order.
func TestRejectAllFailsOnFirstTask(t *testing.T) {
	ts := mcs.TaskSet{mcs.NewHC(0, 10, 20, 100), mcs.NewLC(1, 10, 100)}
	for _, s := range Strategies() {
		_, err := s.Partition(ts, 2, rejectAll{})
		if !errors.Is(err, ErrUnpartitionable) {
			t.Errorf("%s: error %v does not wrap ErrUnpartitionable", s.Name(), err)
		}
		var fe FailError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error %v is not a FailError", s.Name(), err)
		}
	}
}

// TestSingleCoreEquivalence: on m=1 every strategy reduces to the bare
// uniprocessor test — acceptance iff the whole set passes.
func TestSingleCoreEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 40; i++ {
		uhh := 0.2 + 0.7*rng.Float64()
		cfg := taskgen.DefaultConfig(1, uhh, uhh/2, 0.3)
		ts, err := taskgen.Generate(rng, cfg)
		if err != nil {
			continue
		}
		want := oracle.EDFVD(ts).Schedulable
		for _, s := range Strategies() {
			_, err := s.Partition(ts, 1, edfvd.Test{})
			if got := err == nil; got != want {
				t.Fatalf("%s on m=1: accepted=%v, uniprocessor test says %v\n%v",
					s.Name(), got, want, ts)
			}
		}
	}
}

// TestMoreCoresNeverHurtUDP: enlarging the platform cannot turn a UDP
// success into a failure (worst-fit keys only spread further; first-fit LC
// placement has strictly more candidates). This is the monotonicity that
// underlies the paper's scalability claim.
func TestMoreCoresNeverHurtUDP(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for i := 0; i < 30; i++ {
		cfg := taskgen.DefaultConfig(2, 0.5, 0.3, 0.3)
		ts, err := taskgen.Generate(rng, cfg)
		if err != nil {
			continue
		}
		for _, s := range []Strategy{CAUDP(), CUUDP()} {
			_, err2 := s.Partition(ts, 2, edfvd.Test{})
			if err2 != nil {
				continue
			}
			if _, err4 := s.Partition(ts, 4, edfvd.Test{}); err4 != nil {
				t.Fatalf("%s: schedulable on 2 cores but not on 4\n%v", s.Name(), ts)
			}
		}
	}
}

// TestPartitionCoreOfAndClone covers the Partition helpers.
func TestPartitionCoreOfAndClone(t *testing.T) {
	ts := mcs.TaskSet{mcs.NewHC(7, 10, 20, 100), mcs.NewLC(9, 30, 100)}
	p, err := CUUDP().Partition(ts, 2, acceptAll{})
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range ts {
		k := p.CoreOf(task.ID)
		if k < 0 {
			t.Fatalf("task %d not found", task.ID)
		}
		if _, ok := p.Cores[k].ByID(task.ID); !ok {
			t.Fatalf("CoreOf inconsistent for task %d", task.ID)
		}
	}
	if p.CoreOf(12345) != -1 {
		t.Fatal("CoreOf invented a task")
	}
	cl := p.Clone()
	cl.Cores[0] = nil
	if p.Cores[0] == nil {
		t.Fatal("Clone aliases the original")
	}
}
