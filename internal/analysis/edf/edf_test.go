package edf

import (
	"math/rand"
	"testing"

	"mcsched/internal/mcs"
	"mcsched/internal/oracle"
)

func TestUtilization(t *testing.T) {
	ts := mcs.TaskSet{mcs.NewLC(0, 5, 10), mcs.NewHC(1, 2, 5, 10)}
	if !oracle.EDFUtil(ts, mcs.LO) { // 0.5 + 0.2 = 0.7
		t.Error("LO view rejected")
	}
	if !oracle.EDFUtil(ts, mcs.HI) { // 0.5 + 0.5 = 1.0
		t.Error("HI view rejected at exactly 1")
	}
	ts = append(ts, mcs.NewLC(2, 1, 10))
	if oracle.EDFUtil(ts, mcs.HI) { // 1.1
		t.Error("overloaded HI view accepted")
	}
}

func TestDemandImplicitMatchesUtilization(t *testing.T) {
	// For implicit deadlines the demand criterion and ΣU ≤ 1 coincide.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		var ts mcs.TaskSet
		n := 1 + rng.Intn(5)
		for j := 0; j < n; j++ {
			T := mcs.Ticks(4 + rng.Intn(40))
			c := mcs.Ticks(1 + rng.Intn(int(T)))
			ts = append(ts, mcs.NewLC(j, c, T))
		}
		u := oracle.EDFUtil(ts, mcs.LO)
		d := oracle.EDFDemand(ts, mcs.LO)
		if u != d {
			t.Fatalf("util=%v demand=%v for %v", u, d, ts)
		}
	}
}

func TestDemandConstrained(t *testing.T) {
	// D < T tightens the test: (C=2, D=2, T=4) twice is infeasible even
	// though U = 1 ≤ 1... actually U=1 with D=2: demand(2)=4 > 2.
	ts := mcs.TaskSet{
		mcs.NewLCConstrained(0, 2, 4, 2),
		mcs.NewLCConstrained(1, 2, 4, 2),
	}
	if oracle.EDFDemand(ts, mcs.LO) {
		t.Error("accepted two tasks demanding 4 units by time 2")
	}
	// One of them alone is fine.
	if !oracle.EDFDemand(ts[:1], mcs.LO) {
		t.Error("rejected single constrained task")
	}
}

func TestAdapter(t *testing.T) {
	ts := mcs.TaskSet{mcs.NewHC(0, 2, 5, 10), mcs.NewLC(1, 5, 10)}
	util := Test{}
	if util.Name() != "EDF-util" || !util.Schedulable(ts) {
		t.Errorf("util adapter: name=%q sched=%v", util.Name(), util.Schedulable(ts))
	}
	dem := Test{Demand: true}
	if dem.Name() != "EDF-demand" || !dem.Schedulable(ts) {
		t.Errorf("demand adapter: name=%q sched=%v", dem.Name(), dem.Schedulable(ts))
	}
	// Worst-case reservation: HC at C^H. Adding 0.1 breaks it.
	ts = append(ts, mcs.NewLC(2, 1, 10))
	if util.Schedulable(ts) {
		t.Error("util adapter accepted reservation overload")
	}
}
