// Quickstart: build a small dual-criticality task system by hand, partition
// it onto two cores with the paper's CU-UDP strategy under the EDF-VD test,
// inspect the allocation, and validate it in the runtime simulator.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"mcsched"
)

func main() {
	// A task is (period, criticality, C^L, C^H, deadline). Budgets are in
	// integer ticks; deadlines here are implicit (D = T).
	ts := mcsched.TaskSet{
		mcsched.NewHCTask(0, 20, 60, 100), // flight-critical: uL=0.20 uH=0.60
		mcsched.NewHCTask(1, 30, 40, 100), // flight-critical: uL=0.30 uH=0.40
		mcsched.NewHCTask(2, 10, 30, 100), // flight-critical: uL=0.10 uH=0.30
		mcsched.NewLCTask(3, 45, 100),     // best-effort:     uL=0.45
		mcsched.NewLCTask(4, 30, 150),     // best-effort:     uL=0.20
	}
	if err := ts.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("task system:")
	for _, t := range ts {
		fmt.Printf("  %v\n", t)
	}

	// An Algorithm is a partitioning strategy × a uniprocessor MC test.
	// Strategies are resolved by registry name (see mcsched.Strategies).
	cuudp, ok := mcsched.StrategyByName("CU-UDP")
	if !ok {
		log.Fatal("CU-UDP missing from the strategy registry")
	}
	algo := mcsched.Algorithm{Strategy: cuudp, Test: mcsched.EDFVD()}
	const m = 2
	p, err := algo.Partition(ts, m)
	if err != nil {
		fmt.Printf("\n%s cannot schedule this system on %d cores: %v\n", algo.Name(), m, err)
		os.Exit(1)
	}

	fmt.Printf("\n%s partitioned the system onto %d cores:\n", algo.Name(), m)
	for k, c := range p.Cores {
		fmt.Printf("  core %d: ULL=%.2f ULH=%.2f UHH=%.2f (util-diff %.2f)\n",
			k, c.ULL(), c.ULH(), c.UHH(), c.UtilDiff())
		for _, t := range c {
			fmt.Printf("    %v\n", t)
		}
		// EDF-VD exposes the virtual-deadline scaling factor per core.
		res := mcsched.AnalyzeEDFVD(c)
		fmt.Printf("    EDF-VD: x=%.3f plainEDF=%v\n", res.X, res.PlainEDF)
	}
	fmt.Printf("  max per-core utilization difference: %.3f\n", p.MaxUtilDiff())

	// Cross-check the analytical acceptance with the discrete-event
	// runtime: LO-steady, HI-storm and randomized scenarios must all be
	// free of required-deadline misses.
	miss, err := mcsched.ValidatePartitionBySimulation(p, algo.Test.Name(), 100000, 1)
	if err != nil {
		log.Fatal(err)
	}
	if miss != nil {
		log.Fatalf("simulation found a deadline miss: %v", miss)
	}
	fmt.Println("\nsimulation (LO-steady + HI-storm + random): no required deadline missed")
}
