// Automotive: an AUTOSAR-flavoured implicit-deadline workload (the paper
// cites AUTOSAR as the industrial motivation for partitioned scheduling).
// ASIL-D powertrain and chassis functions are the HC tasks; infotainment
// and comfort functions are LC. The example compares every partitioning
// strategy of the library under EDF-VD on a platform sweep, prints which
// ones fit the suite on the fewest cores, and then stress-tests the UDP
// partition with a long randomized simulation.
//
// Run with:
//
//	go run ./examples/automotive
package main

import (
	"fmt"
	"log"

	"mcsched"
)

func main() {
	// (name, crit, C^L, C^H, T) in 100 µs ticks; deadlines implicit.
	type row struct {
		name   string
		hc     bool
		cl, ch mcsched.Ticks
		t      mcsched.Ticks
	}
	table := []row{
		{"injection-control", true, 6, 15, 50},
		{"abs-brake-control", true, 8, 18, 100},
		{"traction-control", true, 5, 12, 80},
		{"steering-assist", true, 9, 16, 120},
		{"battery-management", true, 4, 11, 200},
		{"adaptive-cruise", true, 10, 22, 150},
		{"lane-keeping", false, 14, 14, 100},
		{"navigation", false, 30, 30, 400},
		{"media-player", false, 25, 25, 250},
		{"voice-assistant", false, 20, 20, 300},
		{"climate-control", false, 12, 12, 200},
		{"telematics", false, 18, 18, 350},
	}
	var ts mcsched.TaskSet
	for i, r := range table {
		var t mcsched.Task
		if r.hc {
			t = mcsched.NewHCTask(i, r.cl, r.ch, r.t)
		} else {
			t = mcsched.NewLCTask(i, r.cl, r.t)
		}
		t.Name = r.name
		ts = append(ts, t)
	}
	if err := ts.Validate(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("automotive suite (implicit deadlines):")
	for _, t := range ts {
		fmt.Printf("  %-20s %v\n", t.Name, t)
	}
	fmt.Printf("totals: ULL=%.3f ULH=%.3f UHH=%.3f\n", ts.ULL(), ts.ULH(), ts.UHH())

	// How many cores does each strategy need under the EDF-VD test?
	fmt.Println("\ncores needed per strategy (EDF-VD test):")
	test := mcsched.EDFVD()
	var best mcsched.Partition
	bestM := -1
	for _, s := range mcsched.Strategies() {
		needed := -1
		for m := 1; m <= 8; m++ {
			if p, err := s.Partition(ts, m, test); err == nil {
				needed = m
				if s.Name() == "CU-UDP" {
					best, bestM = p, m
				}
				break
			}
		}
		if needed < 0 {
			fmt.Printf("  %-16s does not fit on ≤8 cores\n", s.Name())
		} else {
			fmt.Printf("  %-16s fits on %d cores\n", s.Name(), needed)
		}
	}
	if bestM < 0 {
		log.Fatal("CU-UDP could not place the suite")
	}

	fmt.Printf("\nCU-UDP allocation on %d cores:\n", bestM)
	for k, c := range best.Cores {
		fmt.Printf("  core %d (UHH−ULH=%.3f):", k, c.UtilDiff())
		for _, t := range c {
			fmt.Printf(" %s", t.Name)
		}
		fmt.Println()
	}

	// Long randomized stress run: sporadic releases with jitter, 15% of HC
	// jobs overrun their LO budget. Mode switches recover at idle instants.
	fmt.Println("\nrandomized stress simulation (1,000,000 ticks, 15% overruns):")
	totalSwitches, totalDrops := 0, 0
	for k, c := range best.Cores {
		res := mcsched.AnalyzeEDFVD(c)
		x := res.X
		if !res.Schedulable {
			log.Fatalf("core %d fails EDF-VD — partition invariant broken", k)
		}
		r := mcsched.SimulateCore(c, mcsched.SimConfig{
			Spec: mcsched.SimSpec{Horizon: 1000000, Scenario: mcsched.SimRandom,
				Seed: 2024, OverrunProb: 0.15, Jitter: 0.3, ResetOnIdle: true},
			CoreRuntime: mcsched.SimCoreRuntime{Policy: mcsched.PolicyVirtualDeadlineEDF,
				VD: mcsched.VirtualDeadlinesFromX(c, x)},
		})
		fmt.Printf("  core %d: released=%d completed=%d switches=%d resets=%d droppedLC=%d misses=%d\n",
			k, r.Released, r.Completed, len(r.Switches), len(r.Resets), r.DroppedJobs, len(r.Misses))
		if len(r.Misses) > 0 {
			log.Fatalf("required deadline missed on core %d: %v", k, r.Misses[0])
		}
		totalSwitches += len(r.Switches)
		totalDrops += r.DroppedJobs
	}
	fmt.Printf("\n%d mode switches, %d LC jobs shed, zero required deadlines missed\n",
		totalSwitches, totalDrops)
}
