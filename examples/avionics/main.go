// Avionics: a DO-178-flavoured, constrained-deadline workload scheduled
// with fixed priorities — the configuration the paper highlights as novel
// (no earlier partitioned MC work used a fixed-priority scheme like AMC).
//
// The task table mixes DAL-A flight functions (HC) with DAL-C/D telemetry
// and maintenance functions (LC). Deadlines are tighter than periods, as is
// common for control loops with end-to-end latency budgets. The example
//
//  1. partitions the suite onto 2 cores with CU-UDP under the AMC-max test,
//  2. shows the certified Audsley priority order per core,
//  3. simulates a sensor-fusion overrun and shows that LC tasks are dropped
//     only on the overrunning core — the partitioned-isolation property of
//     Section II of the paper.
//
// Run with:
//
//	go run ./examples/avionics
package main

import (
	"fmt"
	"log"
	"sort"

	"mcsched"
)

func main() {
	// (id, name, crit, C^L, C^H, T, D) — milliseconds as ticks.
	type row struct {
		id     int
		name   string
		hc     bool
		cl, ch mcsched.Ticks
		t, d   mcsched.Ticks
	}
	table := []row{
		{0, "flight-control-law", true, 4, 9, 25, 20},
		{1, "sensor-fusion", true, 6, 14, 50, 40},
		{2, "air-data-computer", true, 3, 7, 40, 30},
		{3, "engine-monitor", true, 5, 10, 100, 80},
		{4, "actuator-feedback", true, 2, 5, 25, 22},
		{5, "telemetry-downlink", false, 8, 8, 100, 100},
		{6, "cockpit-display", false, 7, 7, 80, 80},
		{7, "maintenance-log", false, 10, 10, 200, 200},
		{8, "cabin-services", false, 12, 12, 150, 150},
	}

	var ts mcsched.TaskSet
	for _, r := range table {
		var t mcsched.Task
		if r.hc {
			t = mcsched.NewHCTaskD(r.id, r.cl, r.ch, r.t, r.d)
		} else {
			t = mcsched.NewLCTaskD(r.id, r.cl, r.t, r.d)
		}
		t.Name = r.name
		ts = append(ts, t)
	}
	if err := ts.Validate(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("avionics suite (constrained deadlines):")
	for _, t := range ts {
		fmt.Printf("  %-20s %v\n", t.Name, t)
	}
	fmt.Printf("totals: ULL=%.3f ULH=%.3f UHH=%.3f\n\n", ts.ULL(), ts.ULH(), ts.UHH())

	cuudp, ok := mcsched.StrategyByName("CU-UDP")
	if !ok {
		log.Fatal("CU-UDP missing from the strategy registry")
	}
	algo := mcsched.Algorithm{Strategy: cuudp, Test: mcsched.AMC()}
	const m = 2
	p, err := algo.Partition(ts, m)
	if err != nil {
		log.Fatalf("%s failed on %d cores: %v", algo.Name(), m, err)
	}

	fmt.Printf("%s allocation:\n", algo.Name())
	for k, c := range p.Cores {
		fmt.Printf("  core %d (UHH−ULH=%.3f):\n", k, c.UtilDiff())
		res := mcsched.AnalyzeAMC(c)
		if !res.Schedulable {
			log.Fatalf("core %d no longer passes AMC — partition invariant broken", k)
		}
		// Print tasks in certified priority order (0 = highest).
		byPrio := append(mcsched.TaskSet{}, c...)
		sort.Slice(byPrio, func(i, j int) bool {
			return res.Priority[byPrio[i].ID] < res.Priority[byPrio[j].ID]
		})
		for _, t := range byPrio {
			fmt.Printf("    prio %d: %-20s (%s, D=%d)\n", res.Priority[t.ID], t.Name, t.Crit, t.Deadline)
		}
	}

	// Simulate a single sensor-fusion overrun. Only the core hosting
	// sensor-fusion may switch modes and drop LC jobs.
	fusionCore := p.CoreOf(1)
	fmt.Printf("\nsimulating one sensor-fusion overrun (task 1 on core %d):\n", fusionCore)
	for k, c := range p.Cores {
		res := mcsched.AnalyzeAMC(c)
		r := mcsched.SimulateCore(c, mcsched.SimConfig{
			Spec: mcsched.SimSpec{Horizon: 20000, Scenario: mcsched.SimSingleOverrun,
				OverrunTask: 1, OverrunJob: 3, ResetOnIdle: true},
			CoreRuntime: mcsched.SimCoreRuntime{Policy: mcsched.PolicyFixedPriority,
				Priorities: res.Priority},
		})
		fmt.Printf("  core %d: switches=%d droppedLCjobs=%d misses=%d resets=%d\n",
			k, len(r.Switches), r.DroppedJobs, len(r.Misses), len(r.Resets))
		if len(r.Misses) > 0 {
			log.Fatalf("core %d missed a required deadline: %v", k, r.Misses[0])
		}
		if k != fusionCore && len(r.Switches) > 0 {
			log.Fatalf("isolation violated: core %d mode-switched without hosting the overrun", k)
		}
	}
	fmt.Println("\nisolation holds: the overrun affected only its own core, and no HC deadline was missed")
}
