// Modeswitch traces the anatomy of a single mode switch tick by tick: one
// HC job overruns its LO budget, the core switches to HI mode, sheds its LC
// jobs, finishes the overrunning work, and recovers to LO mode at the next
// idle instant. The event trace and an ASCII Gantt chart make the runtime
// semantics of Section II of the paper visible.
//
// Run with:
//
//	go run ./examples/modeswitch
package main

import (
	"fmt"
	"log"

	"mcsched"
)

func main() {
	ts := mcsched.TaskSet{
		mcsched.NewHCTask(0, 2, 5, 12), // the overrunner: C^L=2, C^H=5
		mcsched.NewHCTask(1, 2, 3, 15), // a well-behaved HC task
		mcsched.NewLCTask(2, 3, 10),    // LC: shed while in HI mode
	}
	if err := ts.Validate(); err != nil {
		log.Fatal(err)
	}

	res := mcsched.AnalyzeEDFVD(ts)
	if !res.Schedulable {
		log.Fatal("demo set must be EDF-VD schedulable")
	}
	fmt.Printf("EDF-VD accepts the core: x=%.3f (virtual deadlines %v)\n\n",
		res.X, mcsched.VirtualDeadlinesFromX(ts, res.X))

	// Job #2 of τ0 (released at t=24) runs to its full HI budget.
	rec := &mcsched.TraceRecorder{}
	r := mcsched.SimulateCore(ts, mcsched.SimConfig{
		Spec: mcsched.SimSpec{Horizon: 72, Scenario: mcsched.SimSingleOverrun,
			OverrunTask: 0, OverrunJob: 2, ResetOnIdle: true},
		CoreRuntime: mcsched.SimCoreRuntime{Policy: mcsched.PolicyVirtualDeadlineEDF,
			VD: mcsched.VirtualDeadlinesFromX(ts, res.X)},
		Tracer: rec,
	})
	if !r.OK() {
		log.Fatalf("unexpected deadline miss: %v", r.Misses)
	}

	fmt.Println("event trace:")
	for _, e := range rec.Events {
		fmt.Printf("  %v\n", e)
	}

	fmt.Println()
	fmt.Print(rec.Gantt(ts, 0, 72, 72))

	fmt.Printf("\nswitches at %v, resets at %v, %d LC job(s) shed, %d/%d jobs completed\n",
		r.Switches, r.Resets, r.DroppedJobs, r.Completed, r.Released)
	fmt.Println("the switch stayed core-local by construction — other cores of a")
	fmt.Println("partition would show an all-LO mode row (see examples/avionics)")
}
