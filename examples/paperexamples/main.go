// Paperexamples walks through the two motivating examples of Section III of
// Ramanathan & Easwaran (DATE 2017).
//
// Figure 1 — why balance the utilization *difference*: a criticality-aware
// strategy that worst-fits HC tasks by raw HI utilization (CA-Wu-F) strands
// a heavy LC task, while CA-UDP, which worst-fits by UHH(core) − ULH(core),
// leaves one core with enough LO-mode capacity.
//
// Figure 2 — why criticality-unaware ordering helps: CA-UDP allocates every
// HC task before any LC task and so can strand a *heavy* LC task; CU-UDP
// merges the orderings and places the heavy LC task early.
//
// Run with:
//
//	go run ./examples/paperexamples
package main

import (
	"errors"
	"fmt"

	"mcsched"
)

// utilTask builds a task with the given LO/HI utilizations on a period of
// 1000 ticks (matching the utilization-only presentation of the paper's
// figures; equal utilizations make an LC task).
func utilTask(id int, uLo, uHi float64) mcsched.Task {
	const T = 1000
	cl := mcsched.Ticks(uLo*T + 0.5)
	ch := mcsched.Ticks(uHi*T + 0.5)
	if uLo == uHi {
		return mcsched.NewLCTask(id, cl, T)
	}
	return mcsched.NewHCTask(id, cl, ch, T)
}

func describe(name string, p mcsched.Partition, err error) {
	if err != nil {
		var fe interface{ Error() string }
		_ = errors.As(err, &fe)
		fmt.Printf("  %-10s FAILS   (%v)\n", name, err)
		return
	}
	fmt.Printf("  %-10s succeeds:\n", name)
	for k, c := range p.Cores {
		fmt.Printf("    core %d:", k)
		for _, t := range c {
			kind := "LC"
			if t.IsHC() {
				kind = "HC"
			}
			fmt.Printf("  τ%d[%s u=(%.2f,%.2f)]", t.ID+1, kind, t.ULo, t.UHi)
		}
		fmt.Printf("   UHH−ULH=%.2f, LC-capacity left %.2f\n", c.UtilDiff(), edfvdLCRoom(c))
	}
}

// strategy resolves a named strategy from the registry; the names used in
// this example are fixed, so a miss is a programming error.
func strategy(name string) mcsched.Strategy {
	s, ok := mcsched.StrategyByName(name)
	if !ok {
		panic("unknown strategy " + name)
	}
	return s
}

// edfvdLCRoom reports how much more LC utilization the core could take
// under the EDF-VD test — the quantity the Figure 1 discussion is about.
func edfvdLCRoom(c mcsched.TaskSet) float64 {
	lo, hi := 0.0, 1.0
	for i := 0; i < 30; i++ {
		mid := (lo + hi) / 2
		probe := c.Clone()
		probe = append(probe, mcsched.NewLCTask(999, mcsched.Ticks(mid*1000+1), 1000))
		if mcsched.EDFVD().Schedulable(probe) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

func main() {
	test := mcsched.EDFVD()
	const m = 2

	fmt.Println("=== Figure 1: CA-UDP vs CA-Wu-F (worst-fit key matters) ===")
	fig1 := mcsched.TaskSet{
		utilTask(0, 0.55, 0.60), // τ1: tiny utilization difference
		utilTask(1, 0.15, 0.50), // τ2: large difference
		utilTask(2, 0.25, 0.30), // τ3: small difference
		utilTask(3, 0.70, 0.70), // τ4: heavy LC task
	}
	for _, t := range fig1 {
		fmt.Printf("  τ%d: u^L=%.2f u^H=%.2f (%s)\n", t.ID+1, t.ULo, t.UHi, t.Crit)
	}
	fmt.Println()
	for _, s := range []mcsched.Strategy{strategy("CA-Wu-F"), strategy("CA-UDP")} {
		p, err := s.Partition(fig1, m, test)
		describe(s.Name(), p, err)
	}
	fmt.Println(`
  CA-Wu-F packs τ1 alone (largest u^H) and τ2+τ3 together, leaving both
  cores with too little LO-mode capacity for τ4. CA-UDP balances the
  utilization difference instead — τ1+τ3 on one core, τ2 on the other —
  and τ4 fits next to τ2.`)

	fmt.Println("\n=== Figure 2: CA-UDP vs CU-UDP (allocation order matters) ===")
	fig2 := mcsched.TaskSet{
		utilTask(0, 0.40, 0.50), // τ1
		utilTask(1, 0.35, 0.45), // τ2
		utilTask(2, 0.05, 0.30), // τ3
		utilTask(3, 0.05, 0.20), // τ4
		utilTask(4, 0.60, 0.60), // τ5: heavy LC task
	}
	for _, t := range fig2 {
		fmt.Printf("  τ%d: u^L=%.2f u^H=%.2f (%s)\n", t.ID+1, t.ULo, t.UHi, t.Crit)
	}
	fmt.Println()
	for _, s := range []mcsched.Strategy{strategy("CA-UDP"), strategy("CU-UDP")} {
		p, err := s.Partition(fig2, m, test)
		describe(s.Name(), p, err)
	}
	fmt.Println(`
  CA-UDP must place all four HC tasks first; the balanced split (τ1+τ3,
  τ2+τ4) leaves no core able to absorb τ5's 0.60 LO utilization. CU-UDP
  sorts all tasks together, so τ5 is placed right after τ1 and τ2, and the
  light HC tasks τ3 and τ4 fill the gaps afterwards.`)
}
