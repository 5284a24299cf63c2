package mcsched

// FuzzAdmittedNeverMisses is the fuzzed form of the library's central
// soundness property: a partition ADMITTED by any analysis family must be
// SCHEDULABLE at runtime — the system-level simulator, executing the exact
// runtime configuration the analysis certified (virtual deadlines for the
// EDF family, fixed priorities for AMC), must never observe a HI-criticality
// deadline miss, under any behaviour the sporadic dual-criticality model
// allows. The fuzzer drives the generator with arbitrary (seed, family,
// load, constrained) tuples and plays the drawn set against a live 2-core
// tenant: each step admits the next task or, about one step in three,
// releases a random resident one. After every release and at the end, the
// tenant's partition is attacked with an adversarial scenario battery under
// the runtime its last accepts certified: steady LO load, a HI storm
// (earliest possible switches, with and without idle resets), randomized
// demand and release jitter, and — the sharpest probes — single- and
// minimal-overrun scenarios sweeping the mode-switch instant across every
// HC job in the window, including the criticality-at-boundary demand
// C^L+1. The family byte indexes TestNames(), so every registered test is
// attacked; a test that does not cover a task's deadline model must refuse
// it with an UncoveredError instead of placing it.
//
// A failure is reported as a reproducible f.Add seed line plus the steps
// played, the partition, scenario and first miss.
//
// Under plain `go test` the seed corpus below — mirroring the fixed sweeps
// in soundness_test.go — runs as a regression suite; under `go test
// -fuzz=FuzzAdmittedNeverMisses` the tuple space is explored.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

const (
	fuzzHorizon Ticks = 10000
	// maxSwitchJobs bounds the per-task sweep of overrun positions; each
	// position puts the mode-switch instant at a different point of the
	// window.
	maxSwitchJobs = 6
)

// adversarialSpecs builds the scenario battery for one partition.
func adversarialSpecs(p Partition, seed int64) []SimSpec {
	specs := []SimSpec{
		{Horizon: fuzzHorizon, Scenario: SimLoSteady},
		{Horizon: fuzzHorizon, Scenario: SimHiStorm},
		{Horizon: fuzzHorizon, Scenario: SimHiStorm, ResetOnIdle: true},
	}
	for i := int64(0); i < 3; i++ {
		specs = append(specs, SimSpec{
			Horizon:     fuzzHorizon,
			Scenario:    SimRandom,
			Seed:        seed*31 + i,
			OverrunProb: 0.2 + 0.3*float64(i),
			Jitter:      0.5 * float64(i),
		})
	}
	// Sweep the mode-switch instant: overrun each HC task at each of its
	// first maxSwitchJobs jobs, both to the full HI budget and to the
	// minimal C^L+1 boundary demand.
	for _, ts := range p.Cores {
		for _, task := range ts {
			if !task.IsHC() || task.CHi() == task.CLo() {
				continue
			}
			jobs := int(fuzzHorizon / task.Period)
			if jobs > maxSwitchJobs {
				jobs = maxSwitchJobs
			}
			for j := 0; j <= jobs; j++ {
				specs = append(specs,
					SimSpec{Horizon: fuzzHorizon, Scenario: SimSingleOverrun, OverrunTask: task.ID, OverrunJob: j},
					SimSpec{Horizon: fuzzHorizon, Scenario: SimMinimalOverrun, OverrunTask: task.ID, OverrunJob: j},
				)
			}
		}
	}
	return specs
}

func FuzzAdmittedNeverMisses(f *testing.F) {
	// Seed corpus mirroring the fixed sweeps of soundness_test.go, plus EY
	// and AMC-rtb coverage those sweeps lack.
	for seed := int64(0); seed < 120; seed += 16 {
		f.Add(seed, uint8(0), uint8(seed%8), false) // EDF-VD
	}
	for seed := int64(200); seed < 280; seed += 16 {
		f.Add(seed, uint8(3), uint8(seed%6), seed%2 == 0) // AMC-max
		f.Add(seed, uint8(4), uint8(seed%6), seed%2 == 1) // AMC-rtb
	}
	for seed := int64(400); seed < 460; seed += 12 {
		f.Add(seed, uint8(1), uint8(1), true)  // ECDF
		f.Add(seed, uint8(2), uint8(2), false) // EY
	}
	// Constrained sets under the implicit-only tests: each constrained task
	// is refused, never placed (an admitted one could miss in simulation).
	f.Add(int64(1), uint8(0), uint8(0), true) // EDF-VD
	f.Add(int64(1), uint8(6), uint8(1), true) // EDF-util

	names := TestNames()
	f.Fuzz(func(t *testing.T, seed int64, fam uint8, load uint8, constrained bool) {
		name := names[int(fam)%len(names)]
		test, ok := TestByName(name)
		if !ok {
			t.Fatalf("unknown family %q", name)
		}
		cfg := DefaultGenConfig(2, 0.3+0.05*float64(load%8), 0.15+0.02*float64(load%4), 0.25)
		cfg.Constrained = constrained
		ts, err := Generate(rand.New(rand.NewSource(seed)), cfg)
		if err != nil {
			return // infeasible generator draw: nothing to admit
		}

		sys, err := NewAdmissionController(AdmissionConfig{}).CreateSystem("fuzz", 2, test)
		if err != nil {
			t.Fatal(err)
		}
		reproduce := fmt.Sprintf("reproduce: f.Add(int64(%d), uint8(%d), uint8(%d), %t)", seed, fam, load, constrained)
		var steps []string
		// attack runs the battery on the tenant as it stands.
		attack := func() {
			p := sys.Snapshot()
			for _, spec := range adversarialSpecs(p, seed) {
				out, err := sys.Simulate(spec)
				if err != nil {
					t.Fatalf("%s: simulate %+v: %v", name, spec, err)
				}
				if res := out.Result; !res.OK() {
					t.Fatalf("SOUNDNESS VIOLATION: %s-admitted partition misses a deadline\n%s\n"+
						"steps: %v\nscenario: %+v\npartition: %v\nwitness: %+v",
						name, reproduce, steps, spec, p.Cores, res.Witness)
				}
			}
		}
		rng := rand.New(rand.NewSource(seed))
		var resident []int
		for next := 0; next < len(ts); {
			if len(resident) > 0 && rng.Intn(3) == 0 {
				j := rng.Intn(len(resident))
				if _, err := sys.Release(resident[j]); err != nil {
					t.Fatal(err)
				}
				steps = append(steps, fmt.Sprintf("release %d", resident[j]))
				resident = append(resident[:j], resident[j+1:]...)
				attack()
				continue
			}
			task := ts[next]
			next++
			r, err := sys.Admit(task)
			if !Covers(test, task) {
				var uerr UncoveredError
				if !errors.As(err, &uerr) || uerr.Test != name || uerr.Task.ID != task.ID {
					t.Fatalf("%s: admitting task %d it does not cover gave err=%v, want an UncoveredError naming it\n%s",
						name, task.ID, err, reproduce)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: admit %d: %v", name, task.ID, err)
			}
			if r.Admitted {
				steps = append(steps, fmt.Sprintf("admit %d", task.ID))
				resident = append(resident, task.ID)
			}
		}
		attack()
	})
}
