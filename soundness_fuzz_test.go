package mcsched

// FuzzAdmittedNeverMisses is the fuzzed form of the library's central
// soundness property: a partition ADMITTED by any analysis family must be
// SCHEDULABLE at runtime — the system-level simulator, executing the exact
// runtime configuration the analysis certified (virtual deadlines for the
// EDF family, fixed priorities for AMC), must never observe a HI-criticality
// deadline miss, under any behaviour the sporadic dual-criticality model
// allows. The fuzzer drives the generator with arbitrary (seed, family,
// load, constrained) tuples; each accepted partition is then attacked with
// an adversarial scenario battery: steady LO load, a HI storm (earliest
// possible switches, with and without idle resets), randomized demand and
// release jitter, and — the sharpest probes — single- and minimal-overrun
// scenarios sweeping the mode-switch instant across every HC job in the
// window, including the criticality-at-boundary demand C^L+1. The family
// byte indexes TestNames(), so every registered test is attacked; a test
// that does not cover the drawn set's deadline model must refuse it with an
// UncoveredError instead of partitioning it.
//
// A failure is minimized greedily (drop tasks while the reduced partition
// stays analysis-accepted and still misses) and reported as a reproducible
// f.Add seed line plus the minimized task set, scenario and first miss.
//
// Under plain `go test` the seed corpus below — mirroring the fixed sweeps
// in soundness_test.go — runs as a regression suite; under `go test
// -fuzz=FuzzAdmittedNeverMisses` the tuple space is explored.

import (
	"errors"
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

// acceptedByTest reports whether every non-empty core of the partition
// still passes the family's uniprocessor test.
func acceptedByTest(test Test, p Partition) bool {
	for _, ts := range p.Cores {
		if len(ts) > 0 && !test.Schedulable(ts) {
			return false
		}
	}
	return true
}

// minimizeCounterexample greedily drops tasks from a missing partition
// while it remains analysis-accepted and still misses under the spec. The
// result is a (usually much smaller) witness of the same soundness
// violation.
func minimizeCounterexample(test Test, p Partition, spec SimSpec) Partition {
	for changed := true; changed; {
		changed = false
		for k := range p.Cores {
			for i := range p.Cores[k] {
				q := p.Clone()
				q.Cores[k] = append(q.Cores[k][:i], q.Cores[k][i+1:]...)
				if !acceptedByTest(test, q) {
					continue
				}
				res, err := SimulateAdmitted(test.Name(), q, spec)
				if err == nil && !res.OK() {
					p, changed = q, true
					break
				}
			}
			if changed {
				break
			}
		}
	}
	return p
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
	// Constrained sets under the implicit-only tests: refused, never
	// partitioned (an admitted partition of either misses in simulation).
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

		// Admission: partition the set under the family's test. A rejection
		// says nothing about soundness.
		strategy := mustStrategy("CU-UDP")
		if constrained {
			strategy = mustStrategy("CA-UDP")
		}
		p, err := Algorithm{Strategy: strategy, Test: test}.Partition(ts, 2)
		covered := true
		for _, task := range ts {
			covered = covered && Covers(test, task)
		}
		if !covered {
			var uerr UncoveredError
			if !errors.As(err, &uerr) || uerr.Test != name || Covers(test, uerr.Task) {
				t.Fatalf("%s: set it does not cover gave err=%v, want an UncoveredError naming an uncovered task\n"+
					"reproduce: f.Add(int64(%d), uint8(%d), uint8(%d), %t)", name, err, seed, fam, load, constrained)
			}
			return
		}
		if err != nil {
			return
		}

		// The oracle: every adversarial scenario must run miss-free under
		// the certified runtime configuration.
		for _, spec := range adversarialSpecs(p, seed) {
			res, err := SimulateAdmitted(name, p, spec)
			if err != nil {
				t.Fatalf("%s: simulate %+v: %v", name, spec, err)
			}
			if res.OK() {
				continue
			}
			min := minimizeCounterexample(test, p, spec)
			mres, _ := SimulateAdmitted(name, min, spec)
			w := mres.Witness
			if w == nil { // minimization raced the witness away; re-run full
				mres = res
				min = p
				w = res.Witness
			}
			t.Fatalf("SOUNDNESS VIOLATION: %s-admitted partition misses a deadline\n"+
				"reproduce: f.Add(int64(%d), uint8(%d), uint8(%d), %t)\n"+
				"scenario: %+v\nminimized partition: %v\nfirst miss: %+v\nwitness:\n%s",
				name, seed, fam, load, constrained, spec, min.Cores, w.Miss, w.Gantt)
		}
	})
}
