package mcsched

import (
	"math/rand"
	"testing"
)

// TestAcceptedPartitionsNeverMissEDFVD is the library's central soundness
// property: any partition accepted by the EDF-VD analysis must be miss-free
// in simulation under the LO-steady, HI-storm and randomized scenarios.
// This exercises the whole chain generator → partitioner → analysis →
// virtual-deadline runtime.
func TestAcceptedPartitionsNeverMissEDFVD(t *testing.T) {
	if testing.Short() {
		t.Skip("long soundness sweep")
	}
	algo := Algorithm{Strategy: mustStrategy("CU-UDP"), Test: EDFVD()}
	checked := 0
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultGenConfig(2, 0.3+0.05*float64(seed%8), 0.2, 0.3)
		ts, err := Generate(rng, cfg)
		if err != nil {
			continue
		}
		p, err := algo.Partition(ts, 2)
		if err != nil {
			continue
		}
		checked++
		miss, err := ValidatePartitionBySimulation(p, "EDF-VD", 50000, seed)
		if err != nil {
			t.Fatal(err)
		}
		if miss != nil {
			t.Fatalf("seed %d: accepted partition missed: %v\nset: %v", seed, *miss, ts)
		}
	}
	if checked < 30 {
		t.Fatalf("only %d accepted partitions exercised; sweep too weak", checked)
	}
}

// TestAcceptedPartitionsNeverMissAMC is the fixed-priority counterpart: the
// simulator runs with the exact priorities Audsley's algorithm certified.
func TestAcceptedPartitionsNeverMissAMC(t *testing.T) {
	if testing.Short() {
		t.Skip("long soundness sweep")
	}
	algo := Algorithm{Strategy: mustStrategy("CU-UDP"), Test: AMC()}
	checked := 0
	for seed := int64(200); seed < 280; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultGenConfig(2, 0.3+0.05*float64(seed%6), 0.15, 0.25)
		cfg.Constrained = seed%2 == 0
		ts, err := Generate(rng, cfg)
		if err != nil {
			continue
		}
		p, err := algo.Partition(ts, 2)
		if err != nil {
			continue
		}
		checked++
		miss, err := ValidatePartitionBySimulation(p, "AMC-max", 50000, seed)
		if err != nil {
			t.Fatal(err)
		}
		if miss != nil {
			t.Fatalf("seed %d: accepted partition missed: %v\nset: %v", seed, *miss, ts)
		}
	}
	if checked < 20 {
		t.Fatalf("only %d accepted partitions exercised; sweep too weak", checked)
	}
}

// TestAcceptedPartitionsNeverMissECDF validates the LO-mode half of the
// demand-bound chain: an ECDF-accepted core meets every deadline under EDF
// on its true deadlines while no job overruns.
func TestAcceptedPartitionsNeverMissECDF(t *testing.T) {
	if testing.Short() {
		t.Skip("long soundness sweep")
	}
	algo := Algorithm{Strategy: mustStrategy("CA-UDP"), Test: ECDF()}
	checked := 0
	for seed := int64(400); seed < 460; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultGenConfig(2, 0.35, 0.2, 0.25)
		cfg.Constrained = true
		ts, err := Generate(rng, cfg)
		if err != nil {
			continue
		}
		p, err := algo.Partition(ts, 2)
		if err != nil {
			continue
		}
		checked++
		// Each core runs with no virtual-deadline map, so EDF on true
		// deadlines, in LO-steady runs: no mode switch happens, and LO-mode
		// EDF on true deadlines must suffice for any dbf-accepted core. The
		// checks with ECDF's own virtual deadlines, in both modes, are
		// TestECDFCertifiedDeadlinesSurviveSimulation in
		// internal/analysis/crosstest and, through RuntimeForCore,
		// FuzzAdmittedNeverMisses.
		for _, ts := range p.Cores {
			if len(ts) == 0 {
				continue
			}
			res := SimulateCore(ts, SimConfig{
				Spec:        SimSpec{Horizon: 50000, Scenario: SimLoSteady},
				CoreRuntime: SimCoreRuntime{Policy: PolicyVirtualDeadlineEDF},
			})
			if !res.OK() {
				t.Fatalf("seed %d: ECDF-accepted core missed in LO steady state: %v", seed, res.Misses)
			}
		}
	}
	if checked < 15 {
		t.Fatalf("only %d accepted partitions exercised; sweep too weak", checked)
	}
}
