package sim

import (
	"fmt"
	"math"
	"math/rand"

	"mcsched/internal/mcs"
)

// Scenario kinds accepted by Spec.Scenario. The zero kind, "", runs like
// lo-steady but is not a valid spec kind: Validate refuses it.
const (
	// SpecLoSteady: every job completes at exactly C^L, strictly periodic
	// releases — no mode switch ever occurs.
	SpecLoSteady = "lo-steady"
	// SpecHiStorm: every job runs to its full HI budget — each core
	// switches as early as possible and stays saturated. This is the worst
	// documented stress for the HI-mode analyses.
	SpecHiStorm = "hi-storm"
	// SpecRandom: per-job demands and release jitter drawn deterministically
	// from (Seed, task, job); HC jobs overrun with probability OverrunProb
	// (uniform in (C^L, C^H]), otherwise execute uniform in [1, C^L];
	// release gaps stretch uniformly in [T, T·(1+Jitter)].
	SpecRandom = "random"
	// SpecSingleOverrun: job OverrunJob of task OverrunTask runs to C^H,
	// everything else behaves like lo-steady — isolates one mode switch.
	SpecSingleOverrun = "single-overrun"
	// SpecMinimalOverrun: like single-overrun but the chosen job exceeds
	// its LO budget by exactly one tick (C^L+1) — the switch fires at the
	// last possible instant of that job, the criticality-at-boundary case.
	// If the chosen task is LC or has C^H = C^L, the engine clamps the
	// demand back to C^L and no switch occurs.
	SpecMinimalOverrun = "minimal-overrun"
)

// SpecKinds lists every accepted Spec.Scenario value in a stable order.
func SpecKinds() []string {
	return []string{SpecLoSteady, SpecHiStorm, SpecRandom, SpecSingleOverrun, SpecMinimalOverrun}
}

// Spec is a declarative simulation scenario: everything a run depends on
// besides the partition and its runtime configuration. It is a pure value —
// two runs of the same partition under the same spec are bit-identical —
// and, embedded in mcsio.SimScenarioJSON, the payload of the daemon's
// /simulate endpoint; its JSON tags are that wire format.
type Spec struct {
	// Horizon is the simulated duration in ticks; must be positive.
	Horizon mcs.Ticks `json:"horizon"`
	// Scenario selects the job-behaviour model (one of the Spec* kinds).
	Scenario string `json:"scenario"`
	// Seed drives the deterministic per-job draws of the random scenario.
	Seed int64 `json:"seed,omitempty"`
	// OverrunProb is the per-HC-job overrun probability of the random
	// scenario, in [0, 1].
	OverrunProb float64 `json:"overrun_prob,omitempty"`
	// Jitter stretches sporadic release gaps of the random scenario
	// uniformly into [T, T·(1+Jitter)]; must be ≥ 0.
	Jitter float64 `json:"jitter,omitempty"`
	// OverrunTask and OverrunJob select the overrunning job of the
	// single-overrun and minimal-overrun scenarios.
	OverrunTask int `json:"overrun_task,omitempty"`
	OverrunJob  int `json:"overrun_job,omitempty"`
	// ResetOnIdle returns each core to LO mode at its first idle instant
	// after a mode switch (the standard mode-recovery assumption).
	ResetOnIdle bool `json:"reset_on_idle,omitempty"`
}

// Validate checks the spec's structural invariants; the wire decoder in
// mcsio adds its own bounds on top.
func (sp Spec) Validate() error {
	if sp.Horizon <= 0 {
		return fmt.Errorf("sim: spec horizon %d must be positive", sp.Horizon)
	}
	if bad(sp.OverrunProb) || sp.OverrunProb < 0 || sp.OverrunProb > 1 {
		return fmt.Errorf("sim: spec overrun probability %v outside [0, 1]", sp.OverrunProb)
	}
	if bad(sp.Jitter) || sp.Jitter < 0 {
		return fmt.Errorf("sim: spec jitter %v must be finite and ≥ 0", sp.Jitter)
	}
	switch sp.Scenario {
	case SpecLoSteady, SpecHiStorm, SpecRandom:
	case SpecSingleOverrun, SpecMinimalOverrun:
		if sp.OverrunJob < 0 {
			return fmt.Errorf("sim: spec overrun job %d must be ≥ 0", sp.OverrunJob)
		}
	default:
		return fmt.Errorf("sim: unknown scenario kind %q", sp.Scenario)
	}
	return nil
}

func bad(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// The job behaviour of each kind: demand and gap are deterministic
// functions of (spec, task, job index), so repeated runs and per-core runs
// agree.

// demand returns the execution demand of the job-th job of t. Values above
// C^L make an HC job trigger a mode switch; the engine clamps them into
// [1, C^H] ([1, C^L] for LC).
func (sp *Spec) demand(t mcs.Task, job int) mcs.Ticks {
	switch sp.Scenario {
	case SpecHiStorm:
		return t.CHi()
	case SpecRandom:
		r := sp.rng(t, job)
		if t.IsHC() && t.CHi() > t.CLo() && r.Float64() < sp.OverrunProb {
			return t.CLo() + 1 + mcs.Ticks(r.Int63n(int64(t.CHi()-t.CLo())))
		}
		return 1 + mcs.Ticks(r.Int63n(int64(t.CLo())))
	case SpecSingleOverrun:
		if t.ID == sp.OverrunTask && job == sp.OverrunJob {
			return t.CHi()
		}
	case SpecMinimalOverrun:
		if t.ID == sp.OverrunTask && job == sp.OverrunJob {
			return t.CLo() + 1
		}
	}
	return t.CLo()
}

// gap returns the separation between release job and release job+1 of t;
// the engine clamps it to at least the period.
func (sp *Spec) gap(t mcs.Task, job int) mcs.Ticks {
	if sp.Scenario != SpecRandom || sp.Jitter <= 0 {
		return t.Period
	}
	r := sp.rng(t, job)
	r.Int63() // decorrelate from demand's first draw
	return t.Period + mcs.Ticks(sp.Jitter*float64(t.Period)*r.Float64())
}

// rng builds the random kind's per-(task, job) deterministic generator.
func (sp *Spec) rng(t mcs.Task, job int) *rand.Rand {
	h := sp.Seed
	h = h*1000003 + int64(t.ID) + 1
	h = h*1000003 + int64(job) + 1
	return rand.New(rand.NewSource(h))
}
