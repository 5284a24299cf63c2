package mcsio

// Simulation scenarios and results — the payloads of the daemon's
// POST /v1/systems/{id}/simulate what-if endpoint. A scenario record is the
// complete, self-contained description of one deterministic system
// simulation (kind, horizon, seed, overrun selection), so a result can be
// reproduced from its echoed scenario alone. Both records embed the
// engine's own types, whose JSON tags are the wire format. Decoding a
// scenario is strict and fails closed exactly like the journal event
// codec: unknown fields, unknown kinds, version mismatches, out-of-range
// parameters and fields belonging to another scenario kind all reject the
// record.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"mcsched/internal/sim"
)

// SimScenarioFormatVersion identifies the scenario schema; bump on breaking
// changes.
const SimScenarioFormatVersion = 1

// MaxSimHorizon bounds the simulated duration a wire scenario may request.
// The engine walks tick events over the horizon, so an unbounded horizon
// would let one request monopolize a daemon worker.
const MaxSimHorizon = 1_000_000

// SimScenarioJSON is the wire form of one simulation scenario: the engine
// spec plus the witness-output flag.
type SimScenarioJSON struct {
	// Version is the scenario schema version (SimScenarioFormatVersion).
	Version int `json:"v"`
	// Spec is the scenario itself; its horizon must lie in
	// (0, MaxSimHorizon].
	sim.Spec
	// Witness requests the first-miss witness trace in the result.
	Witness bool `json:"witness,omitempty"`
}

// EncodeSimScenario validates the scenario and renders it as canonical
// (compact, fixed field order) JSON.
func EncodeSimScenario(j SimScenarioJSON) ([]byte, error) {
	if j.Version == 0 {
		j.Version = SimScenarioFormatVersion
	}
	if err := validateSimScenario(j); err != nil {
		return nil, err
	}
	return json.Marshal(j)
}

// DecodeSimScenario strictly parses and validates one wire scenario; its
// embedded Spec is what the engine runs. Malformed records fail closed;
// they never panic and never yield a partially-valid scenario.
func DecodeSimScenario(b []byte) (SimScenarioJSON, error) {
	var j SimScenarioJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		return SimScenarioJSON{}, fmt.Errorf("mcsio: decode sim scenario: %w", err)
	}
	if dec.More() {
		return SimScenarioJSON{}, fmt.Errorf("mcsio: decode sim scenario: trailing data")
	}
	if err := validateSimScenario(j); err != nil {
		return SimScenarioJSON{}, err
	}
	return j, nil
}

// validateSimScenario enforces the wire bounds, the engine spec's semantic
// invariants, and the per-kind field shape (a scenario must not smuggle
// fields that its kind does not read — the same fail-closed stance as the
// journal event codec).
func validateSimScenario(j SimScenarioJSON) error {
	if j.Version != SimScenarioFormatVersion {
		return fmt.Errorf("mcsio: unsupported sim scenario version %d (supported: %d)", j.Version, SimScenarioFormatVersion)
	}
	if j.Horizon > MaxSimHorizon {
		return fmt.Errorf("mcsio: sim scenario horizon %d exceeds limit %d", j.Horizon, MaxSimHorizon)
	}
	if err := j.Validate(); err != nil {
		return err
	}
	if j.OverrunTask < 0 {
		return fmt.Errorf("mcsio: sim scenario overrun task %d must be ≥ 0", j.OverrunTask)
	}
	empty := func(cond bool) error {
		if !cond {
			return fmt.Errorf("mcsio: %s scenario carries fields of another kind", j.Scenario)
		}
		return nil
	}
	switch j.Scenario {
	case sim.SpecLoSteady, sim.SpecHiStorm:
		return empty(j.Seed == 0 && j.OverrunProb == 0 && j.Jitter == 0 && j.OverrunTask == 0 && j.OverrunJob == 0)
	case sim.SpecRandom:
		return empty(j.OverrunTask == 0 && j.OverrunJob == 0)
	default: // single-overrun or minimal-overrun: Validate refused any other kind
		return empty(j.Seed == 0 && j.OverrunProb == 0 && j.Jitter == 0)
	}
}

// SimResultFormatVersion identifies the simulation result schema.
const SimResultFormatVersion = 1

// SimResultJSON is the wire form of one system simulation result: the
// engine result under a header naming the tenant, its test and the
// scenario, echoed verbatim so the result document alone reproduces the
// run. The witness is present only on unsound runs that requested it.
type SimResultJSON struct {
	Version  int             `json:"v"`
	System   string          `json:"system"`
	Test     string          `json:"test"`
	Scenario SimScenarioJSON `json:"scenario"`
	OK       bool            `json:"ok"`
	sim.SystemResult
}

// SimResultToJSON renders an engine result in wire form. The witness is
// included only when the scenario requested one.
func SimResultToJSON(system, test string, scn SimScenarioJSON, r sim.SystemResult) SimResultJSON {
	if scn.Version == 0 {
		scn.Version = SimScenarioFormatVersion
	}
	if !scn.Witness {
		r.Witness = nil
	}
	return SimResultJSON{
		Version:      SimResultFormatVersion,
		System:       system,
		Test:         test,
		Scenario:     scn,
		OK:           r.OK(),
		SystemResult: r,
	}
}
