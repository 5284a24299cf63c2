package mcsio

// Simulation scenarios and results — the payloads of the daemon's
// POST /v1/systems/{id}/simulate what-if endpoint. A scenario record is the
// complete, self-contained description of one deterministic system
// simulation (kind, horizon, seed, overrun selection), so a result can be
// reproduced from its echoed scenario alone. Decoding is strict and fails
// closed exactly like the journal event codec: unknown fields, unknown
// kinds, version mismatches, out-of-range parameters and fields belonging
// to another scenario kind all reject the record.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"mcsched/internal/mcs"
	"mcsched/internal/sim"
)

// SimScenarioFormatVersion identifies the scenario schema; bump on breaking
// changes.
const SimScenarioFormatVersion = 1

// MaxSimHorizon bounds the simulated duration a wire scenario may request.
// The engine walks tick events over the horizon, so an unbounded horizon
// would let one request monopolize a daemon worker.
const MaxSimHorizon = 1_000_000

// SimScenarioJSON is the wire form of one simulation scenario
// (sim.Spec plus the witness-output flag).
type SimScenarioJSON struct {
	// Version is the scenario schema version (SimScenarioFormatVersion).
	Version int `json:"v"`
	// Horizon is the simulated duration in ticks, in (0, MaxSimHorizon].
	Horizon int64 `json:"horizon"`
	// Scenario is the behaviour-model kind (sim.SpecKinds).
	Scenario string `json:"scenario"`

	// Seed, OverrunProb and Jitter parameterize the random scenario.
	Seed        int64   `json:"seed,omitempty"`
	OverrunProb float64 `json:"overrun_prob,omitempty"`
	Jitter      float64 `json:"jitter,omitempty"`

	// OverrunTask and OverrunJob select the overrunning job of the
	// single-overrun and minimal-overrun scenarios.
	OverrunTask int `json:"overrun_task,omitempty"`
	OverrunJob  int `json:"overrun_job,omitempty"`

	// ResetOnIdle returns cores to LO mode at post-switch idle instants.
	ResetOnIdle bool `json:"reset_on_idle,omitempty"`
	// Witness requests the first-miss witness trace in the result.
	Witness bool `json:"witness,omitempty"`
}

// Spec converts the wire scenario to the engine's spec form. Callers must
// have validated the record first (Encode/Decode do).
func (j SimScenarioJSON) Spec() sim.Spec {
	return sim.Spec{
		Horizon:     mcs.Ticks(j.Horizon),
		Scenario:    j.Scenario,
		Seed:        j.Seed,
		OverrunProb: j.OverrunProb,
		Jitter:      j.Jitter,
		OverrunTask: j.OverrunTask,
		OverrunJob:  j.OverrunJob,
		ResetOnIdle: j.ResetOnIdle,
	}
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

// DecodeSimScenario strictly parses and validates one wire scenario,
// returning both the wire form and the engine spec. Malformed records fail
// closed; they never panic and never yield a partially-valid scenario.
func DecodeSimScenario(b []byte) (SimScenarioJSON, sim.Spec, error) {
	var j SimScenarioJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		return SimScenarioJSON{}, sim.Spec{}, fmt.Errorf("mcsio: decode sim scenario: %w", err)
	}
	if dec.More() {
		return SimScenarioJSON{}, sim.Spec{}, fmt.Errorf("mcsio: decode sim scenario: trailing data")
	}
	if err := validateSimScenario(j); err != nil {
		return SimScenarioJSON{}, sim.Spec{}, err
	}
	return j, j.Spec(), nil
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
	if err := j.Spec().Validate(); err != nil {
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
	case sim.SpecSingleOverrun, sim.SpecMinimalOverrun:
		return empty(j.Seed == 0 && j.OverrunProb == 0 && j.Jitter == 0)
	default: // unreachable: Spec().Validate() rejected unknown kinds
		return fmt.Errorf("mcsio: unknown scenario kind %q", j.Scenario)
	}
}

// SimResultFormatVersion identifies the simulation result schema.
const SimResultFormatVersion = 1

// SimMissJSON is the wire form of one required-deadline miss.
type SimMissJSON struct {
	Task     int    `json:"task"`
	Release  int64  `json:"release"`
	Deadline int64  `json:"deadline"`
	Mode     string `json:"mode"` // "LO" or "HI"
}

// SimEventJSON is the wire form of one engine trace event.
type SimEventJSON struct {
	Time int64  `json:"time"`
	Kind string `json:"kind"` // sim.EventKind String name
	Task int    `json:"task"`
	Job  int    `json:"job"`
	Dur  int64  `json:"dur,omitempty"`
}

// SimWitnessJSON is the wire form of a first-miss witness: the missing
// core, the miss, the trailing event window and its ASCII timeline.
type SimWitnessJSON struct {
	Core   int            `json:"core"`
	Miss   SimMissJSON    `json:"miss"`
	Events []SimEventJSON `json:"events"`
	Gantt  string         `json:"gantt,omitempty"`
}

// SimCoreJSON is the wire form of one core's simulation summary.
type SimCoreJSON struct {
	Core         int          `json:"core"`
	Tasks        int          `json:"tasks"`
	Released     int          `json:"released"`
	Completed    int          `json:"completed"`
	Dropped      int          `json:"dropped"`
	Preemptions  int          `json:"preemptions"`
	Misses       int          `json:"misses"`
	Switches     int          `json:"switches"`
	Resets       int          `json:"resets"`
	Busy         int64        `json:"busy"`
	FinishedMode string       `json:"finished_mode"` // "LO" or "HI"
	FirstMiss    *SimMissJSON `json:"first_miss,omitempty"`
}

// SimResultJSON is the wire form of one system simulation result. The
// scenario is echoed verbatim so the result document alone reproduces the
// run.
type SimResultJSON struct {
	Version  int             `json:"v"`
	System   string          `json:"system"`
	Test     string          `json:"test"`
	Scenario SimScenarioJSON `json:"scenario"`
	OK       bool            `json:"ok"`

	Cores []SimCoreJSON `json:"cores"`

	// Totals across cores.
	Released    int `json:"released"`
	Completed   int `json:"completed"`
	Dropped     int `json:"dropped"`
	Preemptions int `json:"preemptions"`
	Misses      int `json:"misses"`
	Switches    int `json:"switches"`

	// Witness reconstructs the first miss; present only on unsound runs
	// that requested it.
	Witness *SimWitnessJSON `json:"witness,omitempty"`
}

// SimResultToJSON renders an engine result in wire form. The witness is
// included only when the scenario requested one.
func SimResultToJSON(system, test string, scn SimScenarioJSON, r sim.SystemResult) SimResultJSON {
	if scn.Version == 0 {
		scn.Version = SimScenarioFormatVersion
	}
	out := SimResultJSON{
		Version:     SimResultFormatVersion,
		System:      system,
		Test:        test,
		Scenario:    scn,
		OK:          r.OK(),
		Cores:       make([]SimCoreJSON, len(r.Cores)),
		Released:    r.Released,
		Completed:   r.Completed,
		Dropped:     r.Dropped,
		Preemptions: r.Preemptions,
		Misses:      r.Misses,
		Switches:    r.Switches,
	}
	for i, c := range r.Cores {
		out.Cores[i] = SimCoreJSON{
			Core:         c.Core,
			Tasks:        c.Tasks,
			Released:     c.Released,
			Completed:    c.Completed,
			Dropped:      c.Dropped,
			Preemptions:  c.Preemptions,
			Misses:       c.Misses,
			Switches:     c.Switches,
			Resets:       c.Resets,
			Busy:         int64(c.Busy),
			FinishedMode: c.FinishedMode.String(),
			FirstMiss:    missToJSON(c.FirstMiss),
		}
	}
	if scn.Witness && r.Witness != nil {
		w := &SimWitnessJSON{
			Core:   r.Witness.Core,
			Miss:   *missToJSON(&r.Witness.Miss),
			Events: make([]SimEventJSON, len(r.Witness.Events)),
			Gantt:  r.Witness.Gantt,
		}
		for i, e := range r.Witness.Events {
			w.Events[i] = SimEventJSON{
				Time: int64(e.Time),
				Kind: e.Kind.String(),
				Task: e.TaskID,
				Job:  e.Job,
				Dur:  int64(e.Dur),
			}
		}
		out.Witness = w
	}
	return out
}

func missToJSON(m *sim.Miss) *SimMissJSON {
	if m == nil {
		return nil
	}
	return &SimMissJSON{
		Task:     m.TaskID,
		Release:  int64(m.Release),
		Deadline: int64(m.Deadline),
		Mode:     m.Mode.String(),
	}
}

// EncodeSimResult validates the result and renders it as canonical JSON.
func EncodeSimResult(r SimResultJSON) ([]byte, error) {
	if r.Version == 0 {
		r.Version = SimResultFormatVersion
	}
	if err := validateSimResult(r); err != nil {
		return nil, err
	}
	return json.Marshal(r)
}

// DecodeSimResult strictly parses and validates one wire result.
func DecodeSimResult(b []byte) (SimResultJSON, error) {
	var r SimResultJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return SimResultJSON{}, fmt.Errorf("mcsio: decode sim result: %w", err)
	}
	if dec.More() {
		return SimResultJSON{}, fmt.Errorf("mcsio: decode sim result: trailing data")
	}
	if err := validateSimResult(r); err != nil {
		return SimResultJSON{}, err
	}
	return r, nil
}

// validSimEventKinds are the wire names of the engine's trace event kinds.
var validSimEventKinds = map[string]bool{
	"release": true, "exec": true, "complete": true, "preempt": true,
	"switch": true, "reset": true, "drop": true, "miss": true,
}

func validMode(m string) bool { return m == "LO" || m == "HI" }

func validateSimMiss(where string, m SimMissJSON) error {
	switch {
	case m.Release < 0 || m.Deadline < m.Release:
		return fmt.Errorf("mcsio: %s miss with release %d deadline %d", where, m.Release, m.Deadline)
	case !validMode(m.Mode):
		return fmt.Errorf("mcsio: %s miss with mode %q", where, m.Mode)
	}
	return nil
}

// validateSimResult enforces internal consistency: per-core counts are
// non-negative and within the horizon, totals equal the per-core sums, OK
// agrees with the miss count, and any witness is well-formed. A result that
// cannot have come from the engine fails closed.
func validateSimResult(r SimResultJSON) error {
	if r.Version != SimResultFormatVersion {
		return fmt.Errorf("mcsio: unsupported sim result version %d (supported: %d)", r.Version, SimResultFormatVersion)
	}
	if r.System == "" {
		return fmt.Errorf("mcsio: sim result without system ID")
	}
	if r.Test == "" {
		return fmt.Errorf("mcsio: sim result without a test name")
	}
	if err := validateSimScenario(r.Scenario); err != nil {
		return err
	}
	var sum SimResultJSON
	for i, c := range r.Cores {
		if c.Core != i {
			return fmt.Errorf("mcsio: sim result core %d recorded at index %d", c.Core, i)
		}
		if c.Tasks < 0 || c.Released < 0 || c.Completed < 0 || c.Dropped < 0 ||
			c.Preemptions < 0 || c.Misses < 0 || c.Switches < 0 || c.Resets < 0 {
			return fmt.Errorf("mcsio: sim result core %d with negative counts", i)
		}
		if c.Busy < 0 || c.Busy > r.Scenario.Horizon {
			return fmt.Errorf("mcsio: sim result core %d busy %d outside horizon %d", i, c.Busy, r.Scenario.Horizon)
		}
		if !validMode(c.FinishedMode) {
			return fmt.Errorf("mcsio: sim result core %d with finished mode %q", i, c.FinishedMode)
		}
		if (c.FirstMiss != nil) != (c.Misses > 0) {
			return fmt.Errorf("mcsio: sim result core %d has %d misses but first-miss presence %t", i, c.Misses, c.FirstMiss != nil)
		}
		if c.FirstMiss != nil {
			if err := validateSimMiss(fmt.Sprintf("sim result core %d", i), *c.FirstMiss); err != nil {
				return err
			}
		}
		sum.Released += c.Released
		sum.Completed += c.Completed
		sum.Dropped += c.Dropped
		sum.Preemptions += c.Preemptions
		sum.Misses += c.Misses
		sum.Switches += c.Switches
	}
	if sum.Released != r.Released || sum.Completed != r.Completed || sum.Dropped != r.Dropped ||
		sum.Preemptions != r.Preemptions || sum.Misses != r.Misses || sum.Switches != r.Switches {
		return fmt.Errorf("mcsio: sim result totals disagree with per-core sums")
	}
	if r.OK != (r.Misses == 0) {
		return fmt.Errorf("mcsio: sim result ok=%t with %d misses", r.OK, r.Misses)
	}
	if r.Witness != nil {
		if r.OK {
			return fmt.Errorf("mcsio: sim result carries a witness without a miss")
		}
		w := r.Witness
		if w.Core < 0 || w.Core >= len(r.Cores) {
			return fmt.Errorf("mcsio: sim result witness references core %d of %d", w.Core, len(r.Cores))
		}
		if err := validateSimMiss("sim result witness", w.Miss); err != nil {
			return err
		}
		for _, e := range w.Events {
			if !validSimEventKinds[e.Kind] {
				return fmt.Errorf("mcsio: sim result witness event kind %q", e.Kind)
			}
			if e.Time < 0 || e.Dur < 0 {
				return fmt.Errorf("mcsio: sim result witness event at time %d with dur %d", e.Time, e.Dur)
			}
		}
	}
	return nil
}
