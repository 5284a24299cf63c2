package mcsio

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mcsched/internal/mcs"
	"mcsched/internal/sim"
)

// validSimScenarios returns one well-formed wire scenario per kind.
func validSimScenarios() []SimScenarioJSON {
	return []SimScenarioJSON{
		{Version: 1, Spec: sim.Spec{Horizon: 1000, Scenario: "lo-steady"}},
		{Version: 1, Spec: sim.Spec{Horizon: 1000, Scenario: "hi-storm", ResetOnIdle: true}},
		{Version: 1, Spec: sim.Spec{Horizon: 5000, Scenario: "random", Seed: 42, OverrunProb: 0.25, Jitter: 0.5}, Witness: true},
		{Version: 1, Spec: sim.Spec{Horizon: 200, Scenario: "single-overrun", OverrunTask: 3, OverrunJob: 1}},
		{Version: 1, Spec: sim.Spec{Horizon: 200, Scenario: "minimal-overrun", OverrunTask: 2}},
	}
}

// TestSimScenarioRoundTrip: every kind encodes and decodes to an equal wire
// form, embedded spec included.
func TestSimScenarioRoundTrip(t *testing.T) {
	for _, scn := range validSimScenarios() {
		b, err := EncodeSimScenario(scn)
		if err != nil {
			t.Fatalf("%s: encode: %v", scn.Scenario, err)
		}
		got, err := DecodeSimScenario(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", scn.Scenario, err)
		}
		if got != scn {
			t.Fatalf("%s: round trip changed the record:\n%+v\n%+v", scn.Scenario, scn, got)
		}
	}
}

// TestSimScenarioVersionDefaults: encoding fills the version in; decoding
// requires it.
func TestSimScenarioVersionDefaults(t *testing.T) {
	b, err := EncodeSimScenario(SimScenarioJSON{Spec: sim.Spec{Horizon: 10, Scenario: "lo-steady"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"v":1`) {
		t.Fatalf("version not defaulted: %s", b)
	}
	if _, err := DecodeSimScenario([]byte(`{"horizon":10,"scenario":"lo-steady"}`)); err == nil {
		t.Fatal("decoded a scenario without a version")
	}
}

// TestSimScenarioRejects: strict decoding fails closed on malformed,
// smuggled and out-of-range records.
func TestSimScenarioRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":       `{"v":1,"horizon":10,"scenario":"lo-steady","extra":1}`,
		"trailing data":       `{"v":1,"horizon":10,"scenario":"lo-steady"}{}`,
		"version skew":        `{"v":2,"horizon":10,"scenario":"lo-steady"}`,
		"zero horizon":        `{"v":1,"horizon":0,"scenario":"lo-steady"}`,
		"negative horizon":    `{"v":1,"horizon":-5,"scenario":"hi-storm"}`,
		"horizon over cap":    `{"v":1,"horizon":1000001,"scenario":"lo-steady"}`,
		"unknown kind":        `{"v":1,"horizon":10,"scenario":"chaos"}`,
		"lo-steady with seed": `{"v":1,"horizon":10,"scenario":"lo-steady","seed":3}`,
		"hi-storm with prob":  `{"v":1,"horizon":10,"scenario":"hi-storm","overrun_prob":0.5}`,
		"random with target":  `{"v":1,"horizon":10,"scenario":"random","overrun_task":1}`,
		"overrun with jitter": `{"v":1,"horizon":10,"scenario":"single-overrun","jitter":0.5}`,
		"prob above one":      `{"v":1,"horizon":10,"scenario":"random","overrun_prob":1.5}`,
		"negative jitter":     `{"v":1,"horizon":10,"scenario":"random","jitter":-0.5}`,
		"negative task":       `{"v":1,"horizon":10,"scenario":"single-overrun","overrun_task":-1}`,
		"negative job":        `{"v":1,"horizon":10,"scenario":"minimal-overrun","overrun_job":-1}`,
		"not an object":       `[1,2]`,
		"empty":               ``,
	}
	for name, raw := range cases {
		if _, err := DecodeSimScenario([]byte(raw)); err == nil {
			t.Errorf("%s accepted: %s", name, raw)
		}
	}
}

// simResultFixture runs a real two-core partition (one sound, one
// overloaded) and renders it, so result tests exercise documents the
// engine actually produces.
func simResultFixture(t *testing.T, witness bool) SimResultJSON {
	t.Helper()
	cores := []mcs.TaskSet{
		{mcs.NewHC(0, 2, 4, 20)},
		{mcs.NewLC(1, 7, 10), mcs.NewLC(2, 7, 10)},
	}
	scn := SimScenarioJSON{Version: 1, Spec: sim.Spec{Horizon: 300, Scenario: "lo-steady"}, Witness: witness}
	res, err := sim.SimulateSystem(cores, nil, scn.Spec)
	if err != nil {
		t.Fatal(err)
	}
	return SimResultToJSON("s1", "EDF-VD", scn, res)
}

// TestSimResultRoundTrip: an engine-produced result document survives a
// JSON encode/decode cycle byte-for-byte, witness included, and carries
// the witness only when the scenario asked for it.
func TestSimResultRoundTrip(t *testing.T) {
	for _, witness := range []bool{false, true} {
		doc := simResultFixture(t, witness)
		if doc.OK {
			t.Fatal("fixture should miss (core 1 is overloaded)")
		}
		if witness && doc.Witness == nil {
			t.Fatal("requested witness missing")
		}
		if !witness && doc.Witness != nil {
			t.Fatal("unrequested witness present")
		}
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("witness=%t: encode: %v", witness, err)
		}
		var got SimResultJSON
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("witness=%t: decode: %v", witness, err)
		}
		b2, err := json.Marshal(got)
		if err != nil {
			t.Fatalf("witness=%t: re-encode: %v", witness, err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("witness=%t: round trip not canonical:\n%s\n%s", witness, b, b2)
		}
		if witness {
			w := got.Witness
			if w == nil || w.Core != 1 || len(w.Events) == 0 || w.Gantt == "" {
				t.Fatalf("witness lost in transit: %+v", w)
			}
			if w.Events[len(w.Events)-1].Kind != sim.EvMiss {
				t.Fatalf("witness window must end at the miss: %+v", w.Events)
			}
		}
	}
}

// TestSimResultRefusesUnknownNames: a mode or an event kind outside the
// engine's names neither decodes nor encodes.
func TestSimResultRefusesUnknownNames(t *testing.T) {
	b, err := json.Marshal(simResultFixture(t, true))
	if err != nil {
		t.Fatal(err)
	}
	for _, swap := range [][2]string{
		{`"finished_mode":"LO"`, `"finished_mode":"MAYBE"`},
		{`"mode":"LO"`, `"mode":"lo"`},
		{`"kind":"miss"`, `"kind":"explode"`},
	} {
		if !bytes.Contains(b, []byte(swap[0])) {
			t.Fatalf("fixture lacks %s", swap[0])
		}
		var doc SimResultJSON
		if err := json.Unmarshal(bytes.Replace(b, []byte(swap[0]), []byte(swap[1]), 1), &doc); err == nil {
			t.Errorf("decoded %s", swap[1])
		}
	}
	doc := simResultFixture(t, true)
	doc.Cores[0].FinishedMode = 7
	if _, err := json.Marshal(doc); err == nil {
		t.Error("encoded finished mode 7")
	}
	doc = simResultFixture(t, true)
	doc.Witness.Events[0].Kind = 99
	if _, err := json.Marshal(doc); err == nil {
		t.Error("encoded event kind 99")
	}
}
