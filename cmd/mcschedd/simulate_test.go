package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"mcsched/internal/admission"
	"mcsched/internal/mcsio"
)

// callRaw issues one request and returns the status plus the exact response
// bytes, for byte-identity assertions.
func callRaw(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// TestSimulateEndpoint drives the full path: create tenant, admit tasks,
// POST a seeded scenario twice, and require byte-identical sound results.
func TestSimulateEndpoint(t *testing.T) {
	d := newTestDaemon(t)

	if st := call(t, "POST", d.URL+"/v1/systems",
		`{"id":"acme","processors":2,"test":"EDF-VD"}`, nil); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	for id := 1; id <= 4; id++ {
		body := fmt.Sprintf(`{"task":`+hcTask+`}`, id)
		var admit admission.AdmitResult
		if st := call(t, "POST", d.URL+"/v1/systems/acme/admit", body, &admit); st != http.StatusOK || !admit.Admitted {
			t.Fatalf("admit %d: status %d %+v", id, st, admit)
		}
	}

	// A fixed seed yields a deterministic result: the acceptance criterion
	// of the endpoint. Compare raw bodies, not decoded structs.
	scn := `{"v":1,"horizon":5000,"scenario":"random","seed":7,"overrun_prob":0.4,"jitter":0.5}`
	st1, b1 := callRaw(t, "POST", d.URL+"/v1/systems/acme/simulate", scn)
	st2, b2 := callRaw(t, "POST", d.URL+"/v1/systems/acme/simulate", scn)
	if st1 != http.StatusOK || st2 != http.StatusOK {
		t.Fatalf("simulate: status %d %d: %s", st1, st2, b1)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("same seed, different responses:\n%s\n%s", b1, b2)
	}

	// The body is a wire document describing a sound run of this tenant
	// under the echoed scenario.
	var res mcsio.SimResultJSON
	if err := json.Unmarshal(b1, &res); err != nil {
		t.Fatalf("response does not decode: %v\n%s", err, b1)
	}
	if res.System != "acme" || res.Test != "EDF-VD" || len(res.Cores) != 2 {
		t.Errorf("result header: %+v", res)
	}
	if res.Scenario.Scenario != "random" || res.Scenario.Seed != 7 || res.Scenario.Horizon != 5000 {
		t.Errorf("scenario not echoed: %+v", res.Scenario)
	}
	if !res.OK || res.Released == 0 || res.Witness != nil {
		t.Errorf("admitted tenant must simulate clean: %+v", res)
	}

	// ?witness=1 asks for a witness; a sound run still has none to give.
	stW, bW := callRaw(t, "POST", d.URL+"/v1/systems/acme/simulate?witness=1", scn)
	if stW != http.StatusOK {
		t.Fatalf("simulate witness: status %d", stW)
	}
	var resW mcsio.SimResultJSON
	if err := json.Unmarshal(bW, &resW); err != nil {
		t.Fatal(err)
	}
	if !resW.Scenario.Witness || resW.Witness != nil {
		t.Errorf("witness handling on sound run: %+v", resW)
	}

	// Every successful simulation is counted.
	var stats admission.Stats
	if st := call(t, "GET", d.URL+"/v1/stats", "", &stats); st != http.StatusOK {
		t.Fatalf("stats: status %d", st)
	}
	if stats.Simulations != 3 {
		t.Errorf("simulations counter: %+v", stats)
	}
}

// TestSimulateEndpointErrors maps failure shapes to status codes.
func TestSimulateEndpointErrors(t *testing.T) {
	d := newTestDaemon(t)
	if st := call(t, "POST", d.URL+"/v1/systems",
		`{"id":"acme","processors":1,"test":"EDF-VD"}`, nil); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	ok := `{"v":1,"horizon":100,"scenario":"lo-steady"}`
	cases := []struct {
		name, url, body string
		want            int
	}{
		{"unknown system", d.URL + "/v1/systems/ghost/simulate", ok, http.StatusNotFound},
		{"malformed json", d.URL + "/v1/systems/acme/simulate", `{`, http.StatusBadRequest},
		{"unknown kind", d.URL + "/v1/systems/acme/simulate", `{"v":1,"horizon":100,"scenario":"chaos"}`, http.StatusBadRequest},
		{"version skew", d.URL + "/v1/systems/acme/simulate", `{"v":9,"horizon":100,"scenario":"lo-steady"}`, http.StatusBadRequest},
		{"horizon over cap", d.URL + "/v1/systems/acme/simulate", `{"v":1,"horizon":1000001,"scenario":"lo-steady"}`, http.StatusBadRequest},
		{"smuggled field", d.URL + "/v1/systems/acme/simulate", `{"v":1,"horizon":100,"scenario":"lo-steady","seed":3}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if st := call(t, "POST", c.url, c.body, nil); st != c.want {
			t.Errorf("%s: status %d, want %d", c.name, st, c.want)
		}
	}
	// Failed attempts never bump the counter.
	var stats admission.Stats
	call(t, "GET", d.URL+"/v1/stats", "", &stats)
	if stats.Simulations != 0 {
		t.Errorf("simulations counter after failures: %+v", stats)
	}
}

// TestSimulateMetrics: the instrumented daemon exports the simulation
// counter and duration histogram.
func TestSimulateMetrics(t *testing.T) {
	api, ops, _ := newInstrumentedDaemon(t, false)
	if st := call(t, "POST", api.URL+"/v1/systems",
		`{"id":"acme","processors":1,"test":"EDF-VD"}`, nil); st != http.StatusCreated {
		t.Fatalf("create: %d", st)
	}
	if st := call(t, "POST", api.URL+"/v1/systems/acme/simulate",
		`{"v":1,"horizon":1000,"scenario":"hi-storm"}`, nil); st != http.StatusOK {
		t.Fatalf("simulate: %d", st)
	}
	st, body := getBody(t, ops.URL+"/metrics")
	if st != http.StatusOK {
		t.Fatalf("metrics: %d", st)
	}
	if !strings.Contains(body, "mcsched_admission_simulations_total 1") {
		t.Errorf("simulations counter missing from /metrics")
	}
	if !strings.Contains(body, "mcsched_admission_simulate_duration_seconds_count 1") {
		t.Errorf("simulate duration histogram missing from /metrics")
	}
}
