package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"mcsched/internal/mcs"
	"mcsched/internal/mcsio"
	"mcsched/internal/sim"
)

// goldenTenant is the task set the wire golden admits: HC and LC tasks
// over two EDF-VD cores, so the responses carry virtual-deadline runs,
// mode switches and LC drops.
var goldenTenant = []string{
	`{"id":1,"crit":"HI","period":10,"deadline":10,"c_lo":1,"c_hi":3}`,
	`{"id":2,"crit":"HI","period":20,"deadline":20,"c_lo":3,"c_hi":6}`,
	`{"id":3,"crit":"LO","period":15,"deadline":15,"c_lo":4}`,
	`{"id":4,"crit":"HI","period":25,"deadline":25,"c_lo":2,"c_hi":5}`,
	`{"id":5,"crit":"LO","period":30,"deadline":30,"c_lo":6}`,
}

// goldenScenarios is one /simulate request body per scenario kind.
var goldenScenarios = []struct{ kind, body string }{
	{"lo-steady", `{"v":1,"horizon":600,"scenario":"lo-steady"}`},
	{"hi-storm", `{"v":1,"horizon":600,"scenario":"hi-storm","reset_on_idle":true}`},
	{"random", `{"v":1,"horizon":600,"scenario":"random","seed":7,"overrun_prob":0.3,"jitter":0.5,"reset_on_idle":true}`},
	{"single-overrun", `{"v":1,"horizon":600,"scenario":"single-overrun","overrun_task":2,"overrun_job":1}`},
	{"minimal-overrun", `{"v":1,"horizon":600,"scenario":"minimal-overrun","overrun_task":1,"overrun_job":3,"reset_on_idle":true}`},
}

// checkWireGolden compares got with testdata/simulate/<name>.json byte for
// byte.
func checkWireGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "simulate", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: wire bytes changed:\n got %s\nwant %s", name, got, want)
	}
}

// checkLoadPath decodes a response the way a load client does — plain
// json.Unmarshal into mcsio.SimResultJSON — and checks the three fields it
// reads.
func checkLoadPath(t *testing.T, name string, body []byte, ok bool, misses, released int) {
	t.Helper()
	var res mcsio.SimResultJSON
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.OK != ok || res.Misses != misses || res.Released != released {
		t.Errorf("%s: ok=%v misses=%d released=%d, want ok=%v misses=%d released=%d",
			name, res.OK, res.Misses, res.Released, ok, misses, released)
	}
}

// TestSimulateWireGolden pins the /simulate response bytes of every
// scenario kind, with and without ?witness=1, and the encoding of a
// result that misses, witness included.
func TestSimulateWireGolden(t *testing.T) {
	d := newTestDaemon(t)
	if st := call(t, "POST", d.URL+"/v1/systems",
		`{"id":"golden","processors":2,"test":"EDF-VD"}`, nil); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	for _, task := range goldenTenant {
		if st := call(t, "POST", d.URL+"/v1/systems/golden/admit", `{"task":`+task+`}`, nil); st != http.StatusOK {
			t.Fatalf("admit %s: status %d", task, st)
		}
	}
	// The released totals of the five runs, in goldenScenarios order; none
	// misses, since the tenant was admitted.
	released := []int{174, 174, 140, 174, 174}
	for i, sc := range goldenScenarios {
		for _, query := range []string{"", "?witness=1"} {
			name := sc.kind
			if query != "" {
				name += "-witness"
			}
			st, body := callRaw(t, "POST", d.URL+"/v1/systems/golden/simulate"+query, sc.body)
			if st != http.StatusOK {
				t.Fatalf("%s: status %d: %s", name, st, body)
			}
			checkWireGolden(t, name, body)
			checkLoadPath(t, name, body, true, 0, released[i])
		}
	}

	// A run that misses, rendered with and without its witness. Core 1
	// overloads in HI mode under hi-storm; core 0 is sound.
	cores := []mcs.TaskSet{
		{mcs.NewHC(0, 2, 4, 20)},
		{mcs.NewHC(1, 2, 6, 10), mcs.NewHC(2, 2, 6, 10), mcs.NewLC(3, 1, 10)},
	}
	res, err := sim.SimulateSystem(cores, nil, sim.Spec{Horizon: 300, Scenario: sim.SpecHiStorm, ResetOnIdle: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, witness := range []bool{false, true} {
		name := "result-miss"
		raw := `{"v":1,"horizon":300,"scenario":"hi-storm","reset_on_idle":true}`
		if witness {
			name += "-witness"
			raw = `{"v":1,"horizon":300,"scenario":"hi-storm","reset_on_idle":true,"witness":true}`
		}
		var scn mcsio.SimScenarioJSON
		if err := json.Unmarshal([]byte(raw), &scn); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(mcsio.SimResultToJSON("s1", "EDF-VD", scn, res)); err != nil {
			t.Fatal(err)
		}
		checkWireGolden(t, name, buf.Bytes())
		checkLoadPath(t, name, buf.Bytes(), false, 57, 76)
	}
}
