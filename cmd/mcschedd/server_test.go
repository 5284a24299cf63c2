package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mcsched/internal/admission"
)

func newTestDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newServer(admission.NewController(admission.DefaultConfig())))
	t.Cleanup(ts.Close)
	return ts
}

// call issues one JSON request and decodes the response body into out (when
// non-nil), returning the status code.
func call(t *testing.T, method, url, body string, out any) int {
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
	if out != nil && len(bytes.TrimSpace(raw)) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

const hcTask = `{"id":%d,"crit":"HI","period":10,"deadline":10,"c_lo":1,"c_hi":2}`

func TestDaemonLifecycle(t *testing.T) {
	d := newTestDaemon(t)

	var created createSystemResponse
	if st := call(t, "POST", d.URL+"/v1/systems",
		`{"id":"acme","processors":2,"test":"EDF-VD"}`, &created); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	if created.ID != "acme" || created.Processors != 2 || created.Test != "EDF-VD" {
		t.Fatalf("create: %+v", created)
	}

	// Probe, then admit: the probe must not commit, the admit must.
	var probe admission.AdmitResult
	body := fmt.Sprintf(`{"task":`+hcTask+`}`, 1)
	if st := call(t, "POST", d.URL+"/v1/systems/acme/probe", body, &probe); st != http.StatusOK {
		t.Fatalf("probe: status %d", st)
	}
	if !probe.Admitted || !probe.Probed {
		t.Fatalf("probe: %+v", probe)
	}
	var admit admission.AdmitResult
	if st := call(t, "POST", d.URL+"/v1/systems/acme/admit", body, &admit); st != http.StatusOK {
		t.Fatalf("admit: status %d", st)
	}
	if !admit.Admitted || admit.Core != 0 || admit.Tests == 0 || admit.Tests != probe.Tests {
		t.Fatalf("admit after probe: %+v, probe %+v", admit, probe)
	}

	// Batch admit on the same tenant.
	var batch admission.BatchResult
	bb := fmt.Sprintf(`{"tasks":[`+hcTask+`,`+hcTask+`]}`, 2, 3)
	if st := call(t, "POST", d.URL+"/v1/systems/acme/admit", bb, &batch); st != http.StatusOK {
		t.Fatalf("batch: status %d", st)
	}
	if !batch.Admitted || len(batch.Results) != 2 {
		t.Fatalf("batch: %+v", batch)
	}

	// Snapshot shows three tasks and balanced cores.
	var sys systemResponse
	if st := call(t, "GET", d.URL+"/v1/systems/acme", "", &sys); st != http.StatusOK {
		t.Fatalf("get: status %d", st)
	}
	if sys.Tasks != 3 || len(sys.Cores) != 2 || len(sys.Partition.Cores) != 2 {
		t.Fatalf("snapshot: %+v", sys)
	}

	// Release two, then the snapshot shrinks.
	var rel releaseResponse
	if st := call(t, "POST", d.URL+"/v1/systems/acme/release",
		`{"task_ids":[1,2]}`, &rel); st != http.StatusOK || rel.Released != 2 {
		t.Fatalf("release: status %d %+v", st, rel)
	}
	if call(t, "GET", d.URL+"/v1/systems/acme", "", &sys); sys.Tasks != 1 {
		t.Fatalf("after release: %+v", sys)
	}

	// Stats reflect the traffic.
	var stats admission.Stats
	if st := call(t, "GET", d.URL+"/v1/stats", "", &stats); st != http.StatusOK {
		t.Fatalf("stats: status %d", st)
	}
	if stats.Systems != 1 || stats.Admits != 3 || stats.Probes != 1 || stats.Releases != 2 {
		t.Fatalf("stats: %+v", stats)
	}

	// List then delete the tenant.
	var list listSystemsResponse
	call(t, "GET", d.URL+"/v1/systems", "", &list)
	if len(list.Systems) != 1 || list.Systems[0] != "acme" {
		t.Fatalf("list: %+v", list)
	}
	if st := call(t, "DELETE", d.URL+"/v1/systems/acme", "", nil); st != http.StatusNoContent {
		t.Fatalf("delete: status %d", st)
	}
	if st := call(t, "GET", d.URL+"/v1/systems/acme", "", nil); st != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", st)
	}
}

// TestDaemonDecodingErrors exercises the mcsio validation paths through the
// daemon's request decoding: malformed JSON, unknown fields, negative
// budgets, inconsistent criticalities and duplicate task IDs must all be
// rejected with a 4xx and a JSON error body.
// overlongBatch is a batch body of admission.MaxBatch+1 distinct tasks, each
// of which would fit.
func overlongBatch() string {
	var b strings.Builder
	b.WriteString(`{"tasks":[`)
	for i := 0; i <= admission.MaxBatch; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"id":%d,"crit":"LO","period":1000000,"deadline":1000000,"c_lo":1}`, i)
	}
	b.WriteString(`]}`)
	return b.String()
}

func TestDaemonDecodingErrors(t *testing.T) {
	d := newTestDaemon(t)
	call(t, "POST", d.URL+"/v1/systems", `{"id":"x","processors":2,"test":"EDF-VD"}`, nil)

	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"malformed json", "POST", "/v1/systems/x/admit", `{"task":`, http.StatusBadRequest},
		{"unknown field", "POST", "/v1/systems/x/admit", `{"job":{}}`, http.StatusBadRequest},
		{"neither task nor tasks", "POST", "/v1/systems/x/admit", `{}`, http.StatusBadRequest},
		{"empty batch", "POST", "/v1/systems/x/admit", `{"tasks":[]}`, http.StatusBadRequest},
		{"batch over MaxBatch", "POST", "/v1/systems/x/admit", overlongBatch(), http.StatusBadRequest},
		{"probe batch over MaxBatch", "POST", "/v1/systems/x/probe", overlongBatch(), http.StatusBadRequest},
		{"huge processors", "POST", "/v1/systems", `{"processors":2000000000,"test":"EDF-VD"}`, http.StatusBadRequest},
		{"both task_id and task_ids", "POST", "/v1/systems/x/release",
			`{"task_id":1,"task_ids":[1]}`, http.StatusBadRequest},
		{"both task and tasks", "POST", "/v1/systems/x/admit",
			`{"task":{"id":1,"crit":"LO","period":5,"deadline":5,"c_lo":1},"tasks":[]}`, http.StatusBadRequest},
		{"negative budget", "POST", "/v1/systems/x/admit",
			`{"task":{"id":1,"crit":"HI","period":10,"deadline":10,"c_lo":-1,"c_hi":2}}`, http.StatusBadRequest},
		{"negative period", "POST", "/v1/systems/x/admit",
			`{"task":{"id":1,"crit":"LO","period":-10,"deadline":5,"c_lo":1}}`, http.StatusBadRequest},
		{"c_hi below c_lo", "POST", "/v1/systems/x/admit",
			`{"task":{"id":1,"crit":"HI","period":10,"deadline":10,"c_lo":4,"c_hi":2}}`, http.StatusBadRequest},
		{"unknown criticality", "POST", "/v1/systems/x/admit",
			`{"task":{"id":1,"crit":"MED","period":10,"deadline":10,"c_lo":1,"c_hi":1}}`, http.StatusBadRequest},
		{"understated u_lo", "POST", "/v1/systems/x/admit",
			`{"task":{"id":1,"crit":"LO","period":10,"deadline":10,"c_lo":9,"c_hi":9,"u_lo":0.001,"u_hi":0.001}}`, http.StatusBadRequest},
		{"overstated u_hi", "POST", "/v1/systems/x/admit",
			`{"task":{"id":1,"crit":"HI","period":10,"deadline":10,"c_lo":2,"c_hi":4,"u_lo":0.2,"u_hi":0.9}}`, http.StatusBadRequest},
		{"duplicate in batch", "POST", "/v1/systems/x/admit",
			`{"tasks":[{"id":7,"crit":"LO","period":10,"deadline":10,"c_lo":1},
			           {"id":7,"crit":"LO","period":10,"deadline":10,"c_lo":1}]}`, http.StatusConflict},
		{"unknown test", "POST", "/v1/systems", `{"processors":2,"test":"RMS"}`, http.StatusBadRequest},
		{"zero processors", "POST", "/v1/systems", `{"processors":0,"test":"EDF-VD"}`, http.StatusBadRequest},
		{"duplicate system", "POST", "/v1/systems", `{"id":"x","processors":2,"test":"EDF-VD"}`, http.StatusConflict},
		{"missing system", "POST", "/v1/systems/nope/admit",
			`{"task":{"id":1,"crit":"LO","period":5,"deadline":5,"c_lo":1}}`, http.StatusNotFound},
		{"release unknown task", "POST", "/v1/systems/x/release", `{"task_id":404}`, http.StatusNotFound},
		{"release empty", "POST", "/v1/systems/x/release", `{}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e errorResponse
			if st := call(t, tc.method, d.URL+tc.path, tc.body, &e); st != tc.want {
				t.Fatalf("status %d, want %d (error %q)", st, tc.want, e.Error)
			}
			if e.Error == "" {
				t.Error("empty error body")
			}
		})
	}

	// Resident duplicate: admit the same ID twice sequentially.
	ok := fmt.Sprintf(`{"task":`+hcTask+`}`, 5)
	if st := call(t, "POST", d.URL+"/v1/systems/x/admit", ok, nil); st != http.StatusOK {
		t.Fatalf("seed admit: %d", st)
	}
	if st := call(t, "POST", d.URL+"/v1/systems/x/admit", ok, nil); st != http.StatusConflict {
		t.Fatalf("resident duplicate: %d", st)
	}
}

// TestTestsRunMatchesResponses is the handler-level half of the accounting
// contract: the "tests" fields of every admit and probe response a client
// saw — single, explained, batch — add up to /v1/stats' tests_run, and an
// explained decision ran exactly one test per core in its trace.
func TestTestsRunMatchesResponses(t *testing.T) {
	d := newTestDaemon(t)
	sum := 0
	for i, test := range []string{"EDF-VD", "EY", "AMC-max"} {
		base := fmt.Sprintf("%s/v1/systems/t%d", d.URL, i)
		call(t, "POST", d.URL+"/v1/systems", fmt.Sprintf(`{"id":"t%d","processors":2,"test":%q}`, i, test), nil)
		// Five u^H = 0.2 tasks per core fill both cores at the HI level; the
		// rest of the stream is rejected after a scan of every core.
		for id := 1; id <= 14; id++ {
			body := fmt.Sprintf(`{"task":`+hcTask+`}`, id)
			var probe admission.AdmitResult
			if st := call(t, "POST", base+"/probe", body, &probe); st != http.StatusOK {
				t.Fatalf("probe: status %d", st)
			}
			var admit explainResponse
			if st := call(t, "POST", base+"/admit?explain=1", body, &admit); st != http.StatusOK {
				t.Fatalf("admit: status %d", st)
			}
			if admit.Tests != len(admit.Trace.Cores) || probe.Tests != admit.Tests {
				t.Fatalf("%s task %d: probe ran %d tests, admit %d, over a scan of %d cores",
					test, id, probe.Tests, admit.Tests, len(admit.Trace.Cores))
			}
			sum += probe.Tests + admit.Tests
		}
		var batch admission.BatchResult
		bb := fmt.Sprintf(`{"tasks":[`+hcTask+`,`+hcTask+`]}`, 101, 102)
		if st := call(t, "POST", base+"/probe", bb, &batch); st != http.StatusOK {
			t.Fatalf("batch probe: status %d", st)
		}
		sum += batch.Tests
	}
	var stats admission.Stats
	if st := call(t, "GET", d.URL+"/v1/stats", "", &stats); st != http.StatusOK {
		t.Fatalf("stats: status %d", st)
	}
	if stats.Rejects == 0 {
		t.Error("stream rejected nothing; full-scan decisions not covered")
	}
	if sum == 0 || stats.TestsRun != uint64(sum) {
		t.Errorf("tests_run = %d, responses sum to %d", stats.TestsRun, sum)
	}
}

// TestDaemonConcurrentClients hammers one daemon instance with 32+
// concurrent clients across shared and private tenants; under -race this is
// the acceptance check for the tenant map and the per-tenant locks.
func TestDaemonConcurrentClients(t *testing.T) {
	d := newTestDaemon(t)
	call(t, "POST", d.URL+"/v1/systems", `{"id":"shared","processors":4,"test":"EDF-VD"}`, nil)

	const clients = 32
	const perClient = 25
	var wg sync.WaitGroup
	errs := make(chan string, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Half the clients also own a private tenant.
			private := ""
			if c%2 == 0 {
				private = fmt.Sprintf("p%d", c)
				if st := call(t, "POST", d.URL+"/v1/systems",
					fmt.Sprintf(`{"id":%q,"processors":2,"test":"EDF-VD"}`, private), nil); st != http.StatusCreated {
					errs <- fmt.Sprintf("client %d: create private: %d", c, st)
					return
				}
			}
			for i := 0; i < perClient; i++ {
				id := c*10000 + i
				body := fmt.Sprintf(`{"task":{"id":%d,"crit":"LO","period":100,"deadline":100,"c_lo":1}}`, id)
				if st := call(t, "POST", d.URL+"/v1/systems/shared/probe", body, nil); st != http.StatusOK {
					errs <- fmt.Sprintf("client %d: probe: %d", c, st)
				}
				var res admission.AdmitResult
				if st := call(t, "POST", d.URL+"/v1/systems/shared/admit", body, &res); st != http.StatusOK {
					errs <- fmt.Sprintf("client %d: admit: %d", c, st)
				}
				if res.Admitted {
					rb := fmt.Sprintf(`{"task_id":%d}`, id)
					if st := call(t, "POST", d.URL+"/v1/systems/shared/release", rb, nil); st != http.StatusOK {
						errs <- fmt.Sprintf("client %d: release: %d", c, st)
					}
				}
				if private != "" {
					call(t, "POST", d.URL+"/v1/systems/"+private+"/admit", body, nil)
				}
				call(t, "GET", d.URL+"/v1/stats", "", nil)
				call(t, "GET", d.URL+"/v1/systems/shared", "", nil)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	var stats admission.Stats
	call(t, "GET", d.URL+"/v1/stats", "", &stats)
	if stats.Systems != 1+clients/2 {
		t.Errorf("systems: %+v", stats)
	}
	// Every admitted shared task was released; private tenants keep theirs.
	var sys systemResponse
	call(t, "GET", d.URL+"/v1/systems/shared", "", &sys)
	if sys.Tasks != 0 {
		t.Errorf("shared tenant holds %d tasks after churn", sys.Tasks)
	}
}
