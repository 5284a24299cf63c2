package main

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"mcsched/internal/admission"
	"mcsched/internal/obs"
	"mcsched/internal/replication"
)

// newInstrumentedDaemon builds the daemon exactly as main does: metrics
// enabled before any traffic, the server wrapped with the obs middleware,
// and the ops handler sharing the same registry and controller.
func newInstrumentedDaemon(t *testing.T, follower bool) (*httptest.Server, *httptest.Server, *admission.Controller) {
	t.Helper()
	cfg := admission.DefaultConfig()
	cfg.Follower = follower
	ctrl := admission.NewController(cfg)
	reg := obs.NewRegistry()
	ctrl.EnableMetrics(reg)
	srv := newServer(ctrl).instrument(reg, slog.New(slog.DiscardHandler))
	if follower {
		srv.withReceiver(replication.NewReceiver(ctrl))
	}
	api := httptest.NewServer(srv)
	ops := httptest.NewServer(newOpsHandler(reg, ctrl))
	t.Cleanup(api.Close)
	t.Cleanup(ops.Close)
	return api, ops, ctrl
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

// TestMetricsEndpointCoversSubsystems drives traffic through the API and
// asserts /metrics carries HTTP and admission series reflecting it.
func TestMetricsEndpointCoversSubsystems(t *testing.T) {
	api, ops, _ := newInstrumentedDaemon(t, false)

	if st := call(t, "POST", api.URL+"/v1/systems",
		`{"id":"acme","processors":2,"test":"EDF-VD"}`, nil); st != http.StatusCreated {
		t.Fatalf("create: %d", st)
	}
	body := fmt.Sprintf(`{"task":`+hcTask+`}`, 1)
	if st := call(t, "POST", api.URL+"/v1/systems/acme/admit", body, nil); st != http.StatusOK {
		t.Fatalf("admit: %d", st)
	}
	// One deliberate failure so the 4xx class counts too.
	if st := call(t, "GET", api.URL+"/v1/systems/nope", "", nil); st != http.StatusNotFound {
		t.Fatalf("missing system: %d", st)
	}

	st, exposition := getBody(t, ops.URL+"/metrics")
	if st != http.StatusOK {
		t.Fatalf("/metrics: %d", st)
	}
	for _, want := range []string{
		`mcsched_http_requests_total{code="2xx",method="POST",route="/v1/systems/{id}/admit"} 1`,
		`mcsched_http_requests_total{code="4xx",method="GET",route="/v1/systems/{id}"} 1`,
		`mcsched_http_request_duration_seconds_count{method="POST",route="/v1/systems/{id}/admit"} 1`,
		"mcsched_admission_admits_total 1",
		"mcsched_admission_admit_duration_seconds_count 1",
		"mcsched_admission_systems 1",
		"mcsched_admission_tasks 1",
		"mcsched_admission_follower 0",
		"# TYPE mcsched_http_request_duration_seconds histogram",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", exposition)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	_, ops, _ := newInstrumentedDaemon(t, false)
	if st, body := getBody(t, ops.URL+"/healthz"); st != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("healthz: %d %q", st, body)
	}
	if st, body := getBody(t, ops.URL+"/readyz"); st != http.StatusOK || !strings.Contains(body, "leader") {
		t.Errorf("readyz leader: %d %q", st, body)
	}
}

func TestReadinessFollowerRoleAware(t *testing.T) {
	_, ops, ctrl := newInstrumentedDaemon(t, true)
	if st, body := getBody(t, ops.URL+"/healthz"); st != http.StatusOK {
		t.Errorf("follower healthz: %d %q", st, body)
	}
	if st, body := getBody(t, ops.URL+"/readyz"); st != http.StatusServiceUnavailable || !strings.Contains(body, "follower") {
		t.Errorf("follower readyz: %d %q", st, body)
	}
	// Promotion flips readiness without a restart.
	ctrl.Promote()
	if st, _ := getBody(t, ops.URL+"/readyz"); st != http.StatusOK {
		t.Errorf("promoted readyz: %d", st)
	}
}

func TestRequestIDEchoOnServiceListener(t *testing.T) {
	api, _, _ := newInstrumentedDaemon(t, false)
	req, _ := http.NewRequest("GET", api.URL+"/v1/systems", nil)
	req.Header.Set("X-Request-Id", "trace-me-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "trace-me-1" {
		t.Errorf("request ID not echoed: %q", got)
	}
}

// TestExplainEndpoint exercises ?explain=1 end to end: per-core trace on
// single-task admit/probe, and a 400 on batch+explain.
func TestExplainEndpoint(t *testing.T) {
	api, _, _ := newInstrumentedDaemon(t, false)
	if st := call(t, "POST", api.URL+"/v1/systems",
		`{"id":"acme","processors":2,"test":"EDF-VD"}`, nil); st != http.StatusCreated {
		t.Fatalf("create: %d", st)
	}

	var probe struct {
		admission.AdmitResult
		Trace *admission.DecisionTrace `json:"trace"`
	}
	body := fmt.Sprintf(`{"task":`+hcTask+`}`, 1)
	if st := call(t, "POST", api.URL+"/v1/systems/acme/probe?explain=1", body, &probe); st != http.StatusOK {
		t.Fatalf("probe explain: %d", st)
	}
	if probe.Trace == nil || !probe.Trace.Admitted || len(probe.Trace.Cores) == 0 {
		t.Fatalf("probe trace %+v", probe.Trace)
	}
	if probe.Trace.Test != "EDF-VD" || probe.Trace.Policy == "" {
		t.Errorf("trace header %+v", probe.Trace)
	}
	for _, ct := range probe.Trace.Cores {
		if ct.Via == "" {
			t.Errorf("core %d: empty via", ct.Core)
		}
	}

	var admit struct {
		admission.AdmitResult
		Trace *admission.DecisionTrace `json:"trace"`
	}
	if st := call(t, "POST", api.URL+"/v1/systems/acme/admit?explain=true", body, &admit); st != http.StatusOK {
		t.Fatalf("admit explain: %d", st)
	}
	if admit.Trace == nil || !admit.Admitted || admit.Trace.Core != admit.Core {
		t.Fatalf("admit trace %+v vs result %+v", admit.Trace, admit.AdmitResult)
	}

	// Batch decisions cannot be explained.
	bb := fmt.Sprintf(`{"tasks":[`+hcTask+`]}`, 2)
	var fail errorResponse
	if st := call(t, "POST", api.URL+"/v1/systems/acme/admit?explain=1", bb, &fail); st != http.StatusBadRequest {
		t.Fatalf("batch explain: %d", st)
	}
	if !strings.Contains(fail.Error, "single-task") {
		t.Errorf("batch explain error %q", fail.Error)
	}

	// Without the parameter the response shape is unchanged (no trace key).
	req, _ := http.NewRequest("POST", api.URL+"/v1/systems/acme/probe",
		strings.NewReader(fmt.Sprintf(`{"task":`+hcTask+`}`, 3)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(raw), `"trace"`) {
		t.Errorf("plain probe leaked a trace: %s", raw)
	}
}

// TestStatsAndMetricsAgree reads the same counters through both surfaces
// after traffic and requires them to be the very same numbers.
func TestStatsAndMetricsAgree(t *testing.T) {
	api, ops, _ := newInstrumentedDaemon(t, false)
	if st := call(t, "POST", api.URL+"/v1/systems",
		`{"id":"acme","processors":2,"test":"EDF-VD"}`, nil); st != http.StatusCreated {
		t.Fatalf("create: %d", st)
	}
	for i := 1; i <= 3; i++ {
		body := fmt.Sprintf(`{"task":`+hcTask+`}`, i)
		if st := call(t, "POST", api.URL+"/v1/systems/acme/admit", body, nil); st != http.StatusOK {
			t.Fatalf("admit %d", i)
		}
	}
	call(t, "POST", api.URL+"/v1/systems/acme/probe",
		fmt.Sprintf(`{"task":`+hcTask+`}`, 9), nil)

	var stats admission.Stats
	if st := call(t, "GET", api.URL+"/v1/stats", "", &stats); st != http.StatusOK {
		t.Fatalf("stats: %d", st)
	}
	_, exposition := getBody(t, ops.URL+"/metrics")
	for name, want := range map[string]uint64{
		"mcsched_admission_admits_total":    stats.Admits,
		"mcsched_admission_probes_total":    stats.Probes,
		"mcsched_admission_tests_run_total": stats.TestsRun,
	} {
		re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
		m := re.FindStringSubmatch(exposition)
		if m == nil {
			t.Errorf("series %s missing", name)
			continue
		}
		if m[1] != fmt.Sprint(want) {
			t.Errorf("%s = %s on /metrics, %d on /v1/stats", name, m[1], want)
		}
	}
}

func TestOpsHandlerServesPprof(t *testing.T) {
	_, ops, _ := newInstrumentedDaemon(t, false)
	if st, body := getBody(t, ops.URL+"/debug/pprof/cmdline"); st != http.StatusOK || body == "" {
		t.Errorf("pprof cmdline: %d", st)
	}
}
