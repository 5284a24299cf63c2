package main

// Restart integration test: a daemon stopped mid-workload and restarted on
// the same -data-dir must resume serving every tenant with no lost
// admitted task — the acceptance criterion of the event-sourced journal,
// exercised end to end through the HTTP surface.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"mcsched/internal/admission"
)

func journaledConfig(dir string) admission.Config {
	cfg := admission.DefaultConfig()
	cfg.DataDir = dir
	cfg.SnapshotEvery = 5 // small, so the test crosses snapshot boundaries
	return cfg
}

func TestServerRestartRecoversTenants(t *testing.T) {
	dir := t.TempDir()

	// ---- First daemon generation: build up state over HTTP. ----
	ctrl := admission.NewController(journaledConfig(dir))
	if _, err := ctrl.Recover(); err != nil {
		t.Fatal(err)
	}
	d := httptest.NewServer(newServer(ctrl))

	if st := call(t, "POST", d.URL+"/v1/systems",
		`{"id":"alpha","processors":4,"test":"EDF-VD"}`, nil); st != http.StatusCreated {
		t.Fatalf("create alpha: status %d", st)
	}
	if st := call(t, "POST", d.URL+"/v1/systems",
		`{"id":"beta","processors":2,"test":"AMC-max"}`, nil); st != http.StatusCreated {
		t.Fatalf("create beta: status %d", st)
	}
	// Singles on alpha (crossing the snapshot-every=5 cadence), a batch,
	// and a release, so recovery spans snapshot + events of every kind.
	for i := 0; i < 7; i++ {
		var res admission.AdmitResult
		if st := call(t, "POST", d.URL+"/v1/systems/alpha/admit",
			fmt.Sprintf(`{"task":`+hcTask+`}`, i), &res); st != http.StatusOK || !res.Admitted {
			t.Fatalf("admit %d on alpha: status %d, %+v", i, st, res)
		}
	}
	var br admission.BatchResult
	if st := call(t, "POST", d.URL+"/v1/systems/alpha/admit",
		fmt.Sprintf(`{"tasks":[`+hcTask+`,`+hcTask+`]}`, 100, 101), &br); st != http.StatusOK || !br.Admitted {
		t.Fatalf("batch on alpha: status %d, %+v", st, br)
	}
	if st := call(t, "POST", d.URL+"/v1/systems/alpha/release", `{"task_id":3}`, nil); st != http.StatusOK {
		t.Fatalf("release on alpha: status %d", st)
	}
	for i := 0; i < 3; i++ {
		var res admission.AdmitResult
		if st := call(t, "POST", d.URL+"/v1/systems/beta/admit",
			fmt.Sprintf(`{"task":`+hcTask+`}`, 50+i), &res); st != http.StatusOK || !res.Admitted {
			t.Fatalf("admit %d on beta: status %d, %+v", i, st, res)
		}
	}
	// Force a snapshot on beta through the new endpoint.
	var snap snapshotResponse
	if st := call(t, "POST", d.URL+"/v1/systems/beta/snapshot", "", &snap); st != http.StatusOK {
		t.Fatalf("snapshot beta: status %d", st)
	}
	if !snap.Journal.Enabled || snap.Journal.Snapshots == 0 || snap.Journal.SnapshotSeq == 0 {
		t.Fatalf("snapshot endpoint reported no snapshot: %+v", snap.Journal)
	}

	var alphaBefore, betaBefore systemResponse
	if st := call(t, "GET", d.URL+"/v1/systems/alpha", "", &alphaBefore); st != http.StatusOK {
		t.Fatalf("get alpha: status %d", st)
	}
	if st := call(t, "GET", d.URL+"/v1/systems/beta", "", &betaBefore); st != http.StatusOK {
		t.Fatalf("get beta: status %d", st)
	}

	// ---- Kill the daemon abruptly: no final snapshot, just Close. ----
	d.Close()
	if err := ctrl.Close(); err != nil {
		t.Fatal(err)
	}

	// ---- Second generation: recover from the same data dir. ----
	ctrl2 := admission.NewController(journaledConfig(dir))
	rs, err := ctrl2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Systems != 2 {
		t.Fatalf("recovered %d systems, want 2", rs.Systems)
	}
	wantTasks := alphaBefore.Tasks + betaBefore.Tasks
	if rs.Tasks != wantTasks {
		t.Fatalf("recovered %d tasks, want %d — an admitted task was lost", rs.Tasks, wantTasks)
	}
	d2 := httptest.NewServer(newServer(ctrl2))
	defer d2.Close()
	defer ctrl2.Close()

	var systems listSystemsResponse
	if st := call(t, "GET", d2.URL+"/v1/systems", "", &systems); st != http.StatusOK {
		t.Fatalf("list systems: status %d", st)
	}
	if fmt.Sprint(systems.Systems) != "[alpha beta]" {
		t.Fatalf("recovered tenants %v, want [alpha beta]", systems.Systems)
	}
	var alphaAfter, betaAfter systemResponse
	if st := call(t, "GET", d2.URL+"/v1/systems/alpha", "", &alphaAfter); st != http.StatusOK {
		t.Fatalf("get alpha after restart: status %d", st)
	}
	if st := call(t, "GET", d2.URL+"/v1/systems/beta", "", &betaAfter); st != http.StatusOK {
		t.Fatalf("get beta after restart: status %d", st)
	}
	if !reflect.DeepEqual(alphaBefore, alphaAfter) {
		t.Fatalf("alpha diverged across restart:\nbefore %+v\nafter  %+v", alphaBefore, alphaAfter)
	}
	if !reflect.DeepEqual(betaBefore, betaAfter) {
		t.Fatalf("beta diverged across restart:\nbefore %+v\nafter  %+v", betaBefore, betaAfter)
	}

	// The recovered daemon keeps serving: release a recovered task, admit
	// a new one, and report journal stats.
	if st := call(t, "POST", d2.URL+"/v1/systems/alpha/release", `{"task_id":100}`, nil); st != http.StatusOK {
		t.Fatalf("release after restart: status %d", st)
	}
	var res admission.AdmitResult
	if st := call(t, "POST", d2.URL+"/v1/systems/alpha/admit",
		fmt.Sprintf(`{"task":`+hcTask+`}`, 200), &res); st != http.StatusOK || !res.Admitted {
		t.Fatalf("admit after restart: status %d, %+v", st, res)
	}
	var stats admission.Stats
	if st := call(t, "GET", d2.URL+"/v1/stats", "", &stats); st != http.StatusOK {
		t.Fatalf("stats: status %d", st)
	}
	if !stats.Journal.Enabled || stats.Journal.RecoveredSystems != 2 {
		t.Fatalf("stats do not report the recovery: %+v", stats.Journal)
	}
}

// TestJournalIOFailureIs503: once the journals are closed (shutdown
// drain, or a dead disk), a valid admit must come back 503 — a retryable
// server fault — not a 4xx blaming the client.
func TestJournalIOFailureIs503(t *testing.T) {
	ctrl := admission.NewController(journaledConfig(t.TempDir()))
	d := httptest.NewServer(newServer(ctrl))
	defer d.Close()
	if st := call(t, "POST", d.URL+"/v1/systems",
		`{"id":"io","processors":2,"test":"EDF-VD"}`, nil); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	if err := ctrl.Close(); err != nil {
		t.Fatal(err)
	}
	if st := call(t, "POST", d.URL+"/v1/systems/io/admit",
		fmt.Sprintf(`{"task":`+hcTask+`}`, 1), nil); st != http.StatusServiceUnavailable {
		t.Fatalf("admit on closed journal: status %d, want 503", st)
	}
	// Probes mutate nothing, so they keep working on a closed journal.
	var res admission.AdmitResult
	if st := call(t, "POST", d.URL+"/v1/systems/io/probe",
		fmt.Sprintf(`{"task":`+hcTask+`}`, 1), &res); st != http.StatusOK || !res.Admitted {
		t.Fatalf("probe on closed journal: status %d, %+v", st, res)
	}
}

// TestSnapshotEndpointWithoutJournal: on an in-memory daemon the snapshot
// endpoint must refuse with 409, not pretend durability.
func TestSnapshotEndpointWithoutJournal(t *testing.T) {
	d := newTestDaemon(t)
	if st := call(t, "POST", d.URL+"/v1/systems",
		`{"id":"mem","processors":2,"test":"EDF-VD"}`, nil); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	if st := call(t, "POST", d.URL+"/v1/systems/mem/snapshot", "", nil); st != http.StatusConflict {
		t.Fatalf("snapshot without journal: status %d, want 409", st)
	}
	if st := call(t, "POST", d.URL+"/v1/systems/ghost/snapshot", "", nil); st != http.StatusNotFound {
		t.Fatalf("snapshot of unknown system: status %d, want 404", st)
	}
}
