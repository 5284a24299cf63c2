package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"mcsched"
	"mcsched/internal/admission"
)

// TestEveryTestNameServed: every name the test registry resolves is listed
// by GET /v1/strategies and creates a tenant through POST /v1/systems, and
// that tenant's journal recovers on a controller built from a plain
// admission.Config, with no test resolver of its own.
func TestEveryTestNameServed(t *testing.T) {
	dir := t.TempDir()
	ctrl := admission.NewController(journaledConfig(dir))
	if _, err := ctrl.Recover(); err != nil {
		t.Fatal(err)
	}
	d := httptest.NewServer(newServer(ctrl))
	names := mcsched.TestNames()

	var resp strategiesResponse
	if st := call(t, "GET", d.URL+"/v1/strategies", "", &resp); st != http.StatusOK {
		t.Fatalf("strategies: status %d", st)
	}
	if !reflect.DeepEqual(resp.Tests, names) {
		t.Fatalf("strategies lists tests %q, the registry %q", resp.Tests, names)
	}
	for i, name := range names {
		id := fmt.Sprintf("t%d", i)
		if st := call(t, "POST", d.URL+"/v1/systems",
			fmt.Sprintf(`{"id":%q,"processors":2,"test":%q}`, id, name), nil); st != http.StatusCreated {
			t.Fatalf("create with test %q: status %d", name, st)
		}
		var res admission.AdmitResult
		if st := call(t, "POST", d.URL+"/v1/systems/"+id+"/admit",
			fmt.Sprintf(`{"task":`+hcTask+`}`, i), &res); st != http.StatusOK || !res.Admitted {
			t.Fatalf("admit under %q: status %d, %+v", name, st, res)
		}
	}
	d.Close()
	ctrl.Close()

	rec := admission.NewController(admission.Config{DataDir: dir})
	defer rec.Close()
	rs, err := rec.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Systems != len(names) || rs.Tasks != len(names) {
		t.Fatalf("recovered %d systems with %d tasks, want %d of each", rs.Systems, rs.Tasks, len(names))
	}
	for i, name := range names {
		sys, err := rec.System(fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if sys.TestName() != name {
			t.Errorf("tenant t%d recovered under %q, created under %q", i, sys.TestName(), name)
		}
	}
}
