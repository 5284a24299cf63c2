package admission

import (
	"errors"
	"path/filepath"
	"testing"

	"mcsched/internal/analysis/ecdf"
	"mcsched/internal/analysis/edf"
	"mcsched/internal/analysis/edfvd"
	"mcsched/internal/core"
	"mcsched/internal/journal"
	"mcsched/internal/mcs"
	"mcsched/internal/mcsio"
)

// TestLiveAdmitRefusesUncoveredTask: a tenant under a test that covers
// implicit deadlines only refuses a constrained-deadline task on every live
// path — admit, probe, batch admit and batch probe — with an UncoveredError
// naming the test and the task. One such task refuses the whole batch.
// Nothing is analyzed, staged or counted. A test that covers constrained
// deadlines decides the same task as usual.
func TestLiveAdmitRefusesUncoveredTask(t *testing.T) {
	constrained := mcs.NewHCConstrained(3, 1, 2, 100, 50)
	batch := mcs.TaskSet{mcs.NewLC(1, 1, 100), mcs.NewHC(2, 1, 2, 100), constrained}
	for _, test := range []core.Test{edfvd.Test{}, edf.Test{}} {
		t.Run(test.Name(), func(t *testing.T) {
			ctrl := NewController(Config{DataDir: t.TempDir()})
			defer ctrl.Close()
			sys, err := ctrl.CreateSystem("t", 2, test)
			if err != nil {
				t.Fatal(err)
			}
			next := sys.Journal().NextSeq()
			calls := map[string]func() error{
				"admit":       func() error { _, err := sys.Admit(constrained); return err },
				"probe":       func() error { _, err := sys.Probe(constrained); return err },
				"admit-batch": func() error { _, err := sys.AdmitBatch(batch); return err },
				"probe-batch": func() error { _, err := sys.ProbeBatch(batch); return err },
			}
			for name, call := range calls {
				var uerr core.UncoveredError
				if err := call(); !errors.As(err, &uerr) || uerr.Test != test.Name() || uerr.Task.ID != constrained.ID {
					t.Errorf("%s: err = %v, want an UncoveredError for %s and task %d", name, err, test.Name(), constrained.ID)
				}
				if errors.Is(err, core.ErrUnpartitionable) {
					t.Errorf("%s: %v is a capacity reject, want invalid input", name, err)
				}
			}
			if st := ctrl.Stats(); st.TestsRun != 0 || st.Probes != 0 || st.Rejects != 0 || st.Admits != 0 || st.Tasks != 0 {
				t.Fatalf("refused transitions touched the tenant: %+v", st)
			}
			if got := sys.Journal().NextSeq(); got != next {
				t.Fatalf("journal moved %d → %d", next, got)
			}
			if res, err := sys.AdmitBatch(batch[:2]); err != nil || !res.Admitted {
				t.Fatalf("covered batch: %+v, %v", res, err)
			}
		})
	}

	ctrl := NewController(Config{})
	sys, err := ctrl.CreateSystem("c", 1, ecdf.Test{})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := sys.Admit(constrained); err != nil || !res.Admitted {
		t.Fatalf("ECDF admit of a constrained task: %+v, %v", res, err)
	}
}

// TestReplayKeepsUncoveredAdmit: coverage binds live decisions only, like
// MaxBatch. A journal holding an admit of a constrained-deadline task into
// an EDF-VD tenant — as builds that did not check could write — recovers,
// and a follower applies the same records.
func TestReplayKeepsUncoveredAdmit(t *testing.T) {
	dir := t.TempDir()
	task := mcs.NewHCConstrained(7, 10, 20, 100, 60)
	tj := mcsio.TaskToJSON(task)
	events := []mcsio.EventJSON{
		{Kind: mcsio.EventCreateSystem, System: "vd", Processors: 1, Test: edfvd.Test{}.Name()},
		{Kind: mcsio.EventAdmit, Task: &tj, Core: 0},
	}
	lg, err := journal.Open(filepath.Join(dir, journal.EncodeTenantID("vd")), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	for _, e := range events {
		e.Seq = lg.NextSeq()
		b, err := mcsio.EncodeEventBinary(e)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lg.Append(b); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, b)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	ctrl := reopen(t, dir)
	defer ctrl.Close()
	sys, err := ctrl.System("vd")
	if err != nil {
		t.Fatal(err)
	}
	if p := sys.Snapshot(); len(p.Cores[0]) != 1 || p.Cores[0][0] != task {
		t.Fatalf("recovered partition %v, want task %d on core 0", p.Cores, task.ID)
	}

	fcfg := crashConfig(t.TempDir())
	fcfg.Follower = true
	follower := NewController(fcfg)
	defer follower.Close()
	if _, applied, err := follower.ApplyReplicatedRecords("vd", 1, recs); err != nil || applied != len(recs) {
		t.Fatalf("follower applied %d of %d records: %v", applied, len(recs), err)
	}
	fsys, err := follower.System("vd")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fsys.Fingerprint(), sys.Fingerprint(); got != want {
		t.Fatalf("follower diverged:\n got %s\nwant %s", got, want)
	}
}
