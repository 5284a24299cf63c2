package admission

import (
	"path/filepath"
	"testing"

	"mcsched/internal/analysis/edfvd"
	"mcsched/internal/journal"
	"mcsched/internal/journal/journaltest"
	"mcsched/internal/mcs"
	"mcsched/internal/mcsio"
)

// lightBatch is n tasks, every third one HC, of utilization at most 1/(2n)
// each: any batch of them fits on one core.
func lightBatch(n int) mcs.TaskSet {
	ts := make(mcs.TaskSet, n)
	for i := range ts {
		period := mcs.Ticks(4*n + i)
		if i%3 == 0 {
			ts[i] = mcs.NewHC(i, 1, 2, period)
		} else {
			ts[i] = mcs.NewLC(i, 1, period)
		}
	}
	return ts
}

// TestBatchCapFailsClosed: a live batch admit or probe of more than MaxBatch
// tasks is refused before any task is analyzed, and one of exactly MaxBatch
// is decided as usual.
func TestBatchCapFailsClosed(t *testing.T) {
	ctrl := NewController(Config{})
	sys, err := ctrl.CreateSystem("b", 2, edfvd.Test{})
	if err != nil {
		t.Fatal(err)
	}
	long := lightBatch(MaxBatch + 1)
	if _, err := sys.AdmitBatch(long); err == nil {
		t.Fatal("AdmitBatch accepted a batch over MaxBatch")
	}
	if _, err := sys.ProbeBatch(long); err == nil {
		t.Fatal("ProbeBatch accepted a batch over MaxBatch")
	}
	if st := ctrl.Stats(); st.TestsRun != 0 || st.Probes != 0 || st.Rejects != 0 || st.Tasks != 0 {
		t.Fatalf("refused batches touched the tenant: %+v", st)
	}
	res, err := sys.AdmitBatch(long[:MaxBatch])
	if err != nil || !res.Admitted {
		t.Fatalf("batch of MaxBatch: admitted=%v, %v", res.Admitted, err)
	}
}

// TestRecoverBatchOverMaxBatch: the cap binds live decisions only. A journal
// holding an admit-batch record longer than MaxBatch — written here straight
// through the journal, as a leader built before the cap could have — recovers
// to the state that wrote it.
func TestRecoverBatchOverMaxBatch(t *testing.T) {
	dir := t.TempDir()
	test := edfvd.Test{}
	ts := lightBatch(MaxBatch + 1)
	ts.SortByLevelUtil() // the order a batch is placed and journaled in

	// A batch places its tasks one after another exactly as single admits
	// would, so admitting them in that order decides the record's cores.
	msys, err := NewController(Config{}).CreateSystem("big", 4, test)
	if err != nil {
		t.Fatal(err)
	}
	batch := mcsio.EventJSON{Kind: mcsio.EventAdmitBatch}
	for _, task := range ts {
		res, err := msys.Admit(task)
		if err != nil || !res.Admitted {
			t.Fatalf("admit %d: %+v, %v", task.ID, res, err)
		}
		batch.Tasks = append(batch.Tasks, mcsio.TaskToJSON(task))
		batch.Cores = append(batch.Cores, res.Core)
	}
	events := []mcsio.EventJSON{
		{Kind: mcsio.EventCreateSystem, System: "big", Processors: 4, Test: test.Name()},
		batch,
	}
	if _, err := journaltest.WriteJSON(filepath.Join(dir, journal.EncodeTenantID("big")), events, nil); err != nil {
		t.Fatal(err)
	}

	ctrl := reopen(t, dir)
	defer ctrl.Close()
	sys, err := ctrl.System("big")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(sys), fingerprint(msys); got != want {
		t.Fatalf("recovered tenant differs:\n got %s\nwant %s", got, want)
	}
	if n := sys.NumTasks(); n != MaxBatch+1 {
		t.Fatalf("recovered %d tasks, want %d", n, MaxBatch+1)
	}
}
