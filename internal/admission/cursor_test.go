package admission

// Regression suite for the next-fit cursor leak: a batch that is placed
// tentatively and then rolled back — a read-only ProbeBatch, or an
// AdmitBatch one task too large — must leave the nf cursor where it found
// it. Assigner.Remove does not rewind the cursor, so before the fix the
// next admit was journaled from a cursor no event had produced: Recover
// failed closed on the leader's own journal and a follower refused the
// record forever.

import (
	"testing"

	"mcsched/internal/analysis/edfvd"
	"mcsched/internal/mcs"
)

func TestRollbackRestoresNextFitCursor(t *testing.T) {
	// Three 0.6-utilization tasks spread over cores 0, 1 and 2 of an nf
	// tenant already holding 0.1 on core 0, dragging the cursor to core 2; a
	// fourth fits nowhere and turns the batch into a rejected one.
	batch := mcs.TaskSet{mcs.NewLC(2, 6, 10), mcs.NewLC(3, 6, 10), mcs.NewLC(4, 6, 10)}
	disturb := map[string]func(t *testing.T, sys *System){
		"probe-batch": func(t *testing.T, sys *System) {
			br, err := sys.ProbeBatch(batch)
			if err != nil || !br.Admitted || br.Results[2].Core != 2 {
				t.Fatalf("probe batch = %+v, %v; want admitted with the last task on core 2", br, err)
			}
		},
		"rejected-batch": func(t *testing.T, sys *System) {
			br, err := sys.AdmitBatch(append(batch.Clone(), mcs.NewLC(5, 6, 10)))
			if err != nil || br.Admitted || len(br.Results) != 4 {
				t.Fatalf("oversized batch = %+v, %v; want rejected at its fourth task", br, err)
			}
		},
	}
	for name, step := range disturb {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.DataDir = t.TempDir()
			cfg.SnapshotEvery = -1
			leader := NewController(cfg)
			sys, err := leader.CreateSystemWithPlacement("t", 3, edfvd.Test{}, "nf")
			if err != nil {
				t.Fatal(err)
			}
			if res, err := sys.Admit(mcs.NewLC(1, 1, 10)); err != nil || res.Core != 0 {
				t.Fatalf("first admit = %+v, %v; want core 0", res, err)
			}
			step(t, sys)
			// The rolled-back batch is no event, so the scan still starts at
			// core 0, where the task fits.
			if res, err := sys.Admit(mcs.NewLC(9, 1, 10)); err != nil || res.Core != 0 {
				t.Fatalf("admit after the rollback = %+v, %v; want core 0 (cursor leaked)", res, err)
			}
			want := sys.Fingerprint()

			// (b) A follower fed the leader's committed records applies all of
			// them.
			recs, next, err := sys.Journal().ReadFrom(1, 16)
			if err != nil || len(recs) != 3 {
				t.Fatalf("ReadFrom(1) = %d records, next %d, %v; want create + two admits", len(recs), next, err)
			}
			fcfg := cfg
			fcfg.DataDir = t.TempDir()
			fcfg.Follower = true
			follower := NewController(fcfg)
			defer follower.Close()
			if _, applied, err := follower.ApplyReplicatedRecords("t", 1, recs); err != nil || applied != len(recs) {
				t.Fatalf("follower applied %d of %d records: %v", applied, len(recs), err)
			}
			fsys, err := follower.System("t")
			if err != nil {
				t.Fatal(err)
			}
			if got := fsys.Fingerprint(); got != want {
				t.Fatalf("follower diverged:\n%s\n%s", want, got)
			}

			// (a) The leader's own journal recovers to the same state.
			if err := leader.Close(); err != nil {
				t.Fatal(err)
			}
			rec := NewController(cfg)
			defer rec.Close()
			if _, err := rec.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			rsys, err := rec.System("t")
			if err != nil {
				t.Fatal(err)
			}
			if got := rsys.Fingerprint(); got != want {
				t.Fatalf("recovered state diverged:\n%s\n%s", want, got)
			}
		})
	}
}
