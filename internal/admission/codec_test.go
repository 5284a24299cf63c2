package admission

// Codec-transition and group-commit suite: records are written binary, a
// legacy directory whose history starts in JSON records must still recover
// exactly (including under every-byte truncation across the codec
// boundary), and concurrent decisions under group commit must journal a
// history whose recovery is bit-identical to the live state.

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mcsched/internal/core"
	"mcsched/internal/journal"
	"mcsched/internal/journal/journaltest"
	"mcsched/internal/mcs"
	"mcsched/internal/mcsio"
)

// reopen closes nothing: it builds a controller over dir and recovers it.
func reopen(t *testing.T, dir string) *Controller {
	t.Helper()
	ctrl := NewController(crashConfig(dir))
	if _, err := ctrl.Recover(); err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// TestJournalWritesBinaryByDefault: a journaled controller configured with
// nothing but its data directory writes binary records and a binary
// snapshot.
func TestJournalWritesBinaryByDefault(t *testing.T) {
	dir := t.TempDir()
	ctrl := NewController(Config{DataDir: dir})
	defer ctrl.Close()
	sys, err := ctrl.CreateSystem("b", 2, core.Tests()[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := sys.Admit(mcs.NewLC(i, 1, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.AdmitBatch(mcs.TaskSet{mcs.NewLC(10, 1, 100), mcs.NewHC(11, 1, 2, 100)}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Release(1); err != nil {
		t.Fatal(err)
	}
	recs, _, err := sys.Journal().ReadFrom(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("%d records, want 6", len(recs))
	}
	for i, r := range recs {
		if !mcsio.IsBinaryRecord(r) {
			t.Fatalf("record %d is not binary: %q", i+1, r)
		}
	}
	if err := ctrl.SnapshotSystem("b"); err != nil {
		t.Fatal(err)
	}
	snap, _, ok, err := sys.Journal().Snapshot()
	if err != nil || !ok {
		t.Fatalf("snapshot: ok=%v, %v", ok, err)
	}
	if !mcsio.IsBinaryRecord(snap) {
		t.Fatalf("snapshot is not binary: %q", snap)
	}
}

// TestRecoverMixedCodecJournal writes a legacy directory of JSON records,
// reopens it (new records are binary) and extends it, then requires (a)
// full recovery to match the live fingerprint and (b) every byte-offset
// truncation of the mixed segment to land on exactly some committed prefix
// — the codec boundary must not introduce a single unrecoverable offset.
func TestRecoverMixedCodecJournal(t *testing.T) {
	dir := t.TempDir()

	// Generation 1: JSON records written by hand from the decisions of an
	// unjournaled controller.
	test := core.Tests()[0]
	msys, err := NewController(Config{}).CreateSystem("m", 2, test)
	if err != nil {
		t.Fatal(err)
	}
	states := []string{fingerprint(msys)}
	events := []mcsio.EventJSON{{Kind: mcsio.EventCreateSystem, System: "m", Processors: 2, Test: test.Name()}}
	for i := 0; i < 4; i++ {
		task := mcs.NewLC(i, 1, 50+mcs.Ticks(i))
		res, err := msys.Admit(task)
		if err != nil || !res.Admitted {
			t.Fatalf("admit %d: %+v, %v", i, res, err)
		}
		j := mcsio.TaskToJSON(task)
		events = append(events, mcsio.EventJSON{Kind: mcsio.EventAdmit, Task: &j, Core: res.Core})
		states = append(states, fingerprint(msys))
	}
	if _, err := journaltest.WriteJSON(filepath.Join(dir, journal.EncodeTenantID("m")), events, nil); err != nil {
		t.Fatal(err)
	}

	// Generation 2: binary records appended to the same journal.
	live2 := reopen(t, dir)
	sys2, err := live2.System("m")
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(sys2) != states[len(states)-1] {
		t.Fatal("reopen diverged before any new append")
	}
	for i := 4; i < 8; i++ {
		if _, err := sys2.Admit(mcs.NewLC(i, 1, 50+mcs.Ticks(i))); err != nil {
			t.Fatal(err)
		}
		states = append(states, fingerprint(sys2))
	}
	if _, err := sys2.Release(5); err != nil {
		t.Fatal(err)
	}
	states = append(states, fingerprint(sys2))
	finalFP := fingerprint(sys2)
	if err := live2.Close(); err != nil {
		t.Fatal(err)
	}

	// The segment really is mixed: JSON records first, binary after.
	recs := readTenantRecords(t, dir, "m")
	if !mcsio.IsBinaryRecord(recs[len(recs)-1]) || mcsio.IsBinaryRecord(recs[0]) {
		t.Fatalf("journal not mixed: first binary=%v, last binary=%v",
			mcsio.IsBinaryRecord(recs[0]), mcsio.IsBinaryRecord(recs[len(recs)-1]))
	}

	// Full recovery is exact.
	rec := reopen(t, dir)
	rsys, err := rec.System("m")
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(rsys); got != finalFP {
		t.Fatalf("recovery diverged:\n%s\n%s", finalFP, got)
	}
	rec.Close()

	// Every-byte truncation across the whole mixed segment.
	seg := tenantSegment(t, dir, "m")
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	valid := make(map[string]int, len(states))
	for i, fp := range states {
		valid[fp] = i
	}
	lastPrefix := -1
	for cut := int64(0); cut <= int64(len(full)); cut++ {
		cloneDir := truncatedCopy(t, dir, "m", cut)
		rec := NewController(crashConfig(cloneDir))
		rs, err := rec.Recover()
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		if rs.Systems == 0 {
			if lastPrefix >= 0 {
				t.Fatalf("cut=%d: tenant vanished after being recoverable at smaller cuts", cut)
			}
			rec.Close()
			continue
		}
		rsys, err := rec.System("m")
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		idx, ok := valid[fingerprint(rsys)]
		if !ok {
			t.Fatalf("cut=%d: recovered state matches no committed prefix:\n%s", cut, fingerprint(rsys))
		}
		if idx < lastPrefix {
			t.Fatalf("cut=%d: recovered prefix %d after prefix %d at a smaller cut", cut, idx, lastPrefix)
		}
		lastPrefix = idx
		rec.Close()
	}
	if lastPrefix != len(states)-1 {
		t.Fatalf("full journal recovered prefix %d, want %d", lastPrefix, len(states)-1)
	}
}

// readTenantRecords reads a closed tenant journal's raw records.
func readTenantRecords(t *testing.T, dataDir, id string) [][]byte {
	t.Helper()
	lg, err := journal.Open(filepath.Join(dataDir, journal.EncodeTenantID(id)), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	recs, _, err := lg.ReadFrom(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestGroupCommitConcurrentDecisionsRecover hammers one tenant with
// concurrent admits and releases under the default config + fsync (every
// journaled decision goes through group commit), then requires
// a fresh recovery of the journal to reproduce the live partition bit for
// bit and the journal to have actually coalesced (group commits counted).
// Run under -race this also exercises the ticket protocol's publication
// ordering end to end. The subtest is named after the codec of the
// records, which is always binary.
func TestGroupCommitConcurrentDecisionsRecover(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		dir := t.TempDir()
		cfg := crashConfig(dir)
		cfg.Fsync = true
		live := NewController(cfg)
		sys, err := live.CreateSystem("g", 8, core.Tests()[0])
		if err != nil {
			t.Fatal(err)
		}

		const workers, perWorker = 8, 12
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					id := w*perWorker + i
					if _, err := sys.Admit(mcs.NewLC(id, 1, 10_000)); err != nil {
						t.Error(err)
						return
					}
					if i%3 == 2 {
						if _, err := sys.Release(id); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		liveFP := fingerprint(sys)
		js, ok := sys.JournalStats()
		if !ok {
			t.Fatal("journaling enabled but no journal stats")
		}
		if js.GroupCommits == 0 {
			t.Fatal("journaled decisions but no group commits counted")
		}
		if js.GroupCommits > js.Records {
			t.Fatalf("more group commits (%d) than records (%d)", js.GroupCommits, js.Records)
		}
		if err := live.Close(); err != nil {
			t.Fatal(err)
		}

		rec := reopen(t, dir)
		defer rec.Close()
		rsys, err := rec.System("g")
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(rsys); got != liveFP {
			t.Fatalf("recovery after concurrent group commit diverged:\n%s\n%s", liveFP, got)
		}
	})
}
