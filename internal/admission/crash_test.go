package admission

// Crash-recovery suite: simulate a controller killed mid-write by
// truncating the journal at every byte offset and recovering from the
// remains. The invariant under test is atomicity — an interrupted batch
// replays as either the complete pre-batch state or the complete
// post-batch state, never a partial admit — and more generally that any
// torn tail recovers to the exact state after some prefix of committed
// events.

import (
	"os"
	"path/filepath"
	"testing"

	"mcsched/internal/core"
	"mcsched/internal/journal"
	"mcsched/internal/mcs"
)

// tenantSegment locates the single journal segment of the given tenant.
func tenantSegment(t *testing.T, dataDir, id string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dataDir, journal.EncodeTenantID(id), "seg-*.wal"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one segment for %q, got %v (err=%v)", id, matches, err)
	}
	return matches[0]
}

// truncatedCopy clones a tenant's journal into a fresh data dir with its
// segment truncated to cut bytes.
func truncatedCopy(t *testing.T, dataDir, id string, cut int64) string {
	t.Helper()
	seg := tenantSegment(t, dataDir, id)
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if cut > int64(len(b)) {
		t.Fatalf("cut %d beyond segment of %d bytes", cut, len(b))
	}
	cloneDir := t.TempDir()
	tenantDir := filepath.Join(cloneDir, journal.EncodeTenantID(id))
	if err := os.MkdirAll(tenantDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tenantDir, filepath.Base(seg)), b[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	return cloneDir
}

// crashConfig journals without snapshots so the whole history sits in one
// segment whose every byte offset we can cut at.
func crashConfig(dir string) Config {
	cfg := DefaultConfig()
	cfg.DataDir = dir
	cfg.SnapshotEvery = -1
	return cfg
}

// TestCrashRecoveryTornBatch kills the journal at every byte offset across
// a batch-admit record and requires recovery to land on exactly the
// pre-batch partitions for every torn prefix and exactly the post-batch
// partitions once the record is complete. Subtests are named after the
// test and the codec of the records they cut, which is always binary;
// legacy JSON records are cut by TestRecoverMixedCodecJournal.
func TestCrashRecoveryTornBatch(t *testing.T) {
	for _, test := range core.Tests() {
		test := test
		t.Run(test.Name()+"/binary", func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			live := NewController(crashConfig(dir))
			sys, err := live.CreateSystem("crash", 4, test)
			if err != nil {
				t.Fatal(err)
			}
			// Pre-batch residents.
			for i := 0; i < 4; i++ {
				if _, err := sys.Admit(mcs.NewLC(i, 1, 50+mcs.Ticks(i))); err != nil {
					t.Fatal(err)
				}
			}
			preFP := fingerprint(sys)
			preStat, err := os.Stat(tenantSegment(t, dir, "crash"))
			if err != nil {
				t.Fatal(err)
			}
			preLen := preStat.Size()

			// The batch: one journal record covering 6 tasks.
			batch := make(mcs.TaskSet, 0, 6)
			for i := 10; i < 16; i++ {
				batch = append(batch, mcs.NewHC(i, 1, 2, 60+mcs.Ticks(i)))
			}
			br, err := sys.AdmitBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			if !br.Admitted {
				t.Fatalf("batch unexpectedly rejected under %s", test.Name())
			}
			postFP := fingerprint(sys)
			fullStat, err := os.Stat(tenantSegment(t, dir, "crash"))
			if err != nil {
				t.Fatal(err)
			}
			fullLen := fullStat.Size()
			live.Close()

			if fullLen <= preLen {
				t.Fatalf("batch appended nothing (%d -> %d bytes)", preLen, fullLen)
			}
			for cut := preLen; cut <= fullLen; cut++ {
				cloneDir := truncatedCopy(t, dir, "crash", cut)
				rec := NewController(crashConfig(cloneDir))
				if _, err := rec.Recover(); err != nil {
					t.Fatalf("cut=%d: recovery failed: %v", cut, err)
				}
				rsys, err := rec.System("crash")
				if err != nil {
					t.Fatalf("cut=%d: %v", cut, err)
				}
				fp := fingerprint(rsys)
				switch {
				case cut < fullLen && fp != preFP:
					t.Fatalf("cut=%d (torn batch record): state is neither pre-batch nor intact:\n%s", cut, fp)
				case cut == fullLen && fp != postFP:
					t.Fatalf("cut=%d (complete record): state is not post-batch:\n%s", cut, fp)
				}
				rec.Close()
			}
		})
	}
}

// TestCrashRecoveryEveryOffset cuts a journal of single admits and
// releases at every byte offset from zero and requires the recovered state
// to be exactly the state after some prefix of committed events — no cut
// may invent, lose or reorder a transition. The subtest is named after the
// codec of the records it cuts, which is always binary; legacy JSON records
// are cut by TestRecoverMixedCodecJournal.
func TestCrashRecoveryEveryOffset(t *testing.T) {
	t.Run("binary", crashRecoveryEveryOffset)
}

func crashRecoveryEveryOffset(t *testing.T) {
	dir := t.TempDir()
	live := NewController(crashConfig(dir))
	sys, err := live.CreateSystem("p", 2, core.Tests()[0])
	if err != nil {
		t.Fatal(err)
	}
	// States after each committed event, in order. Index 0 is the empty
	// system (create event applied).
	states := []string{fingerprint(sys)}
	for i := 0; i < 8; i++ {
		if _, err := sys.Admit(mcs.NewLC(i, 1, 40+2*mcs.Ticks(i))); err != nil {
			t.Fatal(err)
		}
		states = append(states, fingerprint(sys))
		if i%3 == 2 {
			if _, err := sys.Release(i - 1); err != nil {
				t.Fatal(err)
			}
			states = append(states, fingerprint(sys))
		}
	}
	seg := tenantSegment(t, dir, "p")
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	live.Close()

	valid := make(map[string]int, len(states))
	for i, fp := range states {
		valid[fp] = i
	}
	lastPrefix := -1
	for cut := int64(0); cut <= int64(len(full)); cut++ {
		cloneDir := truncatedCopy(t, dir, "p", cut)
		rec := NewController(crashConfig(cloneDir))
		rs, err := rec.Recover()
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		if rs.Systems == 0 {
			// The create event itself is torn: the tenant never existed.
			if lastPrefix >= 0 {
				t.Fatalf("cut=%d: tenant vanished after being recoverable at smaller cuts", cut)
			}
			// Recovery dropped the empty husk, tombstone included.
			if left, err := os.ReadDir(cloneDir); err != nil || len(left) != 0 {
				t.Fatalf("cut=%d: data directory after recovery holds %v (err=%v), want nothing", cut, left, err)
			}
			rec.Close()
			continue
		}
		rsys, err := rec.System("p")
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		idx, ok := valid[fingerprint(rsys)]
		if !ok {
			t.Fatalf("cut=%d: recovered state matches no committed prefix:\n%s", cut, fingerprint(rsys))
		}
		// More bytes can only ever reveal more committed events.
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
