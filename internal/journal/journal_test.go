package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mcsched/internal/obs"
)

// collect replays the whole log into a slice of (seq, payload).
func collect(t *testing.T, l *Log, from uint64) (seqs []uint64, payloads [][]byte) {
	t.Helper()
	err := l.Replay(from, func(seq uint64, payload []byte) error {
		seqs = append(seqs, seq)
		payloads = append(payloads, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return seqs, payloads
}

func TestJournalAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 20; i++ {
		p := []byte(fmt.Sprintf("record-%d", i))
		want = append(want, p)
		seq, err := l.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.NextSeq(); got != 21 {
		t.Fatalf("NextSeq = %d, want 21", got)
	}
	seqs, payloads := collect(t, l2, 1)
	if len(seqs) != 20 {
		t.Fatalf("replayed %d records, want 20", len(seqs))
	}
	for i := range seqs {
		if seqs[i] != uint64(i+1) || !bytes.Equal(payloads[i], want[i]) {
			t.Fatalf("record %d: seq=%d payload=%q, want seq=%d payload=%q",
				i, seqs[i], payloads[i], i+1, want[i])
		}
	}
	// Appends continue where the old process stopped.
	if seq, err := l2.Append([]byte("after")); err != nil || seq != 21 {
		t.Fatalf("append after reopen: seq=%d err=%v", seq, err)
	}
}

func TestJournalSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	// Four 18-byte frames fill a segment exactly, and a full segment rolls:
	// 30 records take eight segments.
	const segBytes = 4 * (frameHeader + int64(len("payload-00")))
	l, err := Open(dir, Options{SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("payload-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments != 8 {
		t.Fatalf("30 records in segments of 4: %d segments, want 8", st.Segments)
	}
	l.Close()

	l2, err := Open(dir, Options{SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	seqs, _ := collect(t, l2, 1)
	if len(seqs) != 30 {
		t.Fatalf("replayed %d records across segments, want 30", len(seqs))
	}
	// Replay from the middle skips the prefix but stays continuous.
	seqs, _ = collect(t, l2, 17)
	if len(seqs) != 14 || seqs[0] != 17 {
		t.Fatalf("partial replay: got %d records from %d", len(seqs), seqs[0])
	}
}

// TestJournalTornTail truncates the tail record at every possible byte
// boundary and requires the journal to come back with exactly the records
// before it — never an error, never a partial record.
func TestJournalTornTail(t *testing.T) {
	build := func(dir string) (lastSegment string, tailStart int64) {
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := l.Append([]byte(fmt.Sprintf("rec-%d-%s", i, strings.Repeat("x", 40)))); err != nil {
				t.Fatal(err)
			}
		}
		pre, err := os.Stat(segmentPath(t, dir))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append([]byte("tail-record")); err != nil {
			t.Fatal(err)
		}
		l.Close()
		return segmentPath(t, dir), pre.Size()
	}

	dir := t.TempDir()
	seg, tailStart := build(dir)
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for cut := tailStart; cut < int64(len(full)); cut++ {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, filepath.Base(seg)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(sub, Options{})
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		if got := l.NextSeq(); got != 6 {
			t.Fatalf("cut=%d: NextSeq=%d, want 6 (torn tail dropped)", cut, got)
		}
		seqs, _ := collect(t, l, 1)
		if len(seqs) != 5 {
			t.Fatalf("cut=%d: replayed %d records, want 5", cut, len(seqs))
		}
		// The truncated journal accepts new appends at the recovered seq.
		if seq, err := l.Append([]byte("fresh")); err != nil || seq != 6 {
			t.Fatalf("cut=%d: append: seq=%d err=%v", cut, seq, err)
		}
		l.Close()
	}
}

// segmentPath returns the single segment file in dir.
func segmentPath(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one segment, got %v (err=%v)", matches, err)
	}
	return matches[0]
}

// TestJournalCorruptMiddleFailsClosed flips a byte in a record with valid
// acknowledged records after it and requires recovery to abort rather than
// silently truncate them away as if they were a torn tail.
func TestJournalCorruptMiddleFailsClosed(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-number-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	seg := segmentPath(t, dir)
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[frameHeader+2] ^= 0xff // first record's payload
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}

	// Mid-segment corruption of the (only) tail segment: records 2..8 are
	// intact after the damage, so this is not a torn tail — Open must
	// refuse rather than drop seven acknowledged records.
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-segment corruption opened without error: %v", err)
	}

	// Same damage in a non-tail segment: replay must abort too.
	sub := t.TempDir()
	if err := os.WriteFile(filepath.Join(sub, filepath.Base(seg)), b, 0o644); err != nil {
		t.Fatal(err)
	}
	next := frameRecord([]byte("seq-9"))
	if err := os.WriteFile(filepath.Join(sub, fmt.Sprintf("%s%020d%s", segPrefix, 9, segSuffix)), next, 0o644); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(sub, Options{}) // tail segment (seq 9) is intact
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	err = l3.Replay(1, func(uint64, []byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrGap) {
		t.Fatalf("corrupt non-tail segment replayed without error: %v", err)
	}
}

func TestJournalSnapshotTruncates(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("event-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	state := []byte("state-after-12")
	if err := l.WriteSnapshot(state, 12); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Segments != 0 || st.SnapshotSeq != 12 {
		t.Fatalf("after snapshot: %+v", st)
	}
	// Appends continue past the snapshot.
	if seq, err := l.Append([]byte("event-13")); err != nil || seq != 13 {
		t.Fatalf("append after snapshot: seq=%d err=%v", seq, err)
	}
	l.Close()

	l2, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	payload, seq, ok, err := l2.Snapshot()
	if err != nil || !ok || seq != 12 || !bytes.Equal(payload, state) {
		t.Fatalf("snapshot readback: ok=%v seq=%d payload=%q err=%v", ok, seq, payload, err)
	}
	seqs, payloads := collect(t, l2, seq+1)
	if len(seqs) != 1 || seqs[0] != 13 || string(payloads[0]) != "event-13" {
		t.Fatalf("post-snapshot replay: %v %q", seqs, payloads)
	}
}

func TestJournalSnapshotMustCoverTail(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot([]byte("s"), 1); err == nil {
		t.Fatal("snapshot at seq 1 accepted with tail at 2")
	}
	if err := l.WriteSnapshot([]byte("s"), 3); err == nil {
		t.Fatal("snapshot past the tail accepted")
	}
	if err := l.WriteSnapshot([]byte("s"), 2); err != nil {
		t.Fatal(err)
	}
	// A repeated snapshot at the same tail is idempotent.
	if err := l.WriteSnapshot([]byte("s2"), 2); err != nil {
		t.Fatal(err)
	}
	payload, seq, ok, err := l.Snapshot()
	if err != nil || !ok || seq != 2 || string(payload) != "s2" {
		t.Fatalf("snapshot readback: ok=%v seq=%d payload=%q err=%v", ok, seq, payload, err)
	}
}

func TestJournalFsyncPolicy(t *testing.T) {
	reg := obs.NewRegistry()
	hist := func(name string) *obs.Histogram { return reg.NewHistogram(name, name, obs.LatencyBuckets) }
	m := &Metrics{AppendSeconds: hist("append"), FsyncSeconds: hist("fsync"), SnapshotSeconds: hist("snapshot"), BatchRecords: hist("batch")}
	l, err := Open(t.TempDir(), Options{Fsync: true, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Fsyncs < 3 {
		t.Fatalf("fsync policy on but only %d fsyncs for 3 appends", st.Fsyncs)
	}
	// Each fsync's clock started at the sync: three of them sum to far
	// below a minute.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	_, sum, _ := strings.Cut(b.String(), "fsync_sum ")
	if secs, err := strconv.ParseFloat(strings.Fields(sum)[0], 64); err != nil || secs >= 60 || m.FsyncSeconds.Count() != 3 {
		t.Errorf("fsync histogram: %d observations summing to %q (%v)", m.FsyncSeconds.Count(), strings.Fields(sum)[0], err)
	}
}

func TestJournalRecordTooLarge(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(make([]byte, MaxRecord+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized record: %v", err)
	}
}

func TestJournalClosed(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on closed log: %v", err)
	}
	if err := l.WriteSnapshot([]byte("x"), 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("snapshot on closed log: %v", err)
	}
}

func TestTenantIDEncoding(t *testing.T) {
	cases := []string{"s1", "tenant-7", "has space", "α/β", "..", "a/../../b", "%41", "", "UPPER_lower-09"}
	seen := map[string]bool{}
	for _, id := range cases {
		enc := EncodeTenantID(id)
		if strings.ContainsAny(enc, "/\\") || enc == "." || enc == ".." {
			t.Fatalf("EncodeTenantID(%q) = %q is not filesystem safe", id, enc)
		}
		if seen[enc] {
			t.Fatalf("encoding collision on %q", enc)
		}
		seen[enc] = true
		dec, err := DecodeTenantID(enc)
		if err != nil || dec != id {
			t.Fatalf("round trip %q -> %q -> %q (err=%v)", id, enc, dec, err)
		}
	}
	if _, err := DecodeTenantID("%zz"); err == nil {
		t.Fatal("bad escape decoded")
	}
	if _, err := DecodeTenantID("%4"); err == nil {
		t.Fatal("truncated escape decoded")
	}
	// Names EncodeTenantID never writes would give one tenant two
	// directories.
	for _, alias := range []string{"%61b", "a.b", "%2e"} {
		if id, err := DecodeTenantID(alias); err == nil {
			t.Fatalf("non-canonical name %q decoded as %q", alias, id)
		}
	}
}

func TestRemoveTenantDirAndSweep(t *testing.T) {
	dataDir := t.TempDir()
	dir := filepath.Join(dataDir, EncodeTenantID("gone"))
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := RemoveTenantDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("tenant dir survived removal: %v", err)
	}
	// Removing a missing dir is a no-op.
	if err := RemoveTenantDir(dir); err != nil {
		t.Fatal(err)
	}
	// A crash between rename and delete leaves a tombstone: it must be
	// invisible to ListTenants and cleaned by SweepRemoved.
	tomb := filepath.Join(dataDir, EncodeTenantID("half")+removingSuffix)
	if err := os.MkdirAll(tomb, 0o755); err != nil {
		t.Fatal(err)
	}
	ts, err := ListTenants(dataDir)
	if err != nil || len(ts) != 0 {
		t.Fatalf("tombstone listed as tenant: %v %v", ts, err)
	}
	if err := SweepRemoved(dataDir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tomb); !os.IsNotExist(err) {
		t.Fatalf("tombstone survived sweep: %v", err)
	}
}

func TestListTenants(t *testing.T) {
	if ts, err := ListTenants(filepath.Join(t.TempDir(), "missing")); err != nil || len(ts) != 0 {
		t.Fatalf("missing data dir: %v %v", ts, err)
	}
	dataDir := t.TempDir()
	for _, id := range []string{"beta", "alpha", "with space"} {
		if err := os.MkdirAll(filepath.Join(dataDir, EncodeTenantID(id)), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	// A stray file is ignored; only directories are tenants.
	if err := os.WriteFile(filepath.Join(dataDir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ts, err := ListTenants(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, tn := range ts {
		ids = append(ids, tn.ID)
	}
	want := []string{"alpha", "beta", "with space"}
	if fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Fatalf("ListTenants = %v, want %v", ids, want)
	}
}
