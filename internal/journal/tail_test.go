package journal

import (
	"errors"
	"fmt"
	"testing"
)

// TestReadFromCursor walks a cursor over a multi-segment log in varying
// batch sizes and requires it to reproduce exactly the records Replay sees.
func TestReadFromCursor(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64}) // tiny segments force rolls
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 40
	var want []string
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("record-%03d", i)
		if _, err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	for _, batch := range []int{1, 3, 7, n, n + 100} {
		var got []string
		cursor := uint64(1)
		for {
			recs, next, err := l.ReadFrom(cursor, batch)
			if err != nil {
				t.Fatalf("ReadFrom(%d,%d): %v", cursor, batch, err)
			}
			if next != cursor+uint64(len(recs)) {
				t.Fatalf("ReadFrom(%d,%d): next %d with %d records", cursor, batch, next, len(recs))
			}
			if len(recs) == 0 {
				break
			}
			if len(recs) > batch {
				t.Fatalf("ReadFrom returned %d records for max %d", len(recs), batch)
			}
			for _, r := range recs {
				got = append(got, string(r))
			}
			cursor = next
		}
		if cursor != l.NextSeq() {
			t.Fatalf("cursor stopped at %d, tail is %d", cursor, l.NextSeq())
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("batch %d diverged:\n%v\n%v", batch, got, want)
		}
	}
	// Reading exactly at the tail is an empty, error-free read.
	recs, next, err := l.ReadFrom(l.NextSeq(), 10)
	if err != nil || len(recs) != 0 || next != l.NextSeq() {
		t.Fatalf("read at tail: %d records, next %d, err %v", len(recs), next, err)
	}
	// Reading beyond the tail is a gap.
	if _, _, err := l.ReadFrom(l.NextSeq()+1, 1); !errors.Is(err, ErrGap) {
		t.Fatalf("read past tail: %v, want ErrGap", err)
	}
	// Sequence 0 is invalid.
	if _, _, err := l.ReadFrom(0, 1); err == nil {
		t.Fatal("read from sequence 0 accepted")
	}
}

// TestReadFromCompacted: once a snapshot truncates the log, reads at or
// before the snapshot sequence must report ErrCompacted, and reads after it
// keep working.
func TestReadFromCompacted(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteSnapshot([]byte("state@10"), 10); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 14; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, from := range []uint64{1, 5, 10} {
		if _, _, err := l.ReadFrom(from, 5); !errors.Is(err, ErrCompacted) {
			t.Fatalf("ReadFrom(%d) after snapshot: %v, want ErrCompacted", from, err)
		}
	}
	recs, next, err := l.ReadFrom(11, 100)
	if err != nil || len(recs) != 4 || next != 15 {
		t.Fatalf("ReadFrom(11): %d records, next %d, err %v", len(recs), next, err)
	}
	if string(recs[0]) != "r10" || string(recs[3]) != "r13" {
		t.Fatalf("post-snapshot records wrong: %q..%q", recs[0], recs[3])
	}
}

// TestInstallSnapshot: a follower log adopts a foreign snapshot, resumes
// appending at seq+1, refuses to rewind, and recovers across reopen.
func TestInstallSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Fresh log adopts a snapshot covering 1..7.
	if err := l.InstallSnapshot([]byte("state@7"), 7); err != nil {
		t.Fatal(err)
	}
	if l.NextSeq() != 8 || l.SnapshotSeq() != 7 {
		t.Fatalf("after install: next %d snap %d, want 8/7", l.NextSeq(), l.SnapshotSeq())
	}
	seq, err := l.Append([]byte("r8"))
	if err != nil || seq != 8 {
		t.Fatalf("append after install: seq %d err %v", seq, err)
	}
	// Rewinding below the tail is refused.
	if err := l.InstallSnapshot([]byte("old"), 3); err == nil {
		t.Fatal("snapshot rewind accepted")
	}
	if err := l.InstallSnapshot([]byte("zero"), 0); err == nil {
		t.Fatal("snapshot at sequence 0 accepted")
	}
	// Jumping forward (a newer snapshot from the peer) discards the tail it
	// covers.
	if err := l.InstallSnapshot([]byte("state@20"), 20); err != nil {
		t.Fatal(err)
	}
	if l.NextSeq() != 21 {
		t.Fatalf("after forward install: next %d, want 21", l.NextSeq())
	}
	if _, err := l.Append([]byte("r21")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Reopen: the installed snapshot and the post-install record survive.
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	payload, snapSeq, ok, err := r.Snapshot()
	if err != nil || !ok || snapSeq != 20 || string(payload) != "state@20" {
		t.Fatalf("reopened snapshot: %q@%d ok=%v err=%v", payload, snapSeq, ok, err)
	}
	recs, next, err := r.ReadFrom(21, 10)
	if err != nil || len(recs) != 1 || next != 22 || string(recs[0]) != "r21" {
		t.Fatalf("reopened tail: %d records next %d err %v", len(recs), next, err)
	}
}
