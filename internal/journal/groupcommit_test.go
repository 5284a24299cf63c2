package journal

// Group-commit certification: every append stages its record and a flush
// leader commits every staged record at once, so concurrent appends must
// still get unique contiguous sequence numbers, a replayable history
// holding exactly the acknowledged records, fewer flushes than records and
// fail-stop poisoning on I/O errors — under the race detector at any
// GOMAXPROCS (CI runs the whole suite with -race at 1, 2 and the runner's
// default).

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
)

// TestGroupCommitConcurrent hammers one fsync-mode log from many writers
// and demands a perfect committed history: every append acknowledged,
// every sequence unique, and a reopen+replay that returns exactly the
// acknowledged payloads in sequence order.
func TestGroupCommitConcurrent(t *testing.T) {
	const writers, perWriter = 16, 25
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	got := make(map[uint64]string, writers*perWriter)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				payload := fmt.Sprintf("w%d-%d", w, i)
				seq, err := l.Append([]byte(payload))
				if err != nil {
					t.Errorf("append %s: %v", payload, err)
					return
				}
				mu.Lock()
				if prev, dup := got[seq]; dup {
					t.Errorf("sequence %d assigned to both %s and %s", seq, prev, payload)
				}
				got[seq] = payload
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	st := l.Stats()
	if st.Records != writers*perWriter {
		t.Fatalf("Records = %d, want %d", st.Records, writers*perWriter)
	}
	if st.GroupCommits == 0 || st.GroupCommits > st.Records {
		t.Fatalf("GroupCommits = %d with %d records", st.GroupCommits, st.Records)
	}
	if st.Fsyncs > st.Records {
		t.Fatalf("Fsyncs = %d exceeds records %d", st.Fsyncs, st.Records)
	}
	t.Logf("batching: %d records over %d group commits (%d fsyncs)",
		st.Records, st.GroupCommits, st.Fsyncs)
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	seqs, payloads := collect(t, re, 1)
	if len(seqs) != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", len(seqs), writers*perWriter)
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("replay seq[%d] = %d", i, seq)
		}
		if want := got[seq]; string(payloads[i]) != want {
			t.Fatalf("seq %d replayed %q, want %q", seq, payloads[i], want)
		}
	}
}

// TestGroupCommitBatchesStagedAppends pins the batching mechanics
// deterministically: records staged before any Wait are flushed by one
// leader in maxBatchRecords-sized chunks, the last one partial.
func TestGroupCommitBatchesStagedAppends(t *testing.T) {
	const n = 2*maxBatchRecords + 1
	l, err := Open(t.TempDir(), Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	tickets := make([]*Ticket, n)
	for i := range tickets {
		seq, tk, err := l.AppendStage([]byte(fmt.Sprintf("r%d", i)))
		if err != nil {
			t.Fatalf("stage %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("stage %d assigned seq %d", i, seq)
		}
		if tk == nil {
			t.Fatalf("stage %d: nil ticket", i)
		}
		tickets[i] = tk
	}
	// Nothing is durable yet: the committed read side must see an empty log.
	if recs, _, err := l.ReadFrom(1, n); err != nil || len(recs) != 0 {
		t.Fatalf("ReadFrom before flush = %d recs, %v; want 0, nil", len(recs), err)
	}
	// Waiting in reverse order must work: any waiter can lead.
	for i := n - 1; i >= 0; i-- {
		if err := tickets[i].Wait(); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		// Wait is idempotent.
		if err := tickets[i].Wait(); err != nil {
			t.Fatalf("re-wait %d: %v", i, err)
		}
	}
	st := l.Stats()
	if st.Records != n {
		t.Fatalf("Records = %d, want %d", st.Records, n)
	}
	const want = 3
	if st.GroupCommits != want {
		t.Fatalf("GroupCommits = %d, want %d (batches of %d)", st.GroupCommits, want, maxBatchRecords)
	}
	// One data sync per batch plus the directory sync of the initial
	// segment roll.
	if st.Fsyncs != want+1 {
		t.Fatalf("Fsyncs = %d, want %d", st.Fsyncs, want+1)
	}
	if recs, next, err := l.ReadFrom(1, n); err != nil || len(recs) != n || next != n+1 {
		t.Fatalf("ReadFrom after flush = %d recs, next %d, %v", len(recs), next, err)
	}
}

// TestGroupCommitRollsSegments verifies segment rolling under group commit:
// segment files must be named by the first sequence they actually hold,
// or reopen would mis-number the history.
func TestGroupCommitRollsSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-%02d", i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if st := l.Stats(); st.Segments < 2 {
		t.Fatalf("expected multiple segments, got %d", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after rolls: %v", err)
	}
	defer re.Close()
	seqs, _ := collect(t, re, 1)
	if len(seqs) != n {
		t.Fatalf("replayed %d records, want %d", len(seqs), n)
	}
}

// TestGroupCommitFailurePoisonsLog injects a write failure under a staged
// batch and demands fail-stop semantics: every in-flight waiter gets the
// error, the log closes, and no acknowledged sequence number is ever
// reused — callers have already applied optimistically, so continuing
// would diverge replay from memory.
func TestGroupCommitFailurePoisonsLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}

	// One durable record so the failure has an acknowledged prefix.
	if _, err := l.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}

	const staged = 5
	tickets := make([]*Ticket, staged)
	for i := range tickets {
		_, tk, err := l.AppendStage([]byte(fmt.Sprintf("doomed-%d", i)))
		if err != nil {
			t.Fatalf("stage %d: %v", i, err)
		}
		tickets[i] = tk
	}
	// Sabotage the active segment handle: the flush leader's write (or
	// sync) must fail.
	l.mu.Lock()
	l.active.Close()
	l.mu.Unlock()

	for i, tk := range tickets {
		if err := tk.Wait(); err == nil {
			t.Fatalf("wait %d succeeded after write failure", i)
		}
	}
	if _, err := l.Append([]byte("after")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after poison = %v, want ErrClosed", err)
	}
	// Recovery sees only the acknowledged prefix.
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after poison: %v", err)
	}
	defer re.Close()
	seqs, payloads := collect(t, re, 1)
	if len(seqs) != 1 || string(payloads[0]) != "durable" {
		t.Fatalf("replay after poison = %d records %q, want just the acknowledged one", len(seqs), payloads)
	}
	if next := re.NextSeq(); next != 2 {
		t.Fatalf("NextSeq after poison recovery = %d, want 2", next)
	}
}

// TestGroupCommitCloseFlushesStaged: Close is a durability barrier — every
// record staged before Close must be on disk afterwards, and its ticket
// must report success.
func TestGroupCommitCloseFlushesStaged(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 7
	tickets := make([]*Ticket, n)
	for i := range tickets {
		_, tk, err := l.AppendStage([]byte(fmt.Sprintf("pending-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for i, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatalf("ticket %d failed across close: %v", i, err)
		}
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if seqs, _ := collect(t, re, 1); len(seqs) != n {
		t.Fatalf("replayed %d records after close, want %d", len(seqs), n)
	}
}

// TestGroupCommitSnapshotBarrier: a snapshot taken while records are
// staged must first make them durable, then truncate them — the snapshot
// and the acknowledged log tail can never disagree.
func TestGroupCommitSnapshotBarrier(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 4
	tickets := make([]*Ticket, n)
	for i := range tickets {
		_, tk, err := l.AppendStage([]byte(fmt.Sprintf("staged-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	if err := l.WriteSnapshot([]byte("state-after-4"), n); err != nil {
		t.Fatalf("snapshot over staged records: %v", err)
	}
	for i, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatalf("ticket %d failed across snapshot: %v", i, err)
		}
	}
	st := l.Stats()
	if st.SnapshotSeq != n || st.Segments != 0 {
		t.Fatalf("after snapshot: snapSeq %d segments %d, want %d and 0", st.SnapshotSeq, st.Segments, n)
	}
	// The log continues past the snapshot.
	if seq, err := l.Append([]byte("after-snap")); err != nil || seq != n+1 {
		t.Fatalf("append after snapshot = %d, %v", seq, err)
	}
	if files, err := os.ReadDir(dir); err == nil {
		var snaps int
		for _, f := range files {
			if len(f.Name()) > 5 && f.Name()[:5] == "snap-" {
				snaps++
			}
		}
		if snaps != 1 {
			t.Fatalf("found %d snapshot files, want 1", snaps)
		}
	}
}
