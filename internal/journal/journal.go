// Package journal is the durability substrate of the admission subsystem:
// a per-tenant, segmented, append-only write-ahead log with CRC-framed
// records, an fsync policy, and periodic snapshots that truncate the log.
//
// The log stores opaque payloads; the admission layer encodes its typed,
// versioned events (internal/mcsio) into them. Records are numbered by a
// contiguous sequence starting at 1; a snapshot at sequence S captures the
// state after applying records 1..S, and replay resumes at S+1. Recovery
// is fail-closed everywhere except the tail of the last segment: a torn
// final record (the signature of a crash mid-append) is detected by its
// CRC or truncated frame and discarded, while corruption anywhere else
// aborts recovery with an error rather than silently dropping history.
//
// On-disk layout of one tenant directory:
//
//	seg-<first-seq>.wal    CRC-framed records, first record is <first-seq>
//	snap-<seq>.snap        one CRC-framed snapshot payload covering 1..seq
//
// Each record is framed as
//
//	[4B little-endian payload length][4B CRC-32C of payload][payload]
//
// Snapshots are written to a temporary file, fsynced and renamed, so a
// crash never leaves a half-written snapshot under the live name. After a
// successful snapshot every segment it covers is deleted and a fresh
// segment begins at the next sequence number.
//
// Every record commits the same way: AppendStage assigns its sequence
// number and stages its frame under a short in-memory lock, and the first
// Ticket.Wait to arrive becomes the flush leader, writing (and, with
// Options.Fsync, syncing) every record staged by then in one go — group
// commit. A failed flush poisons the log: every staged record fails and
// every later append returns ErrClosed.
//
// A Log serializes its own operations with an internal mutex; the
// admission layer additionally serializes per-tenant decisions, so appends
// arrive in decision order.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	segPrefix  = "seg-"
	segSuffix  = ".wal"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	tmpSuffix  = ".tmp"

	// frameHeader is the per-record framing overhead: 4-byte length plus
	// 4-byte CRC-32C.
	frameHeader = 8

	// MaxRecord bounds one payload. A record length beyond it is treated as
	// frame corruption, so a garbage length field cannot drive a huge
	// allocation during recovery.
	MaxRecord = 16 << 20

	// DefaultSegmentBytes is the roll threshold when Options.SegmentBytes
	// is unset. A segment may exceed it by at most one flush batch.
	DefaultSegmentBytes = 4 << 20

	// maxBatchRecords caps how many staged records one flush coalesces into
	// a single write and sync.
	maxBatchRecords = 512
)

// castagnoli is the CRC-32C polynomial table (hardware-accelerated on
// amd64/arm64), the checksum used by most production WALs.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors reported by the log. ErrCorrupt and ErrGap abort recovery; they
// mean the directory no longer holds a replayable history.
var (
	// ErrCorrupt marks a record that fails its CRC or framing anywhere
	// other than the tail of the last segment.
	ErrCorrupt = errors.New("journal: corrupt record")
	// ErrGap marks missing sequence numbers between snapshot and segments
	// or between consecutive segments.
	ErrGap = errors.New("journal: sequence gap")
	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("journal: log closed")
	// ErrTooLarge rejects a payload over MaxRecord.
	ErrTooLarge = errors.New("journal: record exceeds size limit")
)

// Options parameterizes a Log.
type Options struct {
	// Fsync syncs the segment file after every append. Off, durability is
	// bounded by the OS page-cache flush interval; on, every acknowledged
	// append survives power loss. Snapshots are always fsynced regardless.
	Fsync bool
	// SegmentBytes is the size threshold at which a new segment starts.
	// 0 selects DefaultSegmentBytes.
	SegmentBytes int64
	// GroupCommit chose staged appends over a serial path that no longer
	// exists: every append is staged and flushed in groups. The field
	// remains only because cmd/mcload still assigns it.
	//
	// Deprecated: ignored.
	GroupCommit bool
	// MaxBatchDelay made a flush leader wait for later records before
	// writing. A leader now always flushes whatever is staged when it
	// arrives; the field remains only because cmd/mcload still assigns it.
	//
	// Deprecated: ignored.
	MaxBatchDelay time.Duration
	// Metrics, when non-nil, turns on latency observation of appends,
	// fsyncs and snapshots. Nil logs take no timestamps at all.
	Metrics *Metrics
}

// Stats is a point-in-time snapshot of one log's counters and gauges.
// Counters (Records, Bytes, Fsyncs, Snapshots, Truncated) cover the life
// of this process; gauges (Segments, SnapshotSeq, NextSeq) describe the
// on-disk state.
type Stats struct {
	Records uint64 `json:"records"`
	Bytes   uint64 `json:"bytes"`
	Fsyncs  uint64 `json:"fsyncs"`
	// GroupCommits counts flushes: each is one write (and one fsync, in
	// fsync mode) covering one or more staged records, so
	// Records/GroupCommits is the achieved batching factor.
	GroupCommits uint64 `json:"group_commits,omitempty"`
	Snapshots    uint64 `json:"snapshots"`
	Truncated    uint64 `json:"truncated"`
	Segments     uint64 `json:"segments"`
	SnapshotSeq  uint64 `json:"snapshot_seq"`
	NextSeq      uint64 `json:"next_seq"`
}

// segment is one on-disk log file; first is the sequence number of its
// first record.
type segment struct {
	first uint64
	path  string
}

// Log is one tenant's write-ahead journal.
//
// Lock order: commitMu before mu. mu guards all in-memory state; commitMu
// serializes flush leadership, snapshot writes and Close, and is held
// across file I/O. A flush writes and syncs its batch with mu released, so
// staging never waits for that write or its fsync. Staging does wait
// behind the disk in these places, which run file I/O under mu:
//
//   - a segment roll: flushStagedLocked calls rollToLocked under mu, which
//     opens the new segment, seeks to its end and, with Options.Fsync,
//     syncs the directory;
//   - a snapshot: WriteSnapshot and InstallSnapshot hold mu while
//     writeSnapshotFileLocked writes, fsyncs and renames the snapshot file,
//     syncs the directory and deletes the covered segments;
//   - ReadFrom, which reads segment files under mu (see its comment).
type Log struct {
	dir  string
	opts Options

	mu         sync.Mutex
	segs       []segment
	active     *os.File // tail segment open for append; nil until first append
	activeSize int64    // bytes of acknowledged records in the active segment
	nextSeq    uint64
	ackedSeq   uint64 // highest sequence acknowledged durable; < nextSeq while staged records await flush
	snapPath   string // latest snapshot file; "" when none
	snapSeq    uint64
	closed     bool
	wbuf       []byte    // staged frames awaiting flush, in sequence order
	waiters    []*Ticket // one per staged record, aligned with wbuf

	nRecords, nBytes, nFsyncs, nSnapshots, nTruncated, nGroupCommits uint64

	// commitMu elects the flush leader and serializes everything that
	// moves the durable tail or retires the active segment.
	commitMu sync.Mutex
}

// Open opens (creating if needed) the journal in dir, locates the latest
// snapshot, validates the segment tail and truncates a torn final record.
// The returned log is positioned to append at NextSeq.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	l := &Log{dir: dir, opts: opts, nextSeq: 1}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix):
			seq, err := parseSeq(name, segPrefix, segSuffix)
			if err != nil {
				return nil, err
			}
			l.segs = append(l.segs, segment{first: seq, path: filepath.Join(dir, name)})
		case strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix):
			seq, err := parseSeq(name, snapPrefix, snapSuffix)
			if err != nil {
				return nil, err
			}
			if seq > l.snapSeq {
				l.snapSeq = seq
				l.snapPath = filepath.Join(dir, name)
			}
		case strings.HasSuffix(name, tmpSuffix):
			// Leftover of a snapshot interrupted before its rename; it was
			// never live, so discard it.
			os.Remove(filepath.Join(dir, name))
		}
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].first < l.segs[j].first })

	// Sequence continuity: the earliest segment must start no later than
	// the first sequence the snapshot does not cover.
	if len(l.segs) > 0 && l.segs[0].first > l.snapSeq+1 {
		return nil, fmt.Errorf("%w: snapshot covers 1..%d but earliest segment starts at %d",
			ErrGap, l.snapSeq, l.segs[0].first)
	}
	l.nextSeq = l.snapSeq + 1

	if len(l.segs) > 0 {
		// Establish the append position: scan the last segment, tolerating
		// (and physically truncating) a torn tail record.
		last := l.segs[len(l.segs)-1]
		count, validSize, torn, err := readSegment(last.path, last.first, true, nil)
		if err != nil {
			return nil, err
		}
		if torn {
			if err := os.Truncate(last.path, validSize); err != nil {
				return nil, fmt.Errorf("journal: truncate torn tail: %w", err)
			}
		}
		if tail := last.first + count; tail > l.nextSeq {
			l.nextSeq = tail
		}
		f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		l.active = f
		l.activeSize = validSize
	}
	l.ackedSeq = l.nextSeq - 1
	return l, nil
}

// parseSeq extracts the sequence number embedded in a file name.
func parseSeq(name, prefix, suffix string) (uint64, error) {
	s := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	seq, err := strconv.ParseUint(s, 10, 64)
	if err != nil || seq == 0 {
		return 0, fmt.Errorf("%w: bad file name %q", ErrCorrupt, name)
	}
	return seq, nil
}

func (l *Log) segPath(first uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%020d%s", segPrefix, first, segSuffix))
}

func (l *Log) snapFile(seq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%020d%s", snapPrefix, seq, snapSuffix))
}

// NextSeq returns the sequence number the next Append will be assigned.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// SnapshotSeq returns the sequence covered by the latest snapshot (0 when
// none exists).
func (l *Log) SnapshotSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapSeq
}

// Append is AppendStage followed by Wait: it returns the record's sequence
// number once the record is written to the tail segment (rolling to a new
// segment past the size threshold) and, with Options.Fsync, synced to
// stable storage. Concurrent Appends coalesce into shared flushes.
func (l *Log) Append(payload []byte) (uint64, error) {
	seq, tk, err := l.AppendStage(payload)
	if err != nil {
		return 0, err
	}
	if err := tk.Wait(); err != nil {
		return 0, err
	}
	return seq, nil
}

// AppendStage assigns the payload a sequence number and stages its frame
// for the next flush, returning the Ticket whose Wait makes it durable.
// The stage itself takes only a short in-memory critical section, so
// callers that apply in memory and wait outside their own locks let
// concurrent records share one flush.
func (l *Log) AppendStage(payload []byte) (uint64, *Ticket, error) {
	m := l.opts.Metrics
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, nil, ErrClosed
	}
	if len(payload) == 0 {
		l.mu.Unlock()
		return 0, nil, fmt.Errorf("journal: empty record")
	}
	if len(payload) > MaxRecord {
		l.mu.Unlock()
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	l.wbuf = appendFrame(l.wbuf, payload)
	seq := l.nextSeq
	l.nextSeq++
	t := &Ticket{l: l, seq: seq, n: frameHeader + len(payload), done: make(chan error, 1), start: start}
	l.waiters = append(l.waiters, t)
	l.mu.Unlock()
	return seq, t, nil
}

// Ticket is one staged, sequence-assigned record whose durability is not
// yet established; the flush that covers it delivers the outcome.
type Ticket struct {
	l     *Log
	seq   uint64
	n     int        // framed size in wbuf
	done  chan error // buffered; receives the commit outcome exactly once
	start time.Time  // zero unless metrics are enabled; only Wait touches it
}

// Wait blocks until the staged record is durable (per the fsync policy)
// and returns the commit outcome. The first waiter to arrive becomes the
// flush leader: it takes the commit lock and at once flushes every record
// staged by then, coalescing them into one write and one fsync, while
// later waiters park until a leader completes them. A leader never waits
// for more records to arrive. Wait is idempotent.
func (t *Ticket) Wait() error {
	l := t.l
	select {
	case err := <-t.done:
		t.done <- err // keep Wait idempotent
		t.observe()
		return err
	default:
	}
	l.commitMu.Lock()
	select {
	case err := <-t.done:
		// A previous leader committed us while we queued for leadership.
		l.commitMu.Unlock()
		t.done <- err
		t.observe()
		return err
	default:
	}
	l.flushStagedLocked()
	l.commitMu.Unlock()
	err := <-t.done
	t.done <- err
	t.observe()
	return err
}

func (t *Ticket) observe() {
	if m := t.l.opts.Metrics; m != nil && !t.start.IsZero() {
		m.AppendSeconds.Observe(time.Since(t.start))
		t.start = time.Time{} // idempotent Waits observe once
	}
}

// flushStagedLocked drains every staged record in batches of at most
// maxBatchRecords: one write and (in fsync mode) one data sync per batch,
// then completion of the batch's waiters. File I/O runs with mu released,
// so staging continues while a batch is on the disk. Any I/O failure
// poisons the log (see failStagedLocked). Caller holds l.commitMu.
func (l *Log) flushStagedLocked() {
	m := l.opts.Metrics
	for {
		l.mu.Lock()
		if len(l.waiters) == 0 {
			l.mu.Unlock()
			return
		}
		if l.closed {
			l.failStagedLocked(ErrClosed)
			l.mu.Unlock()
			return
		}
		k := min(len(l.waiters), maxBatchRecords)
		// Copy the batch out: l.waiters' backing array is compacted after
		// the flush while stagers keep appending to it.
		batch := append(make([]*Ticket, 0, k), l.waiters[:k]...)
		var nbytes int
		for _, t := range batch {
			nbytes += t.n
		}
		if l.active == nil || l.activeSize >= l.opts.SegmentBytes {
			if err := l.rollToLocked(batch[0].seq); err != nil {
				l.failStagedLocked(err)
				l.mu.Unlock()
				return
			}
		}
		// The batch's frames are the staged buffer's prefix. Reading it
		// after releasing mu is safe: stagers only append past nbytes (or
		// into a fresh backing array), and compaction happens back under mu.
		buf := l.wbuf[:nbytes:nbytes]
		f := l.active
		l.mu.Unlock()

		_, err := f.Write(buf)
		var syncDur time.Duration
		if err == nil && l.opts.Fsync {
			var syncStart time.Time
			if m != nil {
				syncStart = time.Now()
			}
			err = f.Sync()
			if m != nil {
				syncDur = time.Since(syncStart)
			}
		}

		l.mu.Lock()
		if err != nil {
			l.failStagedLocked(fmt.Errorf("journal: group commit: %w", err))
			l.mu.Unlock()
			return
		}
		l.activeSize += int64(nbytes)
		l.ackedSeq = batch[k-1].seq
		l.nRecords += uint64(k)
		l.nBytes += uint64(nbytes)
		l.nGroupCommits++
		if l.opts.Fsync {
			l.nFsyncs++
		}
		l.wbuf = l.wbuf[:copy(l.wbuf, l.wbuf[nbytes:])]
		l.waiters = l.waiters[:copy(l.waiters, l.waiters[k:])]
		l.mu.Unlock()

		if m != nil {
			if l.opts.Fsync {
				m.FsyncSeconds.Observe(syncDur)
			}
			// The batch-size histogram reuses duration buckets as record
			// counts: one second == one record.
			m.BatchRecords.Observe(time.Duration(k) * time.Second)
		}
		for _, t := range batch {
			t.done <- nil
		}
	}
}

// failStagedLocked fails every staged record after a roll, write or sync
// error and poisons the log. Callers apply optimistically and wait for
// durability afterwards, so their in-memory state already reflects these
// records. Truncating and carrying on would let later appends journal
// decisions validated against state the journal never recorded, and replay
// would diverge. The only sound continuation is none: fail every waiter,
// roll the physical tail back (best effort) and close the log — the
// PostgreSQL fsync-failure discipline. Caller holds l.mu.
func (l *Log) failStagedLocked(err error) {
	for _, t := range l.waiters {
		t.done <- err
	}
	l.waiters = nil
	l.wbuf = nil
	l.nextSeq = l.ackedSeq + 1
	if l.active != nil {
		// Best effort: scrub any written-but-unacknowledged frames so a
		// later recovery replays only acknowledged history. If the
		// truncate fails too, recovery may observe them — the log is
		// closed either way, so no acknowledged sequence can collide.
		l.active.Truncate(l.activeSize)
		l.active.Close()
		l.active = nil
	}
	l.closed = true
}

// rollToLocked closes the active segment and starts a new one whose first
// record will be first, the first sequence of the pending batch (nextSeq
// may already have advanced past staged records). Caller holds l.mu.
func (l *Log) rollToLocked(first uint64) error {
	if l.active != nil {
		l.active.Close()
		l.active = nil
	}
	path := l.segPath(first)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: roll segment: %w", err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return fmt.Errorf("journal: roll segment: %w", err)
	}
	l.active = f
	l.activeSize = size
	l.segs = append(l.segs, segment{first: first, path: path})
	if l.opts.Fsync {
		l.syncDir()
	}
	return nil
}

// frameRecord prepends the length+CRC header to the payload.
func frameRecord(payload []byte) []byte {
	return appendFrame(make([]byte, 0, frameHeader+len(payload)), payload)
}

// appendFrame appends one framed record to dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// syncDir fsyncs the journal directory so file creations and renames are
// durable. Best effort: some filesystems refuse directory syncs.
func (l *Log) syncDir() {
	if d, err := os.Open(l.dir); err == nil {
		if d.Sync() == nil {
			l.nFsyncs++
		}
		d.Close()
	}
}

// Replay streams every record with sequence >= from, in order, to fn.
// A torn tail in the last segment ends the replay silently (those records
// were never acknowledged as durable); any other framing or CRC failure,
// and any gap in the sequence numbering, aborts with an error. Replay is
// meant to run on a freshly opened log before new appends.
func (l *Log) Replay(from uint64, fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	segs := append([]segment(nil), l.segs...)
	l.mu.Unlock()

	if len(segs) == 0 {
		return nil
	}
	return walkSegments(segs, from, fn)
}

// errStopRead is the internal sentinel that ends a segment walk early once
// a bounded read has what it needs.
var errStopRead = errors.New("journal: stop read")

// walkSegments hands every record of segs with sequence >= from to fn, in
// order — the one segment walk Replay and ReadFrom share. It starts at the
// last segment whose first record is <= from (earlier segments hold only
// records before from), demands that every segment start where the one
// before it ended, and tolerates a torn tail only in the last segment. An
// fn that returns errStopRead ends the walk without error. The caller
// decides what segs is and which lock, if any, it holds.
func walkSegments(segs []segment, from uint64, fn func(seq uint64, payload []byte) error) error {
	start := 0
	for i, seg := range segs {
		if seg.first <= from {
			start = i
		}
	}
	if len(segs) == 0 || segs[start].first > from {
		return fmt.Errorf("%w: read from %d but no segment holds it", ErrGap, from)
	}
	expected := segs[start].first
	for i := start; i < len(segs); i++ {
		seg := segs[i]
		if seg.first != expected {
			return fmt.Errorf("%w: segment %s should start at %d", ErrGap, seg.path, expected)
		}
		count, _, _, err := readSegment(seg.path, seg.first, i == len(segs)-1, func(seq uint64, payload []byte) error {
			if seq < from {
				return nil
			}
			return fn(seq, payload)
		})
		if errors.Is(err, errStopRead) {
			return nil
		}
		if err != nil {
			return err
		}
		expected = seg.first + count
	}
	return nil
}

// readSegment scans one segment file, invoking fn (when non-nil) per valid
// record. It returns the number of valid records, the byte offset of the
// end of the last valid record, and whether the scan stopped at a bad
// frame. A bad frame is tolerated (torn=true, err=nil) only when
// tolerateTail is set AND no valid frame exists after it — a crash tears
// the *end* of the file, so a bad frame followed by an intact record is
// mid-segment corruption of acknowledged history and always errors.
func readSegment(path string, first uint64, tolerateTail bool, fn func(seq uint64, payload []byte) error) (count uint64, validSize int64, torn bool, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("journal: %w", err)
	}
	off := 0
	for off < len(b) {
		if length, payload, ok := parseFrame(b[off:]); ok {
			if fn != nil {
				if err := fn(first+count, payload); err != nil {
					return count, validSize, false, err
				}
			}
			count++
			off += frameHeader + length
			validSize = int64(off)
			continue
		}
		// Bad frame at off.
		if tolerateTail && !hasValidFrame(b[off+1:]) {
			return count, validSize, true, nil
		}
		return count, validSize, true,
			fmt.Errorf("%w: %s at offset %d (record %d)", ErrCorrupt, path, validSize, first+count)
	}
	return count, validSize, false, nil
}

// parseFrame decodes one record frame at the start of b, reporting whether
// it is complete and CRC-valid.
func parseFrame(b []byte) (length int, payload []byte, ok bool) {
	if len(b) < frameHeader {
		return 0, nil, false
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n == 0 || n > MaxRecord || len(b) < frameHeader+int(n) {
		return 0, nil, false
	}
	payload = b[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:8]) {
		return 0, nil, false
	}
	return int(n), payload, true
}

// hasValidFrame reports whether any byte offset of b parses as a complete,
// CRC-valid, non-empty record — the signature that distinguishes
// mid-segment corruption (acknowledged records survive past the damage)
// from a torn tail (nothing valid follows). Implausible length fields are
// skipped cheaply, so the scan is fast on real torn tails.
func hasValidFrame(b []byte) bool {
	for i := 0; i+frameHeader <= len(b); i++ {
		if _, _, ok := parseFrame(b[i:]); ok {
			return true
		}
	}
	return false
}

// Snapshot returns the payload and covered sequence of the latest
// snapshot, or ok=false when none exists. A snapshot that fails its CRC is
// an error: snapshots are written atomically, so damage means real
// corruption, and the segments it truncated are gone.
func (l *Log) Snapshot() (payload []byte, seq uint64, ok bool, err error) {
	l.mu.Lock()
	path, seq := l.snapPath, l.snapSeq
	l.mu.Unlock()
	if path == "" {
		return nil, 0, false, nil
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false, fmt.Errorf("journal: %w", err)
	}
	length, payload, ok := parseFrame(b)
	if !ok || frameHeader+length != len(b) {
		return nil, 0, false, fmt.Errorf("%w: snapshot %s is not one intact record", ErrCorrupt, path)
	}
	return payload, seq, true, nil
}

// WriteSnapshot durably records a snapshot payload covering records 1..seq
// and truncates the log: every covered segment is deleted and the next
// append starts a fresh one. The caller must pass the log's current tail
// (seq == NextSeq()-1), i.e. snapshot exactly the state the journal
// describes — anything else would delete records the snapshot does not
// capture. Snapshots are fsynced and renamed into place regardless of the
// fsync policy.
func (l *Log) WriteSnapshot(payload []byte, seq uint64) error {
	// Snapshot writes retire the active segment, so they are fenced behind
	// the commit lock: any in-flight group flush completes (and staged
	// records become durable) before the truncation point is judged.
	l.commitMu.Lock()
	defer l.commitMu.Unlock()
	l.flushStagedLocked()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if seq == 0 || seq != l.nextSeq-1 {
		return fmt.Errorf("journal: snapshot seq %d does not cover log tail %d", seq, l.nextSeq-1)
	}
	return l.writeSnapshotFileLocked(payload, seq)
}

// writeSnapshotFileLocked durably writes a snapshot covering 1..seq and
// truncates every segment — the shared tail of WriteSnapshot (which demands
// the snapshot match the log tail) and InstallSnapshot (which may move the
// tail forward to adopt a replicated snapshot). Caller holds l.mu and has
// validated seq.
func (l *Log) writeSnapshotFileLocked(payload []byte, seq uint64) error {
	if len(payload) > MaxRecord {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	m := l.opts.Metrics
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	tmp := filepath.Join(l.dir, snapPrefix+strconv.FormatUint(seq, 10)+tmpSuffix)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	_, werr := f.Write(frameRecord(payload))
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: snapshot: %w", werr)
	}
	final := l.snapFile(seq)
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	l.nFsyncs++
	l.syncDir()

	oldSnap := l.snapPath
	l.snapPath = final
	l.snapSeq = seq
	l.nSnapshots++

	// Truncate: every segment's records are <= seq now, so drop them all;
	// the next append rolls a fresh segment at nextSeq. Deletion failures
	// are harmless — recovery skips records the snapshot covers — so they
	// are ignored beyond not counting the segment as truncated.
	if l.active != nil {
		l.active.Close()
		l.active = nil
		l.activeSize = 0
	}
	for _, seg := range l.segs {
		if os.Remove(seg.path) == nil {
			l.nTruncated++
		}
	}
	l.segs = nil
	if oldSnap != "" && oldSnap != final {
		os.Remove(oldSnap)
	}
	if m != nil {
		m.SnapshotSeconds.Observe(time.Since(start))
	}
	return nil
}

// Stats snapshots the log's counters and gauges.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Records:      l.nRecords,
		Bytes:        l.nBytes,
		Fsyncs:       l.nFsyncs,
		GroupCommits: l.nGroupCommits,
		Snapshots:    l.nSnapshots,
		Truncated:    l.nTruncated,
		Segments:     uint64(len(l.segs)),
		SnapshotSeq:  l.snapSeq,
		NextSeq:      l.nextSeq,
	}
}

// Close flushes any staged records and releases the log's file
// handles. Further operations return ErrClosed.
func (l *Log) Close() error {
	l.commitMu.Lock()
	defer l.commitMu.Unlock()
	l.flushStagedLocked()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	if len(l.waiters) > 0 {
		// Staged between the flush above and here: those records lose the
		// race with Close and are never durable.
		l.failStagedLocked(ErrClosed)
		return nil
	}
	l.closed = true
	if l.active != nil {
		err := l.active.Close()
		l.active = nil
		return err
	}
	return nil
}
