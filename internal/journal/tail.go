package journal

// Tail reads: the read side of journal replication. A committed journal is
// a totally ordered record stream, so a replica follows it with a bounded
// cursor read over the committed prefix (ReadFrom); the admission layer's
// commit hook tells the shipper when to read again. A reader that falls
// behind the snapshot-truncation horizon gets ErrCompacted and must catch
// up from the snapshot instead (Snapshot + InstallSnapshot on the receiving
// log).

import (
	"errors"
	"fmt"
)

// ErrCompacted is returned by ReadFrom when the requested records have been
// truncated into a snapshot; the caller must transfer the snapshot instead.
var ErrCompacted = errors.New("journal: records compacted into a snapshot")

// ReadFrom returns up to max committed records starting at sequence from,
// in order, as copies independent of the log's internal state. next is the
// sequence to resume at (from + len(recs)); a caller that reads until
// next == NextSeq() has seen the whole committed prefix. When from lies at
// or before the latest snapshot's covered sequence the records no longer
// exist — ReadFrom reports ErrCompacted and the reader must catch up from
// Snapshot. ReadFrom holds the log lock for the duration of the read, so
// it serializes against appends and truncation; batches should stay modest
// (the replication shipper caps them) to keep append latency flat.
//
// The read is bounded by the durable tail: a record mid-flush may already
// be on disk without being acknowledged, and ReadFrom
// never returns it — replicating a record whose commit could still fail
// would let a follower hold history the leader disowns.
func (l *Log) ReadFrom(from uint64, max int) (recs [][]byte, next uint64, err error) {
	if from == 0 {
		return nil, 0, fmt.Errorf("journal: read from sequence 0")
	}
	if max <= 0 {
		return nil, from, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, 0, ErrClosed
	}
	if from <= l.snapSeq {
		return nil, 0, fmt.Errorf("%w: sequence %d, snapshot covers 1..%d", ErrCompacted, from, l.snapSeq)
	}
	durableNext := l.ackedSeq + 1
	if from >= durableNext {
		if from > l.nextSeq {
			return nil, 0, fmt.Errorf("%w: read from %d but next sequence is %d", ErrGap, from, l.nextSeq)
		}
		return nil, from, nil
	}
	err = walkSegments(l.segs, from, func(seq uint64, payload []byte) error {
		if seq >= durableNext {
			return errStopRead
		}
		recs = append(recs, append([]byte(nil), payload...))
		if len(recs) == max {
			return errStopRead
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return recs, from + uint64(len(recs)), nil
}

// InstallSnapshot adopts an externally produced snapshot covering records
// 1..seq — the catch-up path of a replication follower whose peer has
// already truncated the records it is missing. Every local segment is
// discarded and the append position moves to seq+1. The snapshot must not
// rewind committed history: seq below the local tail is an error, since
// accepting it would let a replayed record reuse a sequence number.
func (l *Log) InstallSnapshot(payload []byte, seq uint64) error {
	// Like WriteSnapshot, fenced behind the commit lock: any in-flight
	// group flush completes before the tail moves.
	l.commitMu.Lock()
	defer l.commitMu.Unlock()
	l.flushStagedLocked()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if seq == 0 {
		return fmt.Errorf("journal: install snapshot at sequence 0")
	}
	if seq+1 < l.nextSeq {
		return fmt.Errorf("journal: snapshot covers 1..%d but log tail is %d (would rewind history)",
			seq, l.nextSeq-1)
	}
	if err := l.writeSnapshotFileLocked(payload, seq); err != nil {
		return err
	}
	l.nextSeq = seq + 1
	l.ackedSeq = seq
	return nil
}
