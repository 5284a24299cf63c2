package admission

// Event sourcing for the admission controller. With Config.DataDir set,
// every committed state transition of every tenant — create-system, admit,
// admit-batch, release — is validated against the live partitions, encoded
// as a typed versioned event (internal/mcsio), staged on the tenant's
// write-ahead journal (internal/journal) and applied, and acknowledged only
// once the journal flush covering it is durable. Recovery replays the
// journal through the very transition function the live controller runs
// (apply, state.go), which both warms the per-core analyzers and verifies
// that every recorded decision is reproduced bit-for-bit; any divergence
// fails recovery closed instead of serving a partition the journal does
// not describe.

import (
	"errors"
	"fmt"
	"path/filepath"

	"mcsched/internal/journal"
	"mcsched/internal/mcsio"
)

// Journaling sentinel errors.
var (
	// ErrJournalDisabled is returned by snapshot operations on a
	// controller or system that runs without a data directory.
	ErrJournalDisabled = errors.New("admission: journaling disabled")
	// ErrJournalExists is returned when CreateSystem finds an existing
	// journal for the tenant ID: the daemon must Recover before accepting
	// creates, otherwise the old history would be silently overwritten.
	ErrJournalExists = errors.New("admission: journal already exists (recover it instead)")
	// ErrReplayDivergence is returned when replaying a journal does not
	// reproduce the recorded decisions — the journal was written by an
	// incompatible placement policy or is semantically corrupt.
	ErrReplayDivergence = errors.New("admission: journal replay diverged")
	// ErrJournalIO wraps append/snapshot failures of the journal itself
	// (disk full, I/O error, closed during shutdown). It marks a server
	// fault — the request was valid and the transition did not happen —
	// so the daemon reports it as a 5xx, not a client error.
	ErrJournalIO = errors.New("admission: journal I/O error")
)

// DefaultSnapshotEvery is the automatic snapshot cadence (appended events
// per tenant between snapshots) selected by Config.SnapshotEvery == 0.
const DefaultSnapshotEvery = 1024

// MaxSystemID bounds the tenant identifier length. IDs become journal
// directory names (escaped, up to 3 bytes per rune), so they must stay
// well under the common 255-byte file-name limit.
const MaxSystemID = 80

func (c Config) journaling() bool { return c.DataDir != "" }

// journalOptions builds the open options for a tenant log, carrying the
// journal instruments when EnableMetrics installed them — which is why
// EnableMetrics must run before Recover for recovery-opened logs to
// observe.
func (c *Controller) journalOptions() journal.Options {
	return journal.Options{
		Fsync:   c.cfg.Fsync,
		Metrics: c.jm.Load(),
	}
}

func (c Config) snapshotEvery() int {
	switch {
	case c.SnapshotEvery == 0:
		return DefaultSnapshotEvery
	case c.SnapshotEvery < 0:
		return 0 // automatic snapshots disabled
	default:
		return c.SnapshotEvery
	}
}

// tenantDir maps a tenant ID to its journal directory.
func (c *Controller) tenantDir(id string) string {
	return filepath.Join(c.cfg.DataDir, journal.EncodeTenantID(id))
}

// ---------------------------------------------------------------------------
// Append side (the commit point of every mutation)
// ---------------------------------------------------------------------------

// openLog opens the tenant journal at dir; fresh additionally requires that
// it holds no history yet.
func (c *Controller) openLog(dir string, fresh bool) (*journal.Log, error) {
	lg, err := journal.Open(dir, c.journalOptions())
	if err != nil {
		return nil, fmt.Errorf("%w: open journal: %w", ErrJournalIO, err)
	}
	if fresh && lg.NextSeq() != 1 {
		lg.Close()
		return nil, fmt.Errorf("%w: %s", ErrJournalExists, dir)
	}
	return lg, nil
}

// appendLocked encodes the event in the binary codec, stamps its sequence
// number and stages it on the tenant journal; the returned wait follows the
// appendPayloadLocked protocol. Caller holds s.mu (or exclusively owns an
// unpublished system).
func (s *System) appendLocked(e mcsio.EventJSON) (func() error, error) {
	e.Version = mcsio.EventFormatVersion
	e.Seq = s.log.NextSeq()
	b, err := mcsio.EncodeEventBinary(e)
	if err != nil {
		return nil, fmt.Errorf("admission: encode %s event: %w", e.Kind, err)
	}
	return s.appendPayloadLocked(b, e.Kind)
}

// appendPayloadLocked stages encoded record bytes — the shared commit point
// of live encoding (appendLocked) and replicated raw records — and counts
// the record toward the snapshot cadence. The caller must run
// maybeSnapshotLocked only after APPLYING the event: a snapshot taken
// between append and apply would claim a sequence whose state it does not
// contain.
//
// The returned wait acknowledges durability and must be called after s.mu
// is released: it blocks until the flush covering the record completes,
// fires the Committed hook, and on failure reports ErrJournalIO — the log
// is then poisoned fail-stop, so the optimistically applied in-memory
// transition can never be contradicted by a later append the journal did
// accept. Caller holds s.mu.
func (s *System) appendPayloadLocked(b []byte, kind string) (func() error, error) {
	seq, tk, err := s.log.AppendStage(b)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrJournalIO, kind, err)
	}
	s.sinceSnap++
	return func() error {
		if err := tk.Wait(); err != nil {
			return fmt.Errorf("%w: %s: %w", ErrJournalIO, kind, err)
		}
		s.fireCommitted(seq)
		return nil
	}, nil
}

// fireCommitted notifies the replication layer of one durable append.
func (s *System) fireCommitted(seq uint64) {
	if h := s.hooks.Load(); h != nil && h.Committed != nil {
		h.Committed(s.id, seq)
	}
}

// waitCommitted runs a durability wait returned by the append path. A nil
// wait means nothing was staged: no journal, a probe, a reject or a skipped
// redelivery.
func waitCommitted(wait func() error) error {
	if wait == nil {
		return nil
	}
	return wait()
}

// maybeSnapshotLocked runs the automatic snapshot cadence. It must only be
// called when the in-memory state reflects every journaled event. A failed
// snapshot only postpones truncation (the events are already durable), so
// it is counted, not raised. Caller holds s.mu.
func (s *System) maybeSnapshotLocked() {
	if s.log == nil || s.snapEvery <= 0 || s.sinceSnap < s.snapEvery {
		return
	}
	if err := s.writeSnapshotLocked(); err != nil {
		s.snapFailures.Add(1)
	}
}

// stageEncoded is the live stage of apply: it renders the decided
// transition as its journal event — an admit with its accepted core, a
// batch as the tasks in placement order with their cores aligned, a release
// as its IDs — and appends it. A tenant without a journal stages nothing.
// The IDs are marshaled before it returns, so callers may reuse their
// backing array. Caller holds s.mu.
func (s *System) stageEncoded(tr *transition) (func() error, error) {
	if s.log == nil {
		return nil, nil
	}
	e := mcsio.EventJSON{Kind: tr.kind, TaskIDs: tr.ids}
	switch tr.kind {
	case mcsio.EventAdmit:
		j := mcsio.TaskToJSON(tr.tasks[0])
		e.Task, e.Core = &j, tr.results[0].Core
	case mcsio.EventAdmitBatch:
		for i, t := range tr.tasks {
			e.Tasks = append(e.Tasks, mcsio.TaskToJSON(t))
			e.Cores = append(e.Cores, tr.results[i].Core)
		}
	}
	return s.appendLocked(e)
}

// journalCreate writes the journal's first record, the tenant's own
// create-system event — encoded here on a leader, the leader's raw bytes on
// a follower. Tenant creation is rare, so it waits for durability inline
// rather than joining the pipelined acknowledge path. The system is not yet
// published, so no lock is needed.
func (s *System) journalCreate(raw []byte) error {
	var wait func() error
	var err error
	if raw != nil {
		wait, err = s.appendPayloadLocked(raw, mcsio.EventCreateSystem)
	} else {
		wait, err = s.appendLocked(mcsio.EventJSON{
			Kind:       mcsio.EventCreateSystem,
			System:     s.id,
			Processors: s.asn.NumCores(),
			Test:       s.testName,
			Placement:  s.journaledPlacement(),
		})
	}
	if err == nil {
		err = waitCommitted(wait)
	}
	if err == nil {
		s.maybeSnapshotLocked()
	}
	return err
}

// writeSnapshotLocked captures the tenant's full state at the journal tail
// and truncates the log. Caller holds s.mu.
func (s *System) writeSnapshotLocked() error {
	seq := s.log.NextSeq() - 1
	snap := mcsio.SnapshotJSON{
		Version:    mcsio.SnapshotFormatVersion,
		Seq:        seq,
		System:     s.id,
		Processors: s.asn.NumCores(),
		Test:       s.testName,
		Placement:  s.journaledPlacement(),
		Cursor:     s.snapshotCursor(),
		Partition:  mcsio.PartitionToJSON(s.asn.Snapshot()),
		Admits:     s.admits,
		Releases:   s.releases,
	}
	b, err := mcsio.EncodeSnapshotBinary(snap)
	if err != nil {
		return fmt.Errorf("admission: encode snapshot: %w", err)
	}
	if err := s.log.WriteSnapshot(b, seq); err != nil {
		return fmt.Errorf("%w: snapshot: %w", ErrJournalIO, err)
	}
	s.sinceSnap = 0
	return nil
}

// JournalStats reports this tenant's journal counters; ok is false when
// the system is not journaled.
func (s *System) JournalStats() (JournalStats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return JournalStats{}, false
	}
	st := s.log.Stats()
	return JournalStats{
		Enabled:           true,
		Records:           st.Records,
		Bytes:             st.Bytes,
		Fsyncs:            st.Fsyncs,
		GroupCommits:      st.GroupCommits,
		Segments:          st.Segments,
		Snapshots:         st.Snapshots,
		TruncatedSegments: st.Truncated,
		SnapshotSeq:       st.SnapshotSeq,
		NextSeq:           st.NextSeq,
	}, true
}

// ---------------------------------------------------------------------------
// Controller: journal attachment, snapshots, recovery
// ---------------------------------------------------------------------------

// SnapshotSystem forces a snapshot of one tenant, truncating its journal.
func (c *Controller) SnapshotSystem(id string) error {
	sys, err := c.System(id)
	if err != nil {
		return err
	}
	sys.mu.Lock()
	defer sys.mu.Unlock()
	if sys.log == nil {
		return ErrJournalDisabled
	}
	return sys.writeSnapshotLocked()
}

// SnapshotAll snapshots every tenant (best effort; errors are joined).
// A controller without journaling is a no-op, so shutdown paths can call
// it unconditionally.
func (c *Controller) SnapshotAll() error {
	if !c.cfg.journaling() {
		return nil
	}
	var errs []error
	for _, id := range c.SystemIDs() {
		if err := c.SnapshotSystem(id); err != nil && !errors.Is(err, ErrNoSystem) {
			errs = append(errs, fmt.Errorf("tenant %q: %w", id, err))
		}
	}
	return errors.Join(errs...)
}

// Close releases every tenant journal. Mutations after Close fail with the
// journal's closed error; the in-memory state remains readable.
func (c *Controller) Close() error {
	var errs []error
	for _, sys := range c.allSystems() {
		sys.mu.Lock()
		if sys.log != nil {
			if err := sys.log.Close(); err != nil {
				errs = append(errs, err)
			}
		}
		sys.mu.Unlock()
	}
	return errors.Join(errs...)
}

// RecoveryStats summarizes one Recover pass.
type RecoveryStats struct {
	// Systems is the number of tenants reconstructed.
	Systems int `json:"systems"`
	// SnapshotsLoaded counts tenants restored from a snapshot (the rest
	// replayed their full journal).
	SnapshotsLoaded int `json:"snapshots_loaded"`
	// Events is the number of journal events replayed after snapshots.
	Events int `json:"events"`
	// Tasks is the total number of resident tasks after recovery.
	Tasks int `json:"tasks"`
}

// Recover reconstructs every tenant found under Config.DataDir: the latest
// snapshot (if any) restores the partition directly, and the remaining
// journal events replay through the live placement path with every
// recorded decision verified against the re-computed one. Call it once,
// after NewController and before serving traffic. Without a data directory
// it is a no-op.
func (c *Controller) Recover() (RecoveryStats, error) {
	var rs RecoveryStats
	if !c.cfg.journaling() {
		return rs, nil
	}
	if !c.recoverOnce.CompareAndSwap(false, true) {
		return rs, errors.New("admission: Recover called twice")
	}
	// Finish any removal a crash interrupted before enumerating tenants.
	if err := journal.SweepRemoved(c.cfg.DataDir); err != nil {
		return rs, err
	}
	tenants, err := journal.ListTenants(c.cfg.DataDir)
	if err != nil {
		return rs, err
	}
	for _, tn := range tenants {
		sys, events, fromSnap, err := c.recoverTenant(tn.ID, tn.Dir)
		if err != nil {
			return rs, fmt.Errorf("admission: recover tenant %q: %w", tn.ID, err)
		}
		if sys == nil {
			// An empty journal directory: the crash happened between
			// creating the directory and appending the create event, so
			// the tenant never existed. Drop the husk.
			if err := journal.RemoveTenantDir(tn.Dir); err != nil {
				return rs, fmt.Errorf("%w: recover tenant %q: remove empty journal: %w", ErrJournalIO, tn.ID, err)
			}
			continue
		}
		if err := c.insertRecovered(sys); err != nil {
			return rs, err
		}
		rs.Systems++
		rs.Events += events
		rs.Tasks += len(sys.resident)
		if fromSnap {
			rs.SnapshotsLoaded++
		}
	}
	c.recovery = rs
	return rs, nil
}

// decodeRecord decodes the journal record at sequence seq and checks the
// sequence stamped inside it against that position; a record stamped for
// another position is a replay divergence.
func decodeRecord(seq uint64, raw []byte) (mcsio.EventJSON, error) {
	e, err := mcsio.DecodeEventAt(seq, raw)
	if errors.Is(err, mcsio.ErrMisstamped) {
		err = fmt.Errorf("%w: %w", ErrReplayDivergence, err)
	}
	return e, err
}

// recoverTenant rebuilds one tenant from its journal directory: the latest
// snapshot, if any, passes checkSnapshot at the sequence its file covers
// and restores that state, the create-system record otherwise builds an
// empty one, and every later record replays through apply. It returns
// (nil, 0, false, nil) for a journal with no events and no snapshot.
func (c *Controller) recoverTenant(id, dir string) (sys *System, events int, fromSnap bool, err error) {
	lg, err := c.openLog(dir, false)
	if err != nil {
		return nil, 0, false, err
	}
	defer func() {
		if err != nil {
			lg.Close()
		}
	}()
	payload, snapSeq, fromSnap, err := lg.Snapshot()
	if err != nil {
		return nil, 0, false, err
	}
	if fromSnap {
		snap, part, test, err := checkSnapshot(id, snapSeq, payload)
		if err == nil {
			sys, err = c.restoreSnapshot(id, snap, part, test, lg)
		}
		if err != nil {
			return nil, 0, false, err
		}
		c.stats.admits.Add(sys.admits)
		c.stats.releases.Add(sys.releases)
	}
	err = lg.Replay(snapSeq+1, func(seq uint64, rec []byte) error {
		e, err := decodeRecord(seq, rec)
		if err != nil {
			return err
		}
		events++
		if sys != nil {
			// Recovery stages nothing: the record is already in the journal.
			_, err = sys.replay(e, nil)
			return err
		}
		if e.Kind != mcsio.EventCreateSystem || seq != 1 {
			return fmt.Errorf("%w: %s event at record %d before create-system", ErrReplayDivergence, e.Kind, seq)
		}
		test, err := c.describedTest(id, e.System, e.Test)
		if err != nil {
			return err
		}
		sys, err = c.newTenant(id, e.Processors, test, e.Placement, lg)
		return err
	})
	if err != nil || sys == nil {
		if err == nil {
			lg.Close() // an empty husk; Recover removes the directory
		}
		return nil, 0, false, err
	}
	// The cadence resumes where the journal left it.
	sys.sinceSnap = events
	return sys, events, fromSnap, nil
}

// insertRecovered publishes a recovered system, failing on duplicates.
func (c *Controller) insertRecovered(sys *System) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tenants[sys.id]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateSystem, sys.id)
	}
	c.tenants[sys.id] = sys
	return nil
}
