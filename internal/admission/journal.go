package admission

// Event sourcing for the admission controller. With Config.DataDir set,
// every committed state transition of every tenant — create-system, admit,
// admit-batch, release — is validated against the live partitions, encoded
// as a typed versioned event (internal/mcsio), appended to the tenant's
// write-ahead journal (internal/journal), and only then applied. Recovery
// replays the journal through the same placement code path the live
// controller uses, which both warms the per-core analyzers and lets
// replay verify that every recorded decision is reproduced bit-for-bit;
// any divergence fails recovery closed instead of serving a partition the
// journal does not describe.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"mcsched/internal/journal"
	"mcsched/internal/mcs"
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
		Fsync:         c.cfg.Fsync,
		GroupCommit:   c.cfg.GroupCommit,
		MaxBatchDelay: c.cfg.GroupCommitDelay,
		Metrics:       c.jm.Load(),
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

// appendLocked encodes the event in the tenant's configured codec, stamps
// its sequence number and stages it on the tenant journal. Caller holds
// s.mu (or exclusively owns an unpublished system) and must call
// maybeSnapshotLocked after APPLYING the event — a snapshot taken between
// append and apply would claim a sequence whose state it does not contain.
//
// The returned wait acknowledges durability. A nil wait means the record is
// already durable and the Committed hook has fired (serial-append mode).
// A non-nil wait must be called after s.mu is released: it blocks until the
// group-commit flush covering the record completes, fires the hook, and on
// failure reports ErrJournalIO — the log is then poisoned fail-stop, so the
// optimistically applied in-memory transition can never be contradicted by
// a later append the journal did accept.
func (s *System) appendLocked(e mcsio.EventJSON) (func() error, error) {
	e.Version = mcsio.EventFormatVersion
	e.Seq = s.log.NextSeq()
	b, err := s.codec.EncodeEvent(e)
	if err != nil {
		return nil, fmt.Errorf("admission: encode %s event: %w", e.Kind, err)
	}
	wait, err := s.appendPayloadLocked(b)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrJournalIO, e.Kind, err)
	}
	return wrapWait(wait, string(e.Kind)), nil
}

// appendPayloadLocked stages pre-encoded record bytes — the shared commit
// point of live encoding (appendLocked) and replicated raw records
// (applyReplicatedLocked) — and counts the record toward the snapshot
// cadence. The replication commit hook fires at the durability point: at
// stage time in serial mode, inside the returned wait under group commit.
// Caller holds s.mu.
func (s *System) appendPayloadLocked(b []byte) (func() error, error) {
	seq, tk, err := s.log.AppendStage(b)
	if err != nil {
		return nil, err
	}
	s.sinceSnap++
	if tk == nil {
		s.fireCommitted(seq)
		return nil, nil
	}
	return func() error {
		if err := tk.Wait(); err != nil {
			return err
		}
		s.fireCommitted(seq)
		return nil
	}, nil
}

// fireCommitted notifies the replication layer of one durable append.
func (s *System) fireCommitted(seq uint64) {
	if s.hooks != nil {
		if h := s.hooks.Load(); h != nil && h.Committed != nil {
			h.Committed(s.id, seq)
		}
	}
}

// wrapWait decorates a durability wait with ErrJournalIO context; a nil
// wait passes through (the record is already durable).
func wrapWait(wait func() error, kind string) func() error {
	if wait == nil {
		return nil
	}
	return func() error {
		if err := wait(); err != nil {
			return fmt.Errorf("%w: %s: %w", ErrJournalIO, kind, err)
		}
		return nil
	}
}

// waitCommitted runs a durability wait returned by the append path; a nil
// wait (serial mode, or no journal at all) is already committed.
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

// journalAdmit records a decided single-task admit. No-op without a log.
// The returned wait follows the appendLocked protocol.
func (s *System) journalAdmit(t mcs.Task, core int) (func() error, error) {
	if s.log == nil {
		return nil, nil
	}
	j := mcsio.TaskToJSON(t)
	return s.appendLocked(mcsio.EventJSON{Kind: mcsio.EventAdmit, Task: &j, Core: core})
}

// journalBatch records a decided all-or-nothing batch: the tasks in
// placement order with their accepted cores aligned. No-op without a log.
// The returned wait follows the appendLocked protocol.
func (s *System) journalBatch(ordered mcs.TaskSet, results []AdmitResult) (func() error, error) {
	if s.log == nil {
		return nil, nil
	}
	e := mcsio.EventJSON{Kind: mcsio.EventAdmitBatch}
	for i, t := range ordered {
		e.Tasks = append(e.Tasks, mcsio.TaskToJSON(t))
		e.Cores = append(e.Cores, results[i].Core)
	}
	return s.appendLocked(e)
}

// journalRelease records a validated release. No-op without a log. The
// returned wait follows the appendLocked protocol; ids is marshaled before
// journalRelease returns, so callers may reuse the backing array.
func (s *System) journalRelease(ids []int) (func() error, error) {
	if s.log == nil {
		return nil, nil
	}
	return s.appendLocked(mcsio.EventJSON{Kind: mcsio.EventRelease, TaskIDs: ids})
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
		Test:       s.ct.Name(),
		Placement:  s.journaledPlacement(),
		Cursor:     s.snapshotCursor(),
		Partition:  mcsio.PartitionToJSON(s.asn.Snapshot()),
		Admits:     s.admits,
		Releases:   s.releases,
	}
	b, err := s.codec.EncodeSnapshot(snap)
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

// attachNewJournal opens a fresh journal for a newly created tenant and
// writes its create-system event. The system is not yet published, so no
// lock is needed. Called under the tenant-map shard lock.
func (c *Controller) attachNewJournal(sys *System, m int) error {
	dir := c.tenantDir(sys.id)
	lg, err := journal.Open(dir, c.journalOptions())
	if err != nil {
		return err
	}
	if lg.NextSeq() != 1 {
		lg.Close()
		return fmt.Errorf("%w: tenant %q at %s", ErrJournalExists, sys.id, dir)
	}
	sys.log = lg
	sys.snapEvery = c.cfg.snapshotEvery()
	sys.snapFailures = &c.snapFailures
	wait, err := sys.appendLocked(mcsio.EventJSON{
		Kind:       mcsio.EventCreateSystem,
		System:     sys.id,
		Processors: m,
		Test:       sys.ct.Name(),
		Placement:  sys.journaledPlacement(),
	})
	if err == nil {
		// Tenant creation is rare, so it waits for durability inline rather
		// than joining the pipelined acknowledge path.
		err = waitCommitted(wait)
	}
	if err != nil {
		lg.Close()
		sys.log = nil
		return err
	}
	sys.maybeSnapshotLocked()
	return nil
}

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
	for i := range c.shards {
		c.shards[i].mu.RLock()
		systems := make([]*System, 0, len(c.shards[i].m))
		for _, sys := range c.shards[i].m {
			systems = append(systems, sys)
		}
		c.shards[i].mu.RUnlock()
		for _, sys := range systems {
			sys.mu.Lock()
			if sys.log != nil {
				if err := sys.log.Close(); err != nil {
					errs = append(errs, err)
				}
			}
			sys.mu.Unlock()
		}
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
// recorded decision verified against the re-computed one. Call it once, after NewController and before serving
// traffic. Without a data directory it is a no-op.
func (c *Controller) Recover() (RecoveryStats, error) {
	var rs RecoveryStats
	if !c.cfg.journaling() {
		return rs, nil
	}
	if c.cfg.Tests == nil {
		return rs, errors.New("admission: Config.Tests resolver required to recover journaled systems")
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
			os.RemoveAll(tn.Dir)
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

// recoverTenant rebuilds one tenant from its journal directory. It returns
// (nil, 0, false, nil) for a journal with no events and no snapshot.
func (c *Controller) recoverTenant(id, dir string) (*System, int, bool, error) {
	lg, err := journal.Open(dir, c.journalOptions())
	if err != nil {
		return nil, 0, false, err
	}
	ok := false
	defer func() {
		if !ok {
			lg.Close()
		}
	}()

	var sys *System
	fromSnap := false
	payload, snapSeq, hasSnap, err := lg.Snapshot()
	if err != nil {
		return nil, 0, false, err
	}
	if hasSnap {
		sys, err = c.systemFromSnapshot(id, payload)
		if err != nil {
			return nil, 0, false, err
		}
		c.stats.admits.Add(sys.admits)
		c.stats.releases.Add(sys.releases)
		fromSnap = true
	}

	events := 0
	err = lg.Replay(snapSeq+1, func(seq uint64, rec []byte) error {
		e, err := mcsio.DecodeEvent(rec)
		if err != nil {
			return err
		}
		if e.Seq != seq {
			return fmt.Errorf("%w: record %d stamped %d", ErrReplayDivergence, seq, e.Seq)
		}
		events++
		if e.Kind == mcsio.EventCreateSystem {
			if sys != nil || seq != 1 {
				return fmt.Errorf("%w: create-system at record %d", ErrReplayDivergence, seq)
			}
			if e.System != id {
				return fmt.Errorf("%w: create-system names %q", ErrReplayDivergence, e.System)
			}
			if e.Processors > MaxProcessors {
				return fmt.Errorf("%w: create-system with %d processors", ErrReplayDivergence, e.Processors)
			}
			test, found := c.cfg.Tests(e.Test)
			if !found {
				return fmt.Errorf("admission: unknown schedulability test %q in journal", e.Test)
			}
			placer, err := resolvePlacement(e.Placement)
			if err != nil {
				return fmt.Errorf("%w in journal", err)
			}
			sys = c.newTenant(id, e.Processors, test, placer)
			return nil
		}
		if sys == nil {
			return fmt.Errorf("%w: %s event before create-system", ErrReplayDivergence, e.Kind)
		}
		return sys.applyEvent(e)
	})
	if err != nil {
		return nil, 0, false, err
	}
	if sys == nil {
		if fromSnap {
			return nil, 0, false, fmt.Errorf("%w: snapshot without system", ErrReplayDivergence)
		}
		return nil, 0, false, nil
	}
	sys.log = lg
	sys.snapEvery = c.cfg.snapshotEvery()
	sys.snapFailures = &c.snapFailures
	sys.sinceSnap = events
	ok = true
	return sys, events, fromSnap, nil
}

// systemFromSnapshot rebuilds a tenant from a snapshot payload by
// re-committing the recorded partition core by core in recorded order: the
// per-core aggregates accumulate in exactly the order the live assigner
// built them, so the restored floats are bit-identical. The tenant's
// lifetime admit/release counters are restored on the system; callers
// reconcile the controller-wide counters (recovery adds them wholesale, a
// replicated snapshot install adds only the delta over the state it
// replaces).
func (c *Controller) systemFromSnapshot(id string, payload []byte) (*System, error) {
	snap, part, err := mcsio.DecodeSnapshot(payload)
	if err != nil {
		return nil, err
	}
	if snap.System != id {
		return nil, fmt.Errorf("%w: snapshot names system %q", ErrReplayDivergence, snap.System)
	}
	if snap.Processors > MaxProcessors {
		return nil, fmt.Errorf("%w: snapshot with %d processors", ErrReplayDivergence, snap.Processors)
	}
	test, found := c.cfg.Tests(snap.Test)
	if !found {
		return nil, fmt.Errorf("admission: unknown schedulability test %q in snapshot", snap.Test)
	}
	placer, err := resolvePlacement(snap.Placement)
	if err != nil {
		return nil, fmt.Errorf("%w in snapshot", err)
	}
	sys := c.newTenant(id, snap.Processors, test, placer)
	for k, coreSet := range part.Cores {
		for _, t := range coreSet {
			if sys.resident[t.ID] {
				return nil, fmt.Errorf("%w: task %d twice in snapshot", ErrReplayDivergence, t.ID)
			}
			sys.asn.Commit(t, k)
			sys.resident[t.ID] = true
		}
	}
	sys.admits, sys.releases = snap.Admits, snap.Releases
	if snap.Placement != "" {
		// Restore the next-fit cursor: the rebuild commits above walked the
		// cores in index order, which is not the live commit order, so
		// stateful heuristics (nf) would otherwise scan from the wrong core
		// on the first post-recovery placement.
		sys.asn.SetLastCore(snap.Cursor - 1)
	}
	return sys, nil
}

// applyEvent applies one already-journaled, decoded event through the
// verified replay path, bumping the committed-transition counters exactly
// as the live decision did. It is the shared apply step of recovery replay;
// the replicated-apply path runs the same verification but interleaves the
// local journal append as its commit point (applyReplicatedLocked). Caller
// holds s.mu or exclusively owns an unpublished system.
func (s *System) applyEvent(e mcsio.EventJSON) error {
	switch e.Kind {
	case mcsio.EventAdmit:
		t, err := mcsio.TaskFromJSON(*e.Task)
		if err != nil {
			return err
		}
		if err := s.replayAdmit(t, e.Core); err != nil {
			return err
		}
		s.admits++
		s.ct.stats.admits.Inc()
	case mcsio.EventAdmitBatch:
		for i, j := range e.Tasks {
			t, err := mcsio.TaskFromJSON(j)
			if err != nil {
				return err
			}
			if err := s.replayAdmit(t, e.Cores[i]); err != nil {
				return err
			}
		}
		s.admits += uint64(len(e.Tasks))
		s.ct.stats.admits.Add(uint64(len(e.Tasks)))
	case mcsio.EventRelease:
		for _, tid := range e.TaskIDs {
			if !s.resident[tid] {
				return fmt.Errorf("%w: release of non-resident task %d", ErrReplayDivergence, tid)
			}
			s.asn.Remove(tid)
			delete(s.resident, tid)
			s.releases++
			s.ct.stats.releases.Inc()
		}
	default:
		return fmt.Errorf("%w: unexpected event kind %q", ErrReplayDivergence, e.Kind)
	}
	return nil
}

// verifyReplayedAdmit re-runs the UDP placement for a recorded admit and
// checks the decision matches the recorded core, committing nothing. The
// analyses it runs are counted in TestsRun like any other and leave the
// per-core analyzers warm for post-recovery (or post-promotion) traffic.
func (s *System) verifyReplayedAdmit(t mcs.Task, core int) error {
	if err := s.validateIncoming(t); err != nil {
		return fmt.Errorf("%w: %v", ErrReplayDivergence, err)
	}
	res := s.place(t)
	if !res.Admitted || res.Core != core {
		return fmt.Errorf("%w: task %d places on core %d, journal says %d",
			ErrReplayDivergence, t.ID, res.Core, core)
	}
	return nil
}

// replayAdmit verifies a journaled admit against the live placement and
// commits it.
func (s *System) replayAdmit(t mcs.Task, core int) error {
	if err := s.verifyReplayedAdmit(t, core); err != nil {
		return err
	}
	s.commitPlaced(t, core)
	return nil
}

// insertRecovered publishes a recovered system, failing on duplicates.
func (c *Controller) insertRecovered(sys *System) error {
	sh := c.shard(sys.id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.m[sys.id]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateSystem, sys.id)
	}
	sh.m[sys.id] = sys
	return nil
}
