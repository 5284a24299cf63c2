package admission

// Follower mode: the receive side of journal replication. A controller
// started with Config.Follower holds warm-standby replicas of the leader's
// tenants: replicated journal records append to the local per-tenant
// write-ahead logs (so the follower is durable in its own right) and apply
// through the one transition function recovery and the live path also run
// (apply, state.go) — every recorded decision is re-placed and checked
// against the leader's, which also warms the replica's per-core analyzers.
// Writes are rejected with ErrFollower until Promote, after which the
// controller serves exactly as if it had Recovered from the leader's
// journal.
//
// This is where a replicated payload's content is checked, once: the wire
// layer (mcsio.DecodeReplFrame) checks only a frame's envelope. Every
// record of a frame decodes, stamp against position, before any applies,
// and apply validates and re-places each before it stages; a snapshot
// passes recovery's checkSnapshot (tenant, sequence and every core passing
// its per-core check) before anything else. So a tampered or torn stream
// cannot poison the replica's durable state, through records or snapshots.

import (
	"errors"
	"fmt"

	"mcsched/internal/journal"
	"mcsched/internal/mcsio"
)

// Replication sentinel errors.
var (
	// ErrFollower rejects writes on a warm-standby controller; promote it
	// to accept traffic.
	ErrFollower = errors.New("admission: follower rejects writes until promoted")
	// ErrNotFollower rejects replicated applies on a leader (including a
	// just-promoted follower, so a stale leader cannot keep feeding it).
	ErrNotFollower = errors.New("admission: not a follower")
	// ErrReplicationGap reports a replicated record beyond the local tail;
	// the shipper must resync its cursor to the acknowledged position.
	ErrReplicationGap = errors.New("admission: replication sequence gap")
)

// followerGuard validates that the controller can accept replicated state.
func (c *Controller) followerGuard() error {
	if !c.follower.Load() {
		return ErrNotFollower
	}
	if !c.cfg.journaling() {
		return errors.New("admission: follower requires a data directory")
	}
	return nil
}

// TenantNext reports the next journal sequence expected for a tenant: the
// local log tail, or 1 for a tenant this controller does not hold. It is
// the cursor value replication acknowledgements carry.
func (c *Controller) TenantNext(tenant string) uint64 {
	sys, err := c.System(tenant)
	if err != nil {
		return 1
	}
	sys.mu.Lock()
	defer sys.mu.Unlock()
	if sys.log == nil {
		return 1
	}
	return sys.log.NextSeq()
}

// ReplicationProgress maps every journaled tenant to the next sequence its
// local journal expects — the follower's position document, and the
// leader's own tail for lag computation.
func (c *Controller) ReplicationProgress() map[string]uint64 {
	out := make(map[string]uint64)
	for _, sys := range c.allSystems() {
		sys.mu.Lock()
		if sys.log != nil {
			out[sys.id] = sys.log.NextSeq()
		}
		sys.mu.Unlock()
	}
	return out
}

// ApplyReplicatedRecords appends a contiguous batch of the leader's raw
// journal records (Records[i] is sequence first+i) to the tenant's local
// journal and applies them through the verified replay path. Records at
// sequences the tenant already holds are skipped, so redelivery after a
// retried frame is idempotent; a record beyond the local tail fails with
// ErrReplicationGap. next is always the tenant's next expected sequence —
// on success the new tail, on failure the resync position the
// acknowledgement should carry; applied counts the records actually
// applied (skipped redeliveries excluded). Every record decodes before the
// first applies, so a frame with a torn, reordered or undecodable record
// applies nothing, and is refused before the role check. The role check
// runs under replMu, the same lock Promote takes, so a frame either
// completes before a promotion or observes it — never half of each.
func (c *Controller) ApplyReplicatedRecords(tenant string, first uint64, recs [][]byte) (next uint64, applied int, err error) {
	if first == 0 || len(recs) == 0 {
		return c.TenantNext(tenant), 0, fmt.Errorf("admission: empty replication batch")
	}
	events := make([]mcsio.EventJSON, len(recs))
	for i, raw := range recs {
		if events[i], err = decodeRecord(first+uint64(i), raw); err != nil {
			return c.TenantNext(tenant), 0, fmt.Errorf("admission: replicated record %d of %d: %w", i+1, len(recs), err)
		}
	}
	c.replMu.Lock()
	defer c.replMu.Unlock()
	if err := c.followerGuard(); err != nil {
		return c.TenantNext(tenant), 0, err
	}
	// Durability waits accumulate across the frame and are acknowledged
	// once at the end: the whole frame stages first and then rides a
	// single flush (one fsync per frame instead of one per record). flush
	// must run on every exit path that follows a staged record, and a flush
	// failure outranks the record error it joins — the journal is then
	// poisoned and the ack must carry the rewound tail.
	var waits []func() error
	flush := func() error {
		var err error
		for _, w := range waits {
			if werr := w(); werr != nil && err == nil {
				err = werr
			}
		}
		waits = nil
		return err
	}
	for i, e := range events {
		wait, did, err := c.applyReplicatedRecord(tenant, e, recs[i])
		if wait != nil {
			waits = append(waits, wait)
		}
		if err != nil {
			return c.TenantNext(tenant), applied, firstErr(flush(), err)
		}
		if did {
			applied++
		}
	}
	if err := flush(); err != nil {
		return c.TenantNext(tenant), applied, err
	}
	return c.TenantNext(tenant), applied, nil
}

// firstErr returns the first non-nil error of its arguments.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// applyReplicatedRecord routes one verified-sequence record: a
// create-system for an unknown tenant founds it through the same insert a
// live create uses, with the leader's raw bytes as the journal's first
// record; anything else replays through apply, staging the raw bytes. It
// reports whether the record was applied (false for an idempotently skipped
// redelivery) and hands back the record's durability wait (nil when nothing
// was staged: a create-system, which commits inline, or a skipped
// redelivery) for the caller to acknowledge after it releases the tenant
// lock.
// Caller holds c.replMu.
func (c *Controller) applyReplicatedRecord(tenant string, e mcsio.EventJSON, raw []byte) (func() error, bool, error) {
	sys, err := c.System(tenant)
	if errors.Is(err, ErrNoSystem) {
		if e.Seq > 1 {
			return nil, false, fmt.Errorf("%w: tenant %q unknown but stream starts at %d", ErrReplicationGap, tenant, e.Seq)
		}
		if e.Kind != mcsio.EventCreateSystem {
			return nil, false, fmt.Errorf("%w: first record of %q is %s, not create-system", ErrReplayDivergence, tenant, e.Kind)
		}
		test, err := c.describedTest(tenant, e.System, e.Test)
		if err == nil {
			_, err = c.insert(tenant, e.Processors, test, e.Placement, raw)
		}
		return nil, err == nil, err
	}
	if err != nil {
		return nil, false, err
	}

	sys.mu.Lock()
	defer sys.mu.Unlock()
	if sys.log == nil {
		return nil, false, fmt.Errorf("admission: replicated tenant %q has no journal", tenant)
	}
	localNext := sys.log.NextSeq()
	if e.Seq < localNext {
		return nil, false, nil // already applied: idempotent redelivery
	}
	if e.Seq > localNext {
		return nil, false, fmt.Errorf("%w: record %d but local tail is %d", ErrReplicationGap, e.Seq, localNext)
	}
	wait, err := sys.replay(e, func() (func() error, error) { return sys.appendPayloadLocked(raw, e.Kind) })
	return wait, err == nil, err
}

// ApplyReplicatedSnapshot adopts a leader snapshot covering records 1..seq
// — the catch-up path when the follower is behind the leader's truncation
// horizon. The tenant's state is rebuilt from the snapshot exactly as
// recovery would (bit-identical re-commit) and the snapshot is installed
// into the tenant's existing journal (journal.InstallSnapshot writes the
// snapshot atomically before truncating anything), so a failure at any
// point leaves the previous replica intact on disk — the old state is
// only superseded, never destroyed first. A follower already at or past
// seq skips the install (idempotent redelivery). checkSnapshot runs first,
// before the role check, the skip and a new tenant's fresh journal: a
// snapshot it refuses is refused whatever the follower holds, and leaves no
// directory behind.
func (c *Controller) ApplyReplicatedSnapshot(tenant string, seq uint64, payload []byte) (next uint64, err error) {
	snap, part, test, err := checkSnapshot(tenant, seq, payload)
	if err != nil {
		return c.TenantNext(tenant), err
	}
	c.replMu.Lock()
	defer c.replMu.Unlock()
	if err := c.followerGuard(); err != nil {
		return c.TenantNext(tenant), err
	}

	if n := c.TenantNext(tenant); n > seq {
		return n, nil // local state already covers the snapshot
	}
	// Take over the stale replica's journal (a tenant this follower does not
	// hold yet gets a fresh one) and install the snapshot in place: the write
	// is an fsync+rename, and truncation of superseded segments happens only
	// after the new snapshot is live, so there is no window with the old
	// replica gone and the new one not yet durable.
	var lg *journal.Log
	var oldAdmits, oldReleases uint64
	old, oldErr := c.System(tenant)
	if oldErr == nil {
		old.mu.Lock()
		oldAdmits, oldReleases = old.admits, old.releases
		lg, old.log = old.log, nil // detach so the stale system cannot touch it
		old.mu.Unlock()
	}
	sys, err := c.restoreSnapshot(tenant, snap, part, test, lg)
	if err == nil {
		lg = sys.log
		if err = lg.InstallSnapshot(payload, seq); err != nil {
			err = fmt.Errorf("%w: install snapshot: %w", ErrJournalIO, err)
		}
	}
	if err != nil {
		if oldErr == nil {
			// Reattach: the old replica on disk is untouched and stays live.
			old.mu.Lock()
			old.log = lg
			old.mu.Unlock()
		} else if lg != nil {
			lg.Close()
		}
		return c.TenantNext(tenant), err
	}

	// Reconcile the controller-wide counters: the snapshot's lifetime
	// counters replace whatever the retired replica had contributed.
	c.stats.admits.Add(sys.admits - oldAdmits)
	c.stats.releases.Add(sys.releases - oldReleases)

	c.mu.Lock()
	c.tenants[tenant] = sys
	c.mu.Unlock()
	return seq + 1, nil
}

// ApplyReplicatedRemove propagates a leader-side tenant removal. Removing a
// tenant the follower does not hold is a no-op (idempotent redelivery).
func (c *Controller) ApplyReplicatedRemove(tenant string) error {
	c.replMu.Lock()
	defer c.replMu.Unlock()
	if err := c.followerGuard(); err != nil {
		return err
	}
	err := c.removeSystem(tenant)
	if errors.Is(err, ErrNoSystem) {
		return nil
	}
	return err
}
