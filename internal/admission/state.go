package admission

// The tenant state machine. A tenant's state is the tuple
//
//	(partition with its per-core aggregates, next-fit cursor,
//	 resident set, lifetime admit/release counters)
//
// and everything that builds or changes it is in this file: newTenant, the
// one constructor; restoreSnapshot, which fills a fresh tenant from a
// snapshot; apply, the one transition function; and rollback, the one undo
// of tentative placements. Live decisions (system.go), crash recovery
// (journal.go) and follower apply (follower.go) are callers: they differ in
// where a transition comes from and where its record goes, never in how it
// changes the state — which is what lets recovery and failover promise a
// tenant bit-identical to the one that wrote the journal.

import (
	"fmt"

	"mcsched/internal/core"
	"mcsched/internal/journal"
	"mcsched/internal/mcs"
	"mcsched/internal/mcsio"
)

// newTenant is the one constructor of tenant state: live create, the
// create-system record of recovery and of a follower, and snapshot restore
// all build their System here, so they check the same bounds and wire the
// same counters, role flag, hooks and snapshot cadence. lg is the
// tenant's already open journal (recovery, snapshot install); nil founds a
// new tenant, which on a journaling controller opens a fresh journal — last,
// so a rejected create leaves no directory behind — and fails with
// ErrJournalExists when that directory already holds history.
func (c *Controller) newTenant(id string, m int, test core.Test, placement string, lg *journal.Log) (*System, error) {
	if m <= 0 || m > MaxProcessors {
		return nil, fmt.Errorf("admission: m=%d processors (must be in 1..%d)", m, MaxProcessors)
	}
	if test == nil {
		return nil, fmt.Errorf("admission: nil test")
	}
	if len(id) > MaxSystemID {
		return nil, fmt.Errorf("admission: system ID longer than %d bytes", MaxSystemID)
	}
	placer, ok := core.PlacerByName(placement)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPlacement, placement)
	}
	if lg == nil && c.cfg.journaling() {
		var err error
		if lg, err = c.openLog(c.tenantDir(id), true); err != nil {
			return nil, err
		}
	}
	name := test.Name()
	c.registerFamilySeries(name)
	return &System{
		id:           id,
		rejectReason: "task fits on no core under " + name,
		testName:     name,
		stats:        &c.stats,
		asn:          core.NewAssigner(m, test),
		placer:       placer,
		resident:     make(map[int]bool),
		log:          lg,
		snapEvery:    c.cfg.snapshotEvery(),
		snapFailures: &c.snapFailures,
		follower:     &c.follower,
		hooks:        &c.hooks,
		metrics:      &c.metrics,
	}, nil
}

// describedTest resolves, through the core.TestByName registry, the
// schedulability test a journaled description of tenant id — a
// create-system record or a snapshot — names, after checking that the
// description is of that tenant at all.
func (c *Controller) describedTest(id, named, test string) (core.Test, error) {
	if named != id {
		return nil, fmt.Errorf("%w: journal of %q describes system %q", ErrReplayDivergence, id, named)
	}
	t, ok := core.TestByName(test)
	if !ok {
		return nil, fmt.Errorf("admission: unknown schedulability test %q in the journal of %q", test, id)
	}
	return t, nil
}

// restoreSnapshot builds the tenant a snapshot payload describes over the
// journal lg. The recorded partition is re-committed core by core in
// recorded order, so the per-core aggregates accumulate in exactly the
// order the live assigner built them and the restored floats are
// bit-identical. Those commits walk the cores in index order, not in the
// live commit order, and releases never rewind the cursor anyway, so the
// next-fit cursor cannot be rederived: it is state, and comes from the
// snapshot. The lifetime counters are restored on the tenant; callers
// reconcile the controller-wide ones (recovery adds them wholesale, a
// replicated install only the delta over the replica it replaces).
func (c *Controller) restoreSnapshot(id string, payload []byte, lg *journal.Log) (*System, error) {
	snap, part, err := mcsio.DecodeSnapshot(payload)
	if err != nil {
		return nil, err
	}
	seen := make(map[int]bool)
	for _, coreSet := range part.Cores {
		for _, t := range coreSet {
			if seen[t.ID] {
				return nil, fmt.Errorf("%w: task %d twice in snapshot", ErrReplayDivergence, t.ID)
			}
			seen[t.ID] = true
		}
	}
	test, err := c.describedTest(id, snap.System, snap.Test)
	if err != nil {
		return nil, err
	}
	sys, err := c.newTenant(id, snap.Processors, test, snap.Placement, lg)
	if err != nil {
		return nil, err
	}
	for k, coreSet := range part.Cores {
		for _, t := range coreSet {
			sys.commitPlaced(t, k)
		}
	}
	sys.admits, sys.releases = snap.Admits, snap.Releases
	if snap.Placement != "" {
		// Default-placed snapshots keep their pre-placement bytes and record
		// no cursor; the default heuristic never reads it.
		sys.asn.SetLastCore(snap.Cursor - 1)
	}
	return sys, nil
}

// transition is one tenant event in decoded form, the argument of apply: an
// admit or admit-batch places tasks, a release removes ids.
type transition struct {
	kind  string      // mcsio.EventAdmit, EventAdmitBatch or EventRelease
	tasks mcs.TaskSet // admits, in placement order
	ids   []int       // release: distinct task IDs
	// replayed marks a transition decoded from a journal record, whose tasks
	// must place on the journaled cores; a live decision has no cores yet and
	// adopts what placement says.
	replayed bool
	cores    []int
	// dry makes a live admit a probe: decided like any other, then rolled
	// back instead of staged.
	dry bool
	rec probeRecorder // explain tracing of a live single decision, or nil

	// Set by apply for live decisions: one verdict per placed task (up to and
	// including the first misfit), whether every task fit, and the number of
	// analyses run.
	results  []AdmitResult
	admitted bool
	tests    int
}

// replay applies one journaled event: recovery passes a nil stage (the
// record is already in the journal), a follower one that appends the
// leader's raw bytes to its own. Same locking contract as apply.
func (s *System) replay(e mcsio.EventJSON, stage func() (func() error, error)) (func() error, error) {
	tr := transition{kind: e.Kind, ids: e.TaskIDs, replayed: true, cores: e.Cores}
	var err error
	switch e.Kind {
	case mcsio.EventAdmit:
		if s.oneTask[0], err = mcsio.TaskFromJSON(*e.Task); err != nil {
			return nil, err
		}
		s.oneCore[0] = e.Core
		tr.tasks, tr.cores = s.oneTask[:], s.oneCore[:]
	case mcsio.EventAdmitBatch:
		tr.tasks = make(mcs.TaskSet, len(e.Tasks))
		for i, j := range e.Tasks {
			if tr.tasks[i], err = mcsio.TaskFromJSON(j); err != nil {
				return nil, err
			}
		}
	case mcsio.EventRelease:
	default:
		// A second create-system lands here too: its sequence matched the
		// tail, so the stream is semantically corrupt.
		return nil, fmt.Errorf("%w: unexpected event kind %q", ErrReplayDivergence, e.Kind)
	}
	return s.apply(&tr, stage)
}

// apply is the tenant's one transition function. Live admits, batches,
// probes and releases, crash-recovery replay and follower apply all run it
// and differ only in stage — live encodes the transition and appends it, a
// follower appends the leader's raw bytes, recovery passes nil because the
// record is already journaled — and in tr.replayed and tr.dry. The order is
// the same for every caller and every kind:
//
//  1. validate all: every task well-formed and not resident, every released
//     ID resident. A failure here has touched nothing.
//  2. place: under a checkpoint of the placement state each task is placed
//     by the tenant's placer and committed tentatively, so later tasks of a
//     batch see earlier ones. A journaled core must be reproduced exactly,
//     else the replay diverged; a live decision has none and adopts the
//     placement. A misfit, a divergence or a probe rolls back.
//  3. stage: the record goes to the journal. A failure rolls back — the
//     transition never happened.
//  4. mutate: admits keep their placements, releases remove their tasks.
//  5. count: the tenant's lifetime counters and the controller-wide ones,
//     under the tenant lock and before the durability wait. A transition
//     whose flush later fails is therefore counted although its caller sees
//     an error; the journal is then poisoned fail-stop, so nothing else is
//     ever acknowledged against it.
//  6. snapshot cadence, which needs the state to contain the staged record.
//
// The returned wait acknowledges durability and must run after s.mu is
// released; it is nil when nothing was staged (no journal, recovery, a
// probe, a reject). Until it returns, other callers can already read the
// transition. Caller holds s.mu or exclusively owns an unpublished system.
func (s *System) apply(tr *transition, stage func() (func() error, error)) (func() error, error) {
	if err := s.validate(tr); err != nil {
		if tr.replayed {
			err = fmt.Errorf("%w: %w", ErrReplayDivergence, err)
		}
		return nil, err
	}

	// The checkpoint: the cursor now, and the tasks placed from here on.
	// Every probe is one analysis; the assigner counts them.
	cursor, placed, probes := s.asn.LastCore(), 0, s.asn.Probes()
	tr.admitted = true
	var err error
	for i, t := range tr.tasks {
		before := s.asn.Probes()
		res := s.placeTraced(t, tr.rec)
		res.Tests, res.Probed = int(s.asn.Probes()-before), tr.dry
		if !tr.replayed {
			tr.results = append(tr.results, res)
		} else if !res.Admitted || res.Core != tr.cores[i] {
			err = fmt.Errorf("%w: task %d places on core %d, journal says %d",
				ErrReplayDivergence, t.ID, res.Core, tr.cores[i])
			break
		}
		if !res.Admitted {
			tr.admitted = false
			break
		}
		s.commitPlaced(t, res.Core)
		placed++
	}
	if n := s.asn.Probes() - probes; n > 0 {
		tr.tests = int(n)
		s.stats.testsRun.Add(n)
	}

	var wait func() error
	switch {
	case err != nil:
	case tr.dry:
		s.stats.probes.Add(uint64(len(tr.results)))
	case !tr.admitted:
		// Only the misfit task is a rejection; the tasks that placed before
		// it were never individually rejected.
		s.stats.rejects.Inc()
	case stage != nil:
		wait, err = stage()
	}
	if err != nil || tr.dry || !tr.admitted {
		s.rollback(cursor, tr.tasks[:placed])
		return nil, err
	}

	// Removal never needs re-analysis: every test is sustainable under it.
	for _, id := range tr.ids {
		s.asn.Remove(id)
		delete(s.resident, id)
	}

	// A transition is of one kind; the other kind's shared counter is not
	// touched, so the hot path pays one contended add, not two.
	if n := uint64(placed); n > 0 {
		s.admits += n
		s.stats.admits.Add(n)
	}
	if n := uint64(len(tr.ids)); n > 0 {
		s.releases += n
		s.stats.releases.Add(n)
	}

	if stage != nil {
		s.maybeSnapshotLocked()
	}
	return wait, nil
}

// validate is apply's first step: it checks the whole transition against
// the current state and mutates nothing.
func (s *System) validate(tr *transition) error {
	var seen map[int]bool
	if len(tr.tasks) > 1 {
		seen = make(map[int]bool, len(tr.tasks))
	}
	for _, t := range tr.tasks {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("admission: %w", err)
		}
		if s.resident[t.ID] {
			return fmt.Errorf("%w: %d", ErrDuplicateTask, t.ID)
		}
		if seen[t.ID] {
			return fmt.Errorf("%w: %d repeated in batch", ErrDuplicateTask, t.ID)
		}
		if seen != nil {
			seen[t.ID] = true
		}
	}
	for _, id := range tr.ids {
		if !s.resident[id] {
			return fmt.Errorf("%w: %d", ErrUnknownTask, id)
		}
	}
	return nil
}

// commitPlaced puts a task on the core placement just chose for it (no
// state mutated in between, which holding s.mu guarantees).
func (s *System) commitPlaced(t mcs.Task, k int) {
	s.asn.Commit(t, k)
	s.resident[t.ID] = true
}

// rollback is the one undo of tentative placements: it takes the tasks
// placed since the checkpoint off their cores and rewinds the next-fit
// cursor to where the checkpoint found it. Tentative commits only append,
// so removing them restores every core's list, and Remove recomputes the
// aggregates from that list, bit for bit. Remove does not touch the cursor
// — a release must not rewind it — which is why the cursor travels with the
// checkpoint instead of being left to each caller to remember.
func (s *System) rollback(cursor int, placed mcs.TaskSet) {
	for _, t := range placed {
		s.asn.Remove(t.ID)
		delete(s.resident, t.ID)
	}
	s.asn.SetLastCore(cursor)
}
