package admission

// The tenant state machine. A tenant's state is the tuple
//
//	(partition with its per-core aggregates, next-fit cursor,
//	 resident set, lifetime admit/release counters)
//
// and everything that builds or changes it is in this file: newTenant, the
// one constructor; checkSnapshot, the one rule a snapshot passes, and
// restoreSnapshot; apply, the one transition function; and rollback, the
// one undo of tentative placements. Live decisions (system.go), crash
// recovery (journal.go) and follower apply (follower.go) are callers: they
// differ in where a transition comes from and where its record goes, never
// in how it changes the state — which is what lets recovery and failover
// promise a tenant bit-identical to the one that wrote the journal.

import (
	"fmt"

	"mcsched/internal/analysis/ey"
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
		implicitOnly: core.ImplicitOnly(test),
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

// describedTest checks that a create-system record in tenant id's journal
// is of id, and resolves the test it names through core.TestByName.
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

// checkSnapshot is the one rule a snapshot passes, in recovery and on a
// follower, before anything is built from it: it decodes (which refuses a
// task on two cores), is the snapshot of id covering exactly 1..seq, names
// a registered test, and has every core pass a per-core check. Under a
// core.Sustainable test that check is the test run cold
// (core.VerifyCores); under EY and ECDF, which are not sustainable, it is
// the filter in front of both shapers (ey.QuickState.Verdict), which
// caps the summed LO utilization of the core and the summed HI
// utilization of its high-criticality tasks at 1. Any refusal is
// ErrReplayDivergence.
//
// The rule refuses nothing replay would accept. Replay admits a task only
// if core ∪ {t} passes the test, so under a sustainable test every state a
// journal reaches, releases included, passes a cold per-core test. EY and
// ECDF are not sustainable: a release is never re-analysed (apply), and a
// cold rerun may refuse the core it leaves, so their shapers are not run.
// Their analyzers run the filter first, though, so every core they admit
// passes it, and it survives a release: the filter folds non-negative
// terms in core order (the order a snapshot records), so a release only
// drops terms, and floating-point addition is monotone in each operand,
// so no partial sum grows. TestUnsustainablePassQuickFilter checks that
// the stateless EY and ECDF accept nothing the filter refuses.
// Nor is there a coverage gate: a constrained task under an implicit-only
// test passes validate at replay and is judged here by the same analysis.
// The test runs cold, not on the tenant's analyzers, so the restored
// tenant's warm state and counters are those of a plain restore.
func checkSnapshot(id string, seq uint64, payload []byte) (snap mcsio.SnapshotJSON, part core.Partition, test core.Test, err error) {
	snap, part, err = mcsio.DecodeSnapshot(payload)
	test, _ = core.TestByName(snap.Test)
	switch {
	case err != nil:
	case snap.System != id:
		err = fmt.Errorf("it is the snapshot of %q", snap.System)
	case snap.Seq != seq:
		err = fmt.Errorf("it is stamped %d", snap.Seq)
	case test == nil:
		err = fmt.Errorf("unknown schedulability test %q", snap.Test)
	case core.Sustainable(test):
		err = core.VerifyCores(part, test)
	default:
		for k, coreSet := range part.Cores {
			if ey.FoldQuick(coreSet).Verdict() < 0 {
				err = fmt.Errorf("core %d has LO or HI utilization over 1, which %s never admits", k, test.Name())
				break
			}
		}
	}
	if err != nil {
		err = fmt.Errorf("%w: snapshot of %q covering 1..%d: %w", ErrReplayDivergence, id, seq, err)
	}
	return snap, part, test, err
}

// restoreSnapshot builds the tenant a checked snapshot describes over the
// journal lg. The partition is re-committed core by core in recorded
// order, so the per-core aggregates accumulate as the live assigner built
// them, bit for bit. These commits walk the cores in index order and
// releases never rewind the cursor, so the next-fit cursor is state and
// comes from the snapshot. Callers reconcile the controller-wide counters
// with the restored tenant's (recovery adds them, an install the delta).
func (c *Controller) restoreSnapshot(id string, snap mcsio.SnapshotJSON, part core.Partition, test core.Test, lg *journal.Log) (*System, error) {
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
//  1. validate all: every task well-formed, not resident and — when live —
//     of a deadline model the tenant's test covers; every released ID
//     resident. A failure here has touched nothing.
//  2. place: under a checkpoint of the placement state each task is placed
//     by the tenant's placer and committed tentatively, so later tasks of a
//     batch see earlier ones. A journaled core must be reproduced exactly,
//     else the replay diverged; a live decision has none and adopts the
//     placement. A misfit, a divergence or a probe rolls back.
//  3. stage: the record goes to the journal. A failure rolls back — the
//     transition never happened.
//  4. mutate: admits keep their placements, releases remove their tasks;
//     each core keeps the set its last accept certified (keepCertificate).
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

	// An accept certifies its core's set as it now stands. Removal is never
	// re-analysed: the remaining tasks keep the schedule the test certified
	// for the larger set, which the core keeps until its next accept.
	for i := range placed {
		if tr.replayed {
			s.dropCertificate(tr.cores[i])
		} else {
			s.dropCertificate(tr.results[i].Core)
		}
	}
	for _, id := range tr.ids {
		s.keepCertificate(id)
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
// the current state and mutates nothing. A live transition must offer only
// tasks the tenant's test covers; a replayed one need not, like a batch
// over MaxBatch: builds that did not check may have journaled such an
// admit, and refusing it at replay would lose acknowledged state.
func (s *System) validate(tr *transition) error {
	var seen map[int]bool
	if len(tr.tasks) > 1 {
		seen = make(map[int]bool, len(tr.tasks))
	}
	for _, t := range tr.tasks {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("admission: %w", err)
		}
		if s.implicitOnly && !tr.replayed && !t.Implicit() {
			return core.UncoveredError{Test: s.testName, Task: t}
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

// keepCertificate is called before task id leaves its core. On the first
// release from the core since its last accept, it copies the core's set —
// the one that accept certified — into the core's reused buffer. Deriving
// the runtime from that set (RuntimeForCore) keeps it certified for every
// subset a release leaves:
//   - EY and ECDF: at fixed virtual deadlines, each task's LO and HI
//     demand-bound terms depend on that task alone, and the test bounds
//     their sum at every point, so dropping a task drops only terms;
//   - AMC: under a fixed priority order, a release only removes
//     interference from every remaining task's response time;
//   - EDF-VD: both of its inequalities are monotone in utilization at a
//     fixed x.
//
// A cold rerun on the subset has no such guarantee under EY and ECDF,
// which are not sustainable (TestSustainableUnderRemoval pins a set of
// each whose rerun refuses what a release leaves).
func (s *System) keepCertificate(id int) {
	for k := 0; k < s.asn.NumCores(); k++ {
		for _, t := range s.asn.Core(k) {
			if t.ID != id {
				continue
			}
			if s.certs == nil {
				s.certs = make([]mcs.TaskSet, s.asn.NumCores())
			}
			if len(s.certs[k]) == 0 {
				s.certs[k] = append(s.certs[k], s.asn.Core(k)...)
			}
			return
		}
	}
}

// dropCertificate forgets core k's kept set: an accept just certified the
// core's current set.
func (s *System) dropCertificate(k int) {
	if k < len(s.certs) {
		s.certs[k] = s.certs[k][:0]
	}
}
