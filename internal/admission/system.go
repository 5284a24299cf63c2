package admission

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcsched/internal/analysis/kernel"
	"mcsched/internal/core"
	"mcsched/internal/journal"
	"mcsched/internal/mcs"
	"mcsched/internal/mcsio"
)

// System is one tenant: a live task-to-core assignment over m processors
// gated by a single uniprocessor schedulability test. All mutating and
// reading methods are safe for concurrent use; a per-system mutex
// serializes them, so independent tenants never contend.
//
// State transitions are event-sourced: a mutation is first decided against
// the in-memory partitions, then (when the controller journals) appended
// to the tenant's write-ahead log as a typed event, and only then applied.
// The journal append is the commit point — an acknowledged transition is
// replayable, and a crash between append and apply is indistinguishable
// from a crash just after apply because replay reproduces the same
// placement.
type System struct {
	id string
	// rejectReason is the constant Reason string of rejecting decisions.
	rejectReason string

	mu       sync.Mutex
	asn      *core.Assigner
	ct       *countedTest
	resident map[int]bool // task IDs currently placed
	// placer is the tenant's placement heuristic (immutable after
	// creation): it ranks the candidate cores of every decision. The
	// default, core.DefaultPlacement, reproduces the paper's UDP policy
	// bit-for-bit. Its registry name is journaled with the tenant, so
	// recovery and promoted followers place with the identical packer.
	placer core.Placer
	// admits and releases are the tenant's lifetime committed-transition
	// counters. They shadow the controller-wide counters so snapshots can
	// persist them per tenant, making recovered stats identical to a
	// controller that never restarted. Guarded by mu.
	admits, releases uint64

	// log is the tenant's write-ahead journal; nil when the controller
	// runs without a data directory. sinceSnap counts appended events
	// since the last snapshot; at snapEvery the system snapshots itself
	// and truncates the log. All three are guarded by mu. codec is the
	// encoding of newly appended records (immutable after creation; the
	// zero value encodes JSON, so directly built test systems work).
	log       *journal.Log
	codec     mcsio.Codec
	snapEvery int
	sinceSnap int
	// snapFailures points at the controller-wide counter of failed
	// automatic snapshots (the event itself is already durable, so a
	// failed snapshot is reported, not fatal).
	snapFailures *atomic.Uint64

	// follower points at the controller's replication role: while set, the
	// system rejects committing writes with ErrFollower (probes and reads
	// keep working). hooks points at the controller's replication hooks so
	// committed appends can wake the log shipper. Both are nil in tests
	// that build systems directly.
	follower *atomic.Bool
	hooks    *atomic.Pointer[Hooks]

	// metrics points at the controller's latency instruments; nil (or a nil
	// load, before EnableMetrics) disables decision timing entirely.
	metrics *atomic.Pointer[Metrics]

	// relScratch is the reusable ID buffer of single-task releases, so the
	// warm admit+release cycle never heap-allocates. Guarded by mu; the
	// journal marshals it before returning and never retains it.
	relScratch []int
}

// countedTest is the one thing between a tenant's assigner and its per-core
// analyzers: a decorator that counts every analysis, once into the
// controller-wide TestsRun and once into the tally of the decision in
// progress. All probes of a decision run serially under the tenant lock, so
// the tally is a plain int guarded by System.mu.
type countedTest struct {
	inner core.Test
	// name caches inner.Name() — some tests build their name, and every
	// journal append and rejection names the test.
	name  string
	stats *counters
	// tests counts analyses since the decision in progress zeroed it.
	tests int
}

// Name implements core.Test.
func (t *countedTest) Name() string { return t.name }

// Unwrap implements core.Unwrapper, exposing the analysis family to the
// assigner so it can build incremental per-core analyzers beneath the
// counter.
func (t *countedTest) Unwrap() core.Test { return t.inner }

// Schedulable implements core.Test with the stateless analysis. The
// assigner's probes use Memoize instead, with the candidate core's analyzer
// as compute.
func (t *countedTest) Schedulable(ts mcs.TaskSet) bool {
	return t.Memoize(ts, t.inner.Schedulable)
}

// Memoize implements core.Memoizer: count, then run the analysis.
func (t *countedTest) Memoize(ts mcs.TaskSet, compute func(mcs.TaskSet) bool) bool {
	t.tests++
	t.stats.testsRun.Inc()
	return compute(ts)
}

// newSystem wires a tenant over m cores judged by test and packed by
// placer (nil selects the default UDP heuristic), counting into the
// controller's stats.
func newSystem(id string, m int, test core.Test, placer core.Placer, stats *counters) *System {
	ct := &countedTest{inner: test, name: test.Name(), stats: stats}
	if placer == nil {
		placer, _ = core.PlacerByName(core.DefaultPlacement)
	}
	return &System{
		id:           id,
		rejectReason: "task fits on no core under " + ct.name,
		asn:          core.NewAssigner(m, ct),
		ct:           ct,
		placer:       placer,
		resident:     make(map[int]bool),
	}
}

// followerMode reports whether the owning controller currently rejects
// writes as a warm-standby replica.
func (s *System) followerMode() bool { return s.follower != nil && s.follower.Load() }

// ID returns the tenant identifier.
func (s *System) ID() string { return s.id }

// Journal exposes the tenant's write-ahead log (nil without a data
// directory). The log is internally synchronized; the replication shipper
// reads committed records through its ReadFrom cursor.
func (s *System) Journal() *journal.Log {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log
}

// Fingerprint renders the partition and the per-core float aggregates with
// float64s at full bit precision: two fingerprints are equal iff the states
// are bit-identical. It is the equivalence oracle of the replay-, crash-
// and failover-equivalence suites, and a cheap way for operators to compare
// a leader against a promoted follower.
func (s *System) Fingerprint() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	for k := 0; k < s.asn.NumCores(); k++ {
		fmt.Fprintf(&b, "core%d[diff=%016x uhh=%016x]:",
			k, math.Float64bits(s.asn.UtilDiff(k)), math.Float64bits(s.asn.UHH(k)))
		for _, t := range s.asn.Core(k) {
			fmt.Fprintf(&b, " %d(%016x/%016x)", t.ID, math.Float64bits(t.ULo), math.Float64bits(t.UHi))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestName returns the name of the schedulability test gating this system.
func (s *System) TestName() string { return s.ct.inner.Name() }

// PlacementName returns the registry name of the placement heuristic
// ranking this system's candidate cores.
func (s *System) PlacementName() string { return s.placer.Name() }

// journaledPlacement is the placement name as written to the journal:
// empty for the default heuristic, so journals of default-placed tenants
// stay byte-identical to those written before placement was journaled.
func (s *System) journaledPlacement() string {
	if name := s.placer.Name(); name != core.DefaultPlacement {
		return name
	}
	return ""
}

// snapshotCursor is the wire form of the next-fit cursor: one past the
// core of the most recent commit, recorded only for non-default placements
// (default snapshots keep their pre-placement bytes; the default heuristic
// never reads the cursor). Caller holds s.mu.
func (s *System) snapshotCursor() int {
	if s.journaledPlacement() == "" {
		return 0
	}
	return s.asn.LastCore() + 1
}

// NumCores returns the number of processors.
func (s *System) NumCores() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.asn.NumCores()
}

// NumTasks returns the number of resident tasks.
func (s *System) NumTasks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.resident)
}

// Snapshot returns a deep copy of the current per-core assignment.
func (s *System) Snapshot() core.Partition {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.asn.Snapshot()
}

// AnalyzerCounters aggregates the tenant's per-core analyzer tallies
// (fast-path filter hits, incremental decisions, warm-started fixed
// points).
func (s *System) AnalyzerCounters() kernel.Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.asn.AnalyzerCounters()
}

// validateIncoming rejects tasks that are malformed or collide with a
// resident ID. Caller holds s.mu.
func (s *System) validateIncoming(t mcs.Task) error {
	if err := t.Validate(); err != nil {
		return fmt.Errorf("admission: %w", err)
	}
	if s.resident[t.ID] {
		return fmt.Errorf("%w: %d", ErrDuplicateTask, t.ID)
	}
	return nil
}

// place runs the online placement decision for one task without
// committing anything: the tenant's placer ranks (and may prune) the
// candidate cores — worst-fit by utilization difference for HC tasks and
// first-fit for LC tasks under the default UDP heuristic — and only the
// candidate core's task set is re-analyzed. Caller holds s.mu.
func (s *System) place(t mcs.Task) AdmitResult {
	res := AdmitResult{TaskID: t.ID, Core: -1}
	if k := s.asn.FirstFitting(t, s.placer.Order(s.asn, t)); k >= 0 {
		res.Admitted = true
		res.Core = k
		return res
	}
	// The reason is precomputed (the rejected ID is already in TaskID), so
	// a rejecting decision is as allocation-free as an accepting one.
	res.Reason = s.rejectReason
	return res
}

// commitPlaced applies a placement that place just decided (no state
// mutated in between, which holding s.mu guarantees). Caller holds s.mu.
func (s *System) commitPlaced(t mcs.Task, k int) {
	s.asn.Commit(t, k)
	s.resident[t.ID] = true
}

// loadMetrics returns the controller's latency instruments, or nil when
// metrics are not enabled (or the system was built without a controller).
func (s *System) loadMetrics() *Metrics {
	if s.metrics == nil {
		return nil
	}
	return s.metrics.Load()
}

// Admit places one task, committing it on success.
func (s *System) Admit(t mcs.Task) (AdmitResult, error) {
	return s.decide(t, true, nil)
}

// Probe decides whether the task would be admitted without committing it.
func (s *System) Probe(t mcs.Task) (AdmitResult, error) {
	return s.decide(t, false, nil)
}

func (s *System) decide(t mcs.Task, commit bool, rec probeRecorder) (AdmitResult, error) {
	// Timing is gated on the metrics pointer: without EnableMetrics the hot
	// path takes no timestamps and the decision cost is unchanged.
	m := s.loadMetrics()
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	s.mu.Lock()
	if commit && s.followerMode() {
		// A follower's state is owned by the replication stream; probes
		// stay available so clients can ask "would this fit" on a replica.
		s.mu.Unlock()
		return AdmitResult{TaskID: t.ID, Core: -1}, ErrFollower
	}
	if err := s.validateIncoming(t); err != nil {
		s.mu.Unlock()
		return AdmitResult{TaskID: t.ID, Core: -1, Probed: !commit}, err
	}
	s.ct.tests = 0
	res := s.placeTraced(t, rec)
	res.Probed = !commit
	var wait func() error
	if commit && res.Admitted {
		// Commit point: stage the journal record first, apply second. A
		// failed staging leaves the partitions untouched — the admit never
		// happened. Under group commit durability is acknowledged after the
		// tenant lock is released (the wait below), which is what lets
		// concurrent decisions coalesce into one fsync.
		w, err := s.journalAdmit(t, res.Core)
		if err != nil {
			s.mu.Unlock()
			return AdmitResult{TaskID: t.ID, Core: -1}, err
		}
		wait = w
		s.commitPlaced(t, res.Core)
		s.admits++
		s.maybeSnapshotLocked()
	}
	res.Tests = s.ct.tests
	s.mu.Unlock()
	if err := waitCommitted(wait); err != nil {
		// The placement was applied optimistically but its durability
		// failed; the journal is now poisoned fail-stop, so no later
		// decision can be acknowledged against the phantom state.
		return AdmitResult{TaskID: t.ID, Core: -1}, err
	}
	switch {
	case !commit:
		s.ct.stats.probes.Inc()
		if m != nil {
			m.probeSeconds.Observe(time.Since(start))
		}
	case res.Admitted:
		s.ct.stats.admits.Inc()
		if m != nil {
			m.admitSeconds.Observe(time.Since(start))
		}
	default:
		s.ct.stats.rejects.Inc()
		if m != nil {
			m.admitSeconds.Observe(time.Since(start))
		}
	}
	return res, nil
}

// AdmitBatch places a batch of tasks all-or-nothing: the batch is ordered
// by decreasing level utilization (the paper's sorting rule, which worst-
// fit placement depends on), each task placed in turn, and every placement
// rolled back if any task misfits.
func (s *System) AdmitBatch(ts mcs.TaskSet) (BatchResult, error) {
	return s.decideBatch(ts, true)
}

// ProbeBatch decides a batch without committing it.
func (s *System) ProbeBatch(ts mcs.TaskSet) (BatchResult, error) {
	return s.decideBatch(ts, false)
}

func (s *System) decideBatch(ts mcs.TaskSet, commit bool) (BatchResult, error) {
	if len(ts) == 0 {
		return BatchResult{}, fmt.Errorf("admission: empty batch")
	}
	m := s.loadMetrics()
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	s.mu.Lock()
	if commit && s.followerMode() {
		s.mu.Unlock()
		return BatchResult{}, ErrFollower
	}
	seen := make(map[int]bool, len(ts))
	for _, t := range ts {
		if err := s.validateIncoming(t); err != nil {
			s.mu.Unlock()
			return BatchResult{}, err
		}
		if seen[t.ID] {
			s.mu.Unlock()
			return BatchResult{}, fmt.Errorf("%w: %d repeated in batch", ErrDuplicateTask, t.ID)
		}
		seen[t.ID] = true
	}

	ordered := ts.Clone()
	ordered.SortByLevelUtil()

	s.ct.tests = 0
	out := BatchResult{Admitted: true, Results: make([]AdmitResult, 0, len(ordered))}
	placed := make([]int, 0, len(ordered))
	// Remove does not rewind the next-fit cursor, so a rollback restores it.
	cursor := s.asn.LastCore()
	for _, t := range ordered {
		// Batch placement always commits tentatively so later tasks see
		// earlier ones; a probe (or a misfit) rolls the placements back.
		before := s.ct.tests
		res := s.place(t)
		if res.Admitted {
			s.commitPlaced(t, res.Core)
		}
		res.Tests = s.ct.tests - before
		out.Results = append(out.Results, res)
		if !res.Admitted {
			out.Admitted = false
			break
		}
		placed = append(placed, t.ID)
	}
	var wait func() error
	if out.Admitted && commit {
		// Commit point: the whole batch becomes one journal record, so a
		// crash replays either all of it or none of it. A failed staging
		// rolls the tentative placements back — the batch never happened.
		w, err := s.journalBatch(ordered, out.Results)
		if err != nil {
			for _, id := range placed {
				s.asn.Remove(id)
				delete(s.resident, id)
			}
			s.asn.SetLastCore(cursor)
			s.mu.Unlock()
			return BatchResult{}, err
		}
		wait = w
		s.admits += uint64(len(out.Results))
		s.maybeSnapshotLocked()
	}
	if !out.Admitted || !commit {
		for _, id := range placed {
			s.asn.Remove(id)
			delete(s.resident, id)
		}
		s.asn.SetLastCore(cursor)
	}
	if !commit {
		for i := range out.Results {
			out.Results[i].Probed = true
		}
	}
	out.Tests = s.ct.tests
	s.mu.Unlock()
	if err := waitCommitted(wait); err != nil {
		// Applied optimistically, durability failed: the journal is
		// poisoned fail-stop (see decide).
		return BatchResult{}, err
	}
	switch {
	case !commit:
		s.ct.stats.probes.Add(uint64(len(out.Results)))
		if m != nil {
			m.probeSeconds.Observe(time.Since(start))
		}
	case out.Admitted:
		s.ct.stats.admits.Add(uint64(len(out.Results)))
		if m != nil {
			m.admitSeconds.Observe(time.Since(start))
		}
	default:
		// Only the misfit task is a rejection; the tasks that placed and
		// were rolled back were never individually rejected.
		s.ct.stats.rejects.Inc()
		if m != nil {
			m.admitSeconds.Observe(time.Since(start))
		}
	}
	return out, nil
}

// Release removes the tasks with the given IDs and returns how many tasks
// it released (repeated IDs count once). It is transactional: when any ID
// is unknown, nothing is released. Removal never needs re-analysis — all
// four tests are sustainable under task removal — so a release is O(n)
// bookkeeping.
func (s *System) Release(ids ...int) (int, error) {
	m := s.loadMetrics()
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	s.mu.Lock()
	if s.followerMode() {
		s.mu.Unlock()
		return 0, ErrFollower
	}
	var unique []int
	if len(ids) == 1 {
		// Single-task release is the hot shape (every admit+release cycle);
		// skip the dedup map and reuse the scratch buffer so the path stays
		// allocation-free.
		if !s.resident[ids[0]] {
			s.mu.Unlock()
			return 0, fmt.Errorf("%w: %d", ErrUnknownTask, ids[0])
		}
		s.relScratch = append(s.relScratch[:0], ids[0])
		unique = s.relScratch
	} else {
		unique = make([]int, 0, len(ids))
		seen := make(map[int]bool, len(ids))
		for _, id := range ids {
			if !s.resident[id] {
				s.mu.Unlock()
				return 0, fmt.Errorf("%w: %d", ErrUnknownTask, id)
			}
			if !seen[id] {
				seen[id] = true
				unique = append(unique, id)
			}
		}
	}
	// Commit point: stage the release, then apply it; durability is
	// acknowledged after the lock (see decide).
	wait, err := s.journalRelease(unique)
	if err != nil {
		s.mu.Unlock()
		return 0, err
	}
	n := len(unique)
	for _, id := range unique {
		s.asn.Remove(id)
		delete(s.resident, id)
		s.releases++
		s.ct.stats.releases.Inc()
	}
	s.maybeSnapshotLocked()
	s.mu.Unlock()
	if err := waitCommitted(wait); err != nil {
		return 0, err
	}
	if m != nil {
		m.releaseSeconds.Observe(time.Since(start))
	}
	return n, nil
}
