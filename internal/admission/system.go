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
// State transitions are event-sourced, and every one of them — live,
// replayed by recovery or applied by a follower — goes through apply
// (state.go): a mutation is first decided against the in-memory partitions,
// then (when the controller journals) appended to the tenant's write-ahead
// log as a typed event, and only then kept. The journal append is the commit
// point — an acknowledged transition is replayable, and a crash between
// append and apply is indistinguishable from a crash just after apply
// because replay reproduces the same placement.
type System struct {
	id string
	// rejectReason is the constant Reason string of rejecting decisions.
	rejectReason string

	// testName names the schedulability test gating the tenant (the
	// assigner holds the test itself); every journal append and rejection
	// names it. stats are the controller-wide counters the tenant's
	// transitions bump.
	testName string
	stats    *counters

	mu       sync.Mutex
	asn      *core.Assigner
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
	// and truncates the log. All three are guarded by mu.
	log       *journal.Log
	snapEvery int
	sinceSnap int
	// snapFailures points at the controller-wide counter of failed
	// automatic snapshots (the event itself is already durable, so a
	// failed snapshot is reported, not fatal).
	snapFailures *atomic.Uint64

	// follower points at the controller's replication role: while set, the
	// system rejects committing writes with ErrFollower (probes and reads
	// keep working). hooks points at the controller's replication hooks so
	// committed appends can wake the log shipper.
	follower *atomic.Bool
	hooks    *atomic.Pointer[Hooks]

	// metrics points at the controller's latency instruments; a nil load
	// (before EnableMetrics) disables decision timing entirely.
	metrics *atomic.Pointer[Metrics]

	// oneTask, oneCore, oneResult and relScratch are the reusable buffers of
	// single-task transitions (oneCore of replayed ones) and releases, so the
	// warm admit+release cycle never heap-allocates. Guarded by mu; the
	// journal marshals what it is handed before returning and never retains
	// it.
	oneTask    [1]mcs.Task
	oneCore    [1]int
	oneResult  [1]AdmitResult
	relScratch []int
}

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
func (s *System) TestName() string { return s.testName }

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

// applyLive runs one live transition through apply: the stage encodes the
// transition and appends it to the tenant journal, if there is one. The
// returned wait must run after s.mu is released, which is what lets
// concurrent decisions coalesce into one fsync under group commit; when it
// fails the transition was applied optimistically but is not durable, and
// the journal is poisoned fail-stop, so no later decision can be
// acknowledged against the phantom state. Caller holds s.mu.
func (s *System) applyLive(tr *transition) (func() error, error) {
	if !tr.dry && s.follower.Load() {
		// A follower's state is owned by the replication stream; probes stay
		// available so clients can ask "would this fit" on a replica.
		return nil, ErrFollower
	}
	return s.apply(tr, func() (func() error, error) { return s.stageEncoded(tr) })
}

// timed starts the latency clock of one operation. Timing is gated on the
// metrics pointer: without EnableMetrics the hot path takes no timestamps
// and the decision cost is unchanged.
func (s *System) timed() (m *Metrics, start time.Time) {
	if m = s.metrics.Load(); m != nil {
		start = time.Now()
	}
	return m, start
}

// observe stops a clock timed started into the admit histogram, or into the
// probe histogram for a decision that did not commit.
func (m *Metrics) observe(start time.Time, probe bool) {
	switch {
	case m == nil:
	case probe:
		m.probeSeconds.Observe(time.Since(start))
	default:
		m.admitSeconds.Observe(time.Since(start))
	}
}

// Admit places one task, committing it on success.
func (s *System) Admit(t mcs.Task) (AdmitResult, error) {
	return s.decide(t, true, nil)
}

// Probe decides whether the task would be admitted without committing it.
// Placement state is left untouched, the next-fit cursor included.
func (s *System) Probe(t mcs.Task) (AdmitResult, error) {
	return s.decide(t, false, nil)
}

func (s *System) decide(t mcs.Task, commit bool, rec probeRecorder) (AdmitResult, error) {
	m, start := s.timed()
	s.mu.Lock()
	// The one-task set and its verdict live in the tenant's scratch, so a
	// warm decision never heap-allocates; the verdict is copied out under
	// the lock.
	s.oneTask[0] = t
	tr := transition{kind: mcsio.EventAdmit, tasks: s.oneTask[:], results: s.oneResult[:0], dry: !commit, rec: rec}
	wait, err := s.applyLive(&tr)
	res := s.oneResult[0]
	s.mu.Unlock()
	if err == nil {
		err = waitCommitted(wait)
	}
	if err != nil {
		return AdmitResult{TaskID: t.ID, Core: -1, Probed: !commit}, err
	}
	m.observe(start, !commit)
	return res, nil
}

// AdmitBatch places a batch of tasks all-or-nothing: the batch is ordered
// by decreasing level utilization (the paper's sorting rule, which worst-
// fit placement depends on), each task placed in turn, and every placement
// rolled back if any task misfits.
func (s *System) AdmitBatch(ts mcs.TaskSet) (BatchResult, error) {
	return s.decideBatch(ts, true)
}

// ProbeBatch decides a batch without committing it. Like a rejected batch it
// rolls its tentative placements back, the next-fit cursor included.
func (s *System) ProbeBatch(ts mcs.TaskSet) (BatchResult, error) {
	return s.decideBatch(ts, false)
}

// MaxBatch bounds the tasks of one live batch admit or probe. A batch is
// decided whole under the tenant lock, so its length bounds how long every
// other request to the tenant waits. Replay and follower apply do not come
// through here: a journal holding a longer batch still recovers.
const MaxBatch = 1024

func (s *System) decideBatch(ts mcs.TaskSet, commit bool) (BatchResult, error) {
	switch {
	case len(ts) == 0:
		return BatchResult{}, fmt.Errorf("admission: empty batch")
	case len(ts) > MaxBatch:
		return BatchResult{}, fmt.Errorf("admission: batch of %d tasks (at most %d)", len(ts), MaxBatch)
	}
	m, start := s.timed()
	ordered := ts.Clone()
	ordered.SortByLevelUtil()
	// The whole batch becomes one journal record, so a crash replays either
	// all of it or none of it.
	tr := transition{kind: mcsio.EventAdmitBatch, tasks: ordered,
		results: make([]AdmitResult, 0, len(ordered)), dry: !commit}
	s.mu.Lock()
	wait, err := s.applyLive(&tr)
	s.mu.Unlock()
	if err == nil {
		err = waitCommitted(wait)
	}
	if err != nil {
		return BatchResult{}, err
	}
	m.observe(start, !commit)
	return BatchResult{Admitted: tr.admitted, Results: tr.results, Tests: tr.tests}, nil
}

// Release removes the tasks with the given IDs and returns how many tasks
// it released (repeated IDs count once). It is transactional: when any ID
// is unknown, nothing is released. Removal never needs re-analysis — all
// four tests are sustainable under task removal — so a release is O(n)
// bookkeeping.
func (s *System) Release(ids ...int) (int, error) {
	m, start := s.timed()
	s.mu.Lock()
	// Single-task release is the hot shape (every admit+release cycle): no
	// dedup map, and the scratch buffer keeps the path allocation-free. The
	// journal marshals the IDs before apply returns and never retains them.
	unique := s.relScratch[:0]
	if len(ids) == 1 {
		unique = append(unique, ids[0])
	} else {
		seen := make(map[int]bool, len(ids))
		for _, id := range ids {
			if !seen[id] {
				seen[id] = true
				unique = append(unique, id)
			}
		}
	}
	s.relScratch = unique
	tr := transition{kind: mcsio.EventRelease, ids: unique}
	wait, err := s.applyLive(&tr)
	s.mu.Unlock()
	if err == nil {
		err = waitCommitted(wait)
	}
	if err != nil {
		return 0, err
	}
	if m != nil {
		m.releaseSeconds.Observe(time.Since(start))
	}
	return len(unique), nil
}
