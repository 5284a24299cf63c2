// Package admission is the online counterpart of the offline UDP
// partitioning strategies: a controller that maintains live per-core
// assignments for many independent tenants ("systems") and admits,
// probes and releases tasks one at a time or in batches against them.
//
// Placement follows the paper's utilization-difference heuristic applied
// online — an arriving HC task is offered to cores worst-fit by
// UHH(φ_k) − ULH(φ_k), an LC task first-fit — and each candidate core is
// judged by re-running only that core's uniprocessor schedulability test
// (EDF-VD, ECDF, EY or AMC via the core.Test interface). A rejected task
// leaves all state untouched; a released task frees its core with no
// re-analysis, because all four tests are sustainable under task removal.
//
// There is one probe path. A decision takes the tenant lock, asks the
// tenant's placer for the candidate order and walks it serially; each probe
// builds the candidate set of one core and hands it to that core's
// incremental analyzer (internal/analysis/kernel), which keeps whatever it
// can reuse from the core's previous analyses. Nothing sits between the
// two; the assigner counts its own probes, so Stats.TestsRun, the sum of the
// responses' Tests fields and the number of analyses run are the same
// number. The tenants live in one map behind one read-write lock; the
// controller is safe for concurrent use and is the engine behind the
// cmd/mcschedd daemon.
//
// With Config.DataDir the controller is event-sourced and durable: every
// committed transition (create-system, admit, admit-batch, release) is
// validated, appended to a per-tenant write-ahead journal
// (internal/journal) as a typed versioned event, and only then applied.
// Periodic snapshots truncate the journals; Recover rebuilds all tenants
// after a restart by restoring the latest snapshot and replaying the
// remaining events through the live placement path, verifying every
// recorded decision as it goes.
package admission

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mcsched/internal/analysis/kernel"
	"mcsched/internal/core"
	"mcsched/internal/journal"
	"mcsched/internal/mcsio"
	"mcsched/internal/obs"
)

// Config parameterizes a Controller.
type Config struct {
	// Placement names the default placement heuristic of tenants created
	// without an explicit one (CreateSystem, and create requests with an
	// empty placement field). Empty selects core.DefaultPlacement, the
	// paper's criticality-aware UDP policy; any registry name
	// (core.PlacerByName) is valid, including "<name>@<limit>" per-core
	// utilization caps. CreateSystem fails closed on unknown names.
	Placement string
	// Workers selected the parallel probe engine's width until that engine
	// was deleted; the field remains only because cmd/mcload still assigns
	// it.
	//
	// Deprecated: ignored.
	Workers int

	// DataDir turns on event-sourced durability: every committed state
	// transition is appended to a per-tenant write-ahead journal under
	// this directory before it is applied, and Recover reconstructs all
	// tenants from it after a restart. Empty disables journaling.
	DataDir string
	// Fsync syncs the journal after every append. Off, durability is
	// bounded by the OS flush interval; on, every acknowledged admit
	// survives power loss at the cost of one fsync per decision.
	Fsync bool
	// JournalCodec chose the encoding of newly appended journal records and
	// snapshots. They are now always written in the binary codec; decoding
	// still detects the codec per record, so journals written as JSON keep
	// recovering. The field remains only because cmd/mcload still assigns
	// it.
	//
	// Deprecated: ignored.
	JournalCodec mcsio.Codec
	// GroupCommit chose staged journal appends over a serial path that no
	// longer exists: every journaled decision now stages its record under
	// the tenant lock and waits for the flush outside it. The field remains
	// only because cmd/mcload still assigns it.
	//
	// Deprecated: ignored.
	GroupCommit bool
	// GroupCommitDelay made a journal flush leader wait for later records
	// before writing. A leader now always flushes whatever is staged when
	// it arrives; the field remains only because cmd/mcload still assigns
	// it.
	//
	// Deprecated: ignored.
	GroupCommitDelay time.Duration
	// SnapshotEvery is the automatic snapshot cadence: after this many
	// journaled events a tenant snapshots its full state and truncates
	// its log. 0 selects DefaultSnapshotEvery; negative disables
	// automatic snapshots (manual SnapshotSystem still works).
	SnapshotEvery int
	// Follower starts the controller as a warm-standby replica: every
	// write (create, admit, batch, release, remove) is rejected with
	// ErrFollower until Promote, while reads and probes keep working and
	// replicated journal records from the leader apply through
	// ApplyReplicatedRecords and friends. Requires DataDir — the follower
	// journals what it applies, so a promoted follower is durable from its
	// first own decision.
	Follower bool
}

// Hooks observe controller transitions for the replication layer. Both
// callbacks run synchronously on the committing goroutine, so they must be
// fast and must not call back into the controller.
type Hooks struct {
	// Committed fires after a journal record is durably appended: the
	// transition at seq is committed and readable via the tenant journal's
	// ReadFrom. It fires on the acknowledging goroutine outside the tenant
	// lock, and concurrent commits may report out of sequence order —
	// treat it as a wake-up, not an ordered feed (the shipper reads actual
	// records through ReadFrom regardless).
	Committed func(tenant string, seq uint64)
	// Removed fires after a tenant and its journal directory are deleted.
	Removed func(tenant string)
}

// DefaultConfig returns the production defaults: an in-memory controller
// placing with core.DefaultPlacement.
func DefaultConfig() Config { return Config{} }

// counters holds the controller-wide counters as obs instruments. Systems
// bump them directly; Stats() and the metrics registry (EnableMetrics) read
// the very same instruments, so /v1/stats and /metrics cannot drift.
type counters struct {
	admits, rejects, probes, releases obs.Counter
	testsRun, simulations             obs.Counter
}

// Controller owns the tenant systems and their shared counters. With
// Config.DataDir it also owns the per-tenant write-ahead journals:
// mutations commit through them and Recover rebuilds every tenant after a
// restart.
type Controller struct {
	cfg Config
	// mu guards tenants. Writers (insert, removal, recovery, replicated
	// snapshot install) hold it exclusively; insert holds it across the new
	// tenant's journal open and create record, which is what keeps two
	// creates of one ID out of one directory.
	mu      sync.RWMutex
	tenants map[string]*System
	stats   counters
	nextID  uint64

	// snapFailures counts automatic snapshots that failed (the journaled
	// event is durable regardless). recoverOnce gates Recover; recovery
	// stores its result for Stats once Recover returns.
	snapFailures atomic.Uint64
	recoverOnce  atomic.Bool
	recovery     RecoveryStats

	// follower is the replication role: true rejects writes until Promote.
	// hooks late-binds the replication layer's commit observers (SetHooks);
	// systems hold a pointer to it so hooks attach after recovery too.
	// replMu serializes replicated applies, so a retried frame racing its
	// original delivery is safe rather than undefined.
	follower atomic.Bool
	hooks    atomic.Pointer[Hooks]
	replMu   sync.Mutex

	// metrics late-binds the latency histograms EnableMetrics installs; a
	// nil load means the decision paths skip timestamping entirely, keeping
	// the un-instrumented hot path byte-identical to before. jm carries the
	// journal instruments handed to every log opened afterwards.
	metrics atomic.Pointer[Metrics]
	jm      atomic.Pointer[journal.Metrics]

	// reg late-binds the metrics registry so per-family analyzer series can
	// be registered when a tenant first introduces its test family (the
	// label set is not known up front). famMu/famSeen dedupe registrations.
	reg     atomic.Pointer[obs.Registry]
	famMu   sync.Mutex
	famSeen map[string]bool
}

// NewController returns an empty controller.
func NewController(cfg Config) *Controller {
	c := &Controller{cfg: cfg, tenants: make(map[string]*System)}
	c.follower.Store(cfg.Follower)
	return c
}

// Journaled reports whether the controller persists transitions to a data
// directory — the precondition for both sides of journal replication.
func (c *Controller) Journaled() bool { return c.cfg.journaling() }

// SetHooks installs (or replaces) the replication hooks. Call it before
// serving traffic; transitions committed earlier are still observable
// through the tenant journals, which is how the shipper primes itself.
func (c *Controller) SetHooks(h Hooks) { c.hooks.Store(&h) }

// IsFollower reports whether the controller currently rejects writes as a
// warm-standby replica.
func (c *Controller) IsFollower() bool { return c.follower.Load() }

// Promote flips a follower into a writable leader. It returns true when the
// call performed the promotion and false when the controller already led.
// Promotion changes no tenant state — the replica was built through the
// same verified replay path as recovery, so it is serving-ready the moment
// the flag flips. Taking replMu serializes the flip against in-flight
// replicated frames: once Promote returns, no stale-leader frame is still
// mid-apply, and every later frame fails the role check under the same
// lock — the promoted history cannot be interleaved with the old leader's.
func (c *Controller) Promote() bool {
	c.replMu.Lock()
	defer c.replMu.Unlock()
	return c.follower.CompareAndSwap(true, false)
}

// MaxProcessors bounds the per-tenant core count. The placement loop sorts
// and scans all cores per decision and the assigner allocates O(m) state,
// so an unbounded m would let one create request pin arbitrary memory —
// 4096 is far above any platform the analyses model.
const MaxProcessors = 4096

// CreateSystem registers a new tenant over m processors gated by test,
// packed by the configured default placement heuristic. An empty id draws
// a fresh "s<n>" identifier (skipping any "s<n>" a client claimed
// explicitly). The returned system is live immediately. Its journal
// names test by Name(), so it recovers and replicates only when
// core.TestByName resolves that name.
func (c *Controller) CreateSystem(id string, m int, test core.Test) (*System, error) {
	return c.CreateSystemWithPlacement(id, m, test, "")
}

// CreateSystemWithPlacement is CreateSystem with an explicit placement
// heuristic: any registry name (core.PlacerByName), including
// "<name>@<limit>" per-core utilization caps. The empty name selects the
// controller's configured default (Config.Placement, itself defaulting to
// core.DefaultPlacement); unknown names fail closed. Non-default
// placements are journaled with the create-system event, so recovery and
// failover rebuild the tenant with the identical packer.
func (c *Controller) CreateSystemWithPlacement(id string, m int, test core.Test, placement string) (*System, error) {
	if c.follower.Load() {
		return nil, ErrFollower
	}
	if placement == "" {
		placement = c.cfg.Placement
	}
	if id != "" {
		return c.insert(id, m, test, placement, nil)
	}
	for {
		candidate := fmt.Sprintf("s%d", atomic.AddUint64(&c.nextID, 1))
		sys, err := c.insert(candidate, m, test, placement, nil)
		if errors.Is(err, ErrDuplicateSystem) {
			continue
		}
		return sys, err
	}
}

// insert founds and publishes a tenant: built by newTenant, which rejects a
// bad core count, test or placement name, and — when the controller
// journals — made durable by its create-system record before anyone can
// see it; a tenant that cannot journal is not created at all. raw is that
// record as the leader wrote it when a follower founds a replica; nil
// encodes it here.
func (c *Controller) insert(id string, m int, test core.Test, placement string, raw []byte) (*System, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tenants[id]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateSystem, id)
	}
	sys, err := c.newTenant(id, m, test, placement, nil)
	if err != nil {
		return nil, err
	}
	if sys.log != nil {
		if err := sys.journalCreate(raw); err != nil {
			sys.log.Close()
			return nil, err
		}
	}
	c.tenants[id] = sys
	return sys, nil
}

// System resolves a tenant by ID.
func (c *Controller) System(id string) (*System, error) {
	c.mu.RLock()
	sys, ok := c.tenants[id]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSystem, id)
	}
	return sys, nil
}

// RemoveSystem drops a tenant and all its state, including its journal
// directory — removal is the one transition recorded by deletion rather
// than by an event; replication propagates it as a remove frame.
func (c *Controller) RemoveSystem(id string) error {
	if c.follower.Load() {
		return ErrFollower
	}
	return c.removeSystem(id)
}

// removeSystem is the role-agnostic removal shared by RemoveSystem (leader
// writes) and ApplyReplicatedRemove (follower applies).
func (c *Controller) removeSystem(id string) error {
	c.mu.Lock()
	sys, ok := c.tenants[id]
	delete(c.tenants, id)
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSystem, id)
	}
	sys.mu.Lock()
	defer sys.mu.Unlock()
	if sys.log != nil {
		sys.log.Close()
		if err := journal.RemoveTenantDir(c.tenantDir(id)); err != nil {
			return fmt.Errorf("admission: remove journal of %q: %w", id, err)
		}
	}
	if h := c.hooks.Load(); h != nil && h.Removed != nil {
		h.Removed(id)
	}
	return nil
}

// SystemIDs returns every tenant ID in sorted order; empty, never nil.
func (c *Controller) SystemIDs() []string {
	c.mu.RLock()
	ids := make([]string, 0, len(c.tenants))
	for id := range c.tenants {
		ids = append(ids, id)
	}
	c.mu.RUnlock()
	sort.Strings(ids)
	return ids
}

// allSystems collects every tenant under the map lock and returns them for
// querying outside it: NumTasks takes the system mutex, and holding the map
// lock across a tenant mid-analysis would stall every create and delete.
func (c *Controller) allSystems() []*System {
	c.mu.RLock()
	systems := make([]*System, 0, len(c.tenants))
	for _, sys := range c.tenants {
		systems = append(systems, sys)
	}
	c.mu.RUnlock()
	return systems
}

// analyzerTotals aggregates the per-core analyzer tallies across all live
// tenants — the breakdown of TestsRun by how the analyses resolved.
func (c *Controller) analyzerTotals() kernel.Counters {
	var kc kernel.Counters
	for _, sys := range c.allSystems() {
		sc := sys.AnalyzerCounters()
		sc.AddTo(&kc)
	}
	return kc
}

// analyzerTotalsByFamily aggregates the per-core analyzer tallies across
// live tenants keyed by the test family gating each tenant.
func (c *Controller) analyzerTotalsByFamily() map[string]kernel.Counters {
	out := make(map[string]kernel.Counters)
	for _, sys := range c.allSystems() {
		sc := sys.AnalyzerCounters()
		kc := out[sys.TestName()]
		sc.AddTo(&kc)
		out[sys.TestName()] = kc
	}
	return out
}

// journalTotals aggregates the per-tenant journal counters (zero-valued,
// Enabled false, when the controller runs without a data directory).
func (c *Controller) journalTotals() JournalStats {
	var jt JournalStats
	if !c.cfg.journaling() {
		return jt
	}
	jt.Enabled = true
	jt.SnapshotFailures = c.snapFailures.Load()
	jt.RecoveredSystems = c.recovery.Systems
	jt.ReplayedEvents = c.recovery.Events
	for _, sys := range c.allSystems() {
		js, ok := sys.JournalStats()
		if !ok {
			continue
		}
		jt.Records += js.Records
		jt.Bytes += js.Bytes
		jt.Fsyncs += js.Fsyncs
		jt.GroupCommits += js.GroupCommits
		jt.Segments += js.Segments
		jt.Snapshots += js.Snapshots
		jt.TruncatedSegments += js.TruncatedSegments
	}
	return jt
}

// Stats snapshots the controller counters and gauges.
func (c *Controller) Stats() Stats {
	st := Stats{
		Role:        RoleName(c.follower.Load()),
		Admits:      c.stats.admits.Value(),
		Rejects:     c.stats.rejects.Value(),
		Probes:      c.stats.probes.Value(),
		Releases:    c.stats.releases.Value(),
		TestsRun:    c.stats.testsRun.Value(),
		Simulations: c.stats.simulations.Value(),
	}
	systems := c.allSystems()
	st.Systems = len(systems)
	var kc kernel.Counters
	var fams map[string]AnalyzerFamilyStats
	var placements map[string]int
	for _, sys := range systems {
		st.Tasks += sys.NumTasks()
		if placements == nil {
			placements = make(map[string]int)
		}
		placements[sys.PlacementName()]++
		sc := sys.AnalyzerCounters()
		sc.AddTo(&kc)
		if fams == nil {
			fams = make(map[string]AnalyzerFamilyStats)
		}
		fs := fams[sys.TestName()]
		fs.FastAccepts += sc.FastAccepts
		fs.FastRejects += sc.FastRejects
		fs.IncrementalHits += sc.IncrementalHits
		fs.ExactRuns += sc.ExactRuns
		fs.WarmStarts += sc.WarmStarts
		fams[sys.TestName()] = fs
	}
	st.FastAccepts = kc.FastAccepts
	st.FastRejects = kc.FastRejects
	st.IncrementalHits = kc.IncrementalHits
	st.ExactRuns = kc.ExactRuns
	st.WarmStarts = kc.WarmStarts
	st.AnalyzerFamilies = fams
	st.Placements = placements
	st.Journal = c.journalTotals()
	return st
}

// RoleName renders a follower flag as the wire role string.
func RoleName(follower bool) string {
	if follower {
		return "follower"
	}
	return "leader"
}
