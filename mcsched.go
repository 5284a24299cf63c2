package mcsched

import (
	"io"
	"math/rand"

	"mcsched/internal/admission"
	"mcsched/internal/analysis/amc"
	"mcsched/internal/analysis/ecdf"
	"mcsched/internal/analysis/edf"
	"mcsched/internal/analysis/edfvd"
	"mcsched/internal/analysis/ey"
	"mcsched/internal/core"
	"mcsched/internal/mcs"
	"mcsched/internal/mcsio"
	"mcsched/internal/obs"
	"mcsched/internal/replication"
	"mcsched/internal/taskgen"
)

// ---------------------------------------------------------------------------
// Task model
// ---------------------------------------------------------------------------

// Ticks is the integer time unit: all periods, deadlines, budgets and
// simulator timestamps are expressed in ticks.
type Ticks = mcs.Ticks

// Level is a criticality level (LO or HI).
type Level = mcs.Level

// Criticality levels of the dual-criticality model.
const (
	LO = mcs.LO
	HI = mcs.HI
)

// Task is a dual-criticality sporadic task (T, χ, C^L, C^H, D).
type Task = mcs.Task

// TaskSet is an ordered collection of tasks.
type TaskSet = mcs.TaskSet

// NewLCTask returns a low-criticality task with budget c, period t and
// implicit deadline (D = T).
func NewLCTask(id int, c, t Ticks) Task { return mcs.NewLC(id, c, t) }

// NewLCTaskD returns a low-criticality task with relative deadline d ≤ t.
func NewLCTaskD(id int, c, t, d Ticks) Task { return mcs.NewLCConstrained(id, c, t, d) }

// NewHCTask returns a high-criticality task with LO budget cl ≤ HI budget
// ch, period t and implicit deadline.
func NewHCTask(id int, cl, ch, t Ticks) Task { return mcs.NewHC(id, cl, ch, t) }

// NewHCTaskD returns a high-criticality task with relative deadline d ≤ t.
func NewHCTaskD(id int, cl, ch, t, d Ticks) Task { return mcs.NewHCConstrained(id, cl, ch, t, d) }

// ---------------------------------------------------------------------------
// Partitioning: strategies, tests, algorithms
// ---------------------------------------------------------------------------

// Test is a uniprocessor MC schedulability test consulted before every
// task-to-core assignment.
type Test = core.Test

// Strategy is a partitioning strategy mapping tasks to processors.
type Strategy = core.Strategy

// Algorithm pairs a Strategy with a Test into a complete partitioned MC
// scheduling algorithm, e.g. CU-UDP with EDF-VD.
type Algorithm = core.Algorithm

// Partition is a successful task-to-core assignment.
type Partition = core.Partition

// ErrUnpartitionable is wrapped by Partition errors when some task fits on
// no processor.
var ErrUnpartitionable = core.ErrUnpartitionable

// CANoSortFF returns the baseline of Baruah et al. (RTS 2014):
// criticality-aware, unsorted, first-fit. With EDF-VD it is the only
// partitioned MC algorithm with a proven speed-up bound (8/3).
func CANoSortFF() Strategy { return core.CANoSortFF{} }

// CAFF returns the baseline of Rodriguez et al. (WMC 2013):
// criticality-aware, sorted, first-fit for both classes.
func CAFF() Strategy { return core.CAFF{} }

// CAWuF returns the criticality-aware worst-fit-by-HC-utilization strategy
// that the paper's Figure 1 contrasts with CA-UDP.
func CAWuF() Strategy { return core.CAWuF{} }

// ECAWuF returns the enhanced criticality-aware strategy of Gu et al.
// (DATE 2014), which allocates heavy LC tasks before the HC tasks.
func ECAWuF() Strategy { return core.ECAWuF{} }

// FFD returns classic first-fit decreasing — the best conventional (non-MC)
// partitioning heuristic, as a reference point.
func FFD() Strategy { return core.FFD{} }

// WFD returns criticality-unaware worst-fit decreasing, the known-poor MC
// heuristic mentioned in the paper's introduction, for ablations.
func WFD() Strategy { return core.WFD{} }

// Strategies returns every named strategy in a stable order.
func Strategies() []Strategy { return core.Strategies() }

// StrategyByName resolves a strategy from its Name() string.
func StrategyByName(name string) (Strategy, bool) { return core.StrategyByName(name) }

// ---------------------------------------------------------------------------
// Online placement heuristics
// ---------------------------------------------------------------------------

// Placer is one online placement heuristic: the candidate-core order and
// fit rule the admission controller applies to each arriving task. Every
// tenant is bound to one placer at creation; the registry (Placements,
// PlacementByName) is the source of named heuristics, including
// "<name>@<limit>" variants capping per-core total utilization.
type Placer = core.Placer

// DefaultPlacement names the placer tenants get when none is requested:
// the paper's UDP rule (criticality-aware worst-fit for HC, first-fit for
// LC).
const DefaultPlacement = core.DefaultPlacement

// Placements returns every registered placement heuristic in a stable
// order, the default first.
func Placements() []Placer { return core.Placers() }

// PlacementByName resolves a placement heuristic from its registry name.
// The empty name resolves to the default; "<name>@<limit>" caps the base
// heuristic at a per-core total utilization limit in (0, 1].
func PlacementByName(name string) (Placer, bool) { return core.PlacerByName(name) }

// PlacementNames returns the registry names of every placement heuristic
// in the same order as Placements.
func PlacementNames() []string { return core.PlacementNames() }

// ---------------------------------------------------------------------------
// Uniprocessor schedulability tests
// ---------------------------------------------------------------------------

// EDFVD returns the utilization-based EDF-VD test of Baruah et al.
// (ECRTS 2012) for implicit-deadline systems. Speed-up bound 4/3.
func EDFVD() Test { return edfvd.Test{} }

// EDFVDAnalysis exposes the scaling factor x computed by the EDF-VD test,
// which the runtime simulator consumes as the virtual-deadline scale.
type EDFVDAnalysis = edfvd.Result

// AnalyzeEDFVD runs the EDF-VD test and returns the full analysis.
func AnalyzeEDFVD(ts TaskSet) EDFVDAnalysis { return edfvd.Analyze(ts) }

// ECDF returns the demand-bound-function test with per-task virtual
// deadlines and tightened carry-over accounting (Easwaran, RTSS 2013). It
// handles implicit and constrained deadlines and dominates EY.
func ECDF() Test { return ecdf.Test{Opts: ecdf.DefaultOptions()} }

// EY returns the Ekberg–Yi demand-bound test (ECRTS 2012), used by the
// baseline algorithms ECA-Wu-F-EY and CA-F-F-EY.
func EY() Test { return ey.Test{Opts: ey.DefaultOptions()} }

// AMC returns the fixed-priority AMC-max response-time test of Baruah,
// Burns and Davis (RTSS 2011) with Audsley optimal priority assignment —
// the configuration the paper evaluates.
func AMC() Test { return amc.Test{Opts: amc.DefaultOptions()} }

// AMCVariant selects between the AMC-rtb and AMC-max analyses.
type AMCVariant = amc.Variant

// AMC analysis variants.
const (
	// AMCRtb is the simpler response-time bound (more pessimistic).
	AMCRtb = amc.RTB
	// AMCMax maximizes the response time over all mode-switch instants.
	AMCMax = amc.Max
)

// AMCWith returns an AMC test with an explicit variant, using Audsley
// priority assignment.
func AMCWith(v AMCVariant) Test {
	opts := amc.DefaultOptions()
	opts.Variant = v
	return amc.Test{Opts: opts}
}

// AMCDeadlineMonotonic returns the AMC-max test with plain deadline-
// monotonic priorities instead of Audsley's optimal assignment — the
// weaker, simpler policy, exposed for ablation studies.
func AMCDeadlineMonotonic() Test {
	return amc.Test{Opts: amc.Options{Variant: amc.Max, Policy: amc.DeadlineMonotonic}}
}

// AMCAnalysis carries the AMC verdict and, when schedulable, the priority
// assignment (task ID → priority, 0 = highest) that passed the test — the
// map a fixed-priority runtime must use.
type AMCAnalysis = amc.Result

// AnalyzeAMC runs the default AMC-max analysis with Audsley assignment and
// returns the certified priorities.
func AnalyzeAMC(ts TaskSet) AMCAnalysis { return amc.Analyze(ts, amc.DefaultOptions()) }

// PlainEDF returns the conventional worst-case-reservation EDF test, which
// provisions every task at its own criticality level's budget. demand
// selects the demand-bound variant (needed for constrained deadlines);
// otherwise the utilization test is used. Useful as a sanity baseline.
func PlainEDF(demand bool) Test { return edf.Test{Demand: demand} }

// Tests returns the paper's four uniprocessor MC tests in a stable order:
// EDF-VD, ECDF, EY, AMC.
func Tests() []Test { return core.Tests() }

// TestByName resolves a test from its Name() string: one of Tests, or an
// ablation variant or baseline (TestNames lists every name).
func TestByName(name string) (Test, bool) { return core.TestByName(name) }

// TestNames returns every name TestByName resolves, the names of Tests
// first.
func TestNames() []string { return core.TestNames() }

// ImplicitOnly reports whether the test covers implicit deadlines only
// (EDF-VD, EDF-util): partitioning and admission refuse a
// constrained-deadline task under it with an UncoveredError.
func ImplicitOnly(test Test) bool { return core.ImplicitOnly(test) }

// Covers reports whether the test covers the task's deadline model.
func Covers(test Test, task Task) bool { return core.Covers(test, task) }

// UncoveredError refuses a task whose deadline model the test does not
// cover. It is invalid input and does not wrap ErrUnpartitionable.
type UncoveredError = core.UncoveredError

// ---------------------------------------------------------------------------
// Online admission control
// ---------------------------------------------------------------------------

// AdmissionController maintains live per-core partitions for many
// independent systems (tenants) and admits, probes and releases tasks
// online using the paper's utilization-difference placement order, with
// only the affected core re-analyzed per decision. It is safe for heavy
// concurrent use and backs the cmd/mcschedd daemon.
type AdmissionController = admission.Controller

// AdmissionConfig parameterizes an AdmissionController: the default
// placement heuristic, and the journaling policy (DataDir, Fsync,
// SnapshotEvery) for event-sourced durability.
type AdmissionConfig = admission.Config

// AdmissionSystem is one tenant of an AdmissionController: a live
// assignment over m cores gated by a single schedulability Test.
type AdmissionSystem = admission.System

// AdmitResult is the verdict of one online admit or probe decision.
type AdmitResult = admission.AdmitResult

// BatchAdmitResult is the verdict of an all-or-nothing batch decision.
type BatchAdmitResult = admission.BatchResult

// AdmissionStats is a snapshot of an AdmissionController's counters,
// including the aggregated journal counters when journaling is on.
type AdmissionStats = admission.Stats

// AdmissionJournalStats reports write-ahead-journal activity: appended
// records and bytes, fsyncs, segments, snapshots and truncations —
// aggregated in AdmissionStats.Journal, per tenant from
// AdmissionSystem.JournalStats.
type AdmissionJournalStats = admission.JournalStats

// AdmissionRecoveryStats summarizes one recovery pass: tenants rebuilt,
// snapshots loaded, events replayed and tasks resident afterwards.
type AdmissionRecoveryStats = admission.RecoveryStats

// Admission-control sentinel errors.
var (
	ErrNoSystem        = admission.ErrNoSystem
	ErrDuplicateSystem = admission.ErrDuplicateSystem
	ErrDuplicateTask   = admission.ErrDuplicateTask
	ErrUnknownTask     = admission.ErrUnknownTask
	// ErrUnknownPlacement rejects creating a tenant with a placement
	// heuristic the registry does not know.
	ErrUnknownPlacement = admission.ErrUnknownPlacement
	// ErrJournalDisabled rejects snapshot operations on a controller
	// running without a data directory.
	ErrJournalDisabled = admission.ErrJournalDisabled
	// ErrJournalExists rejects creating a tenant whose journal is already
	// on disk; Recover it instead of overwriting history.
	ErrJournalExists = admission.ErrJournalExists
	// ErrReplayDivergence marks a journal whose replay does not reproduce
	// its recorded decisions; recovery fails closed.
	ErrReplayDivergence = admission.ErrReplayDivergence
	// ErrJournalIO wraps journal append/snapshot failures (disk full, I/O
	// error, closed log); the transition it guarded did not happen.
	ErrJournalIO = admission.ErrJournalIO
)

// NewAdmissionController returns an empty controller with the given
// configuration; the zero Config selects production defaults.
func NewAdmissionController(cfg AdmissionConfig) *AdmissionController {
	return admission.NewController(cfg)
}

// RecoverAdmissionController builds a journaled controller over
// cfg.DataDir and replays every tenant found there: snapshots restore
// partitions directly and the remaining events re-run the placement path,
// with every recorded decision verified bit-for-bit. The returned
// controller is live and continues journaling; call its SnapshotAll and
// Close on shutdown.
func RecoverAdmissionController(cfg AdmissionConfig) (*AdmissionController, AdmissionRecoveryStats, error) {
	ctrl := NewAdmissionController(cfg)
	rs, err := ctrl.Recover()
	if err != nil {
		ctrl.Close()
		return nil, rs, err
	}
	return ctrl, rs, nil
}

// DefaultAdmissionConfig returns the production defaults (the default
// placement heuristic, journaling off).
func DefaultAdmissionConfig() AdmissionConfig { return admission.DefaultConfig() }

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

// MetricsRegistry collects allocation-free counters, gauges and latency
// histograms and renders them in the Prometheus text exposition format
// (Handler / WritePrometheus). Hand one to
// AdmissionController.EnableMetrics, ReplicationShipper.RegisterMetrics
// and ReplicationReceiver.RegisterMetrics; docs/operations.md lists every
// series the daemon exports.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// DecisionTrace explains one admit or probe decision: the placement policy
// used and, per candidate core in scan order, how the schedulability
// verdict was obtained. Produced by AdmissionSystem.AdmitExplain and
// ProbeExplain, and served by the daemon's ?explain=1 query parameter.
type DecisionTrace = admission.DecisionTrace

// CoreTrace is one candidate-core probe within a DecisionTrace.
type CoreTrace = admission.CoreTrace

// ---------------------------------------------------------------------------
// Journal replication (warm-standby followers)
// ---------------------------------------------------------------------------

// ReplicationShipper is the leader side of journal replication: it streams
// committed journal records (and snapshots, for catch-up) to warm-standby
// followers over HTTP. Register its Hooks on the controller, Start it, and
// Flush+Stop it on shutdown.
type ReplicationShipper = replication.Shipper

// ReplicationShipperConfig sets a ReplicationShipper's records per frame
// and its send-failure log.
type ReplicationShipperConfig = replication.ShipperConfig

// ReplicationReceiver is the follower side: HTTP handlers that apply
// leader frames through the verified replay path on a controller started
// with AdmissionConfig.Follower.
type ReplicationReceiver = replication.Receiver

// ReplicationStatus is the composite role/lag document exposed by the
// daemon's /v1/replication and /v1/stats endpoints.
type ReplicationStatus = replication.Status

// ReplicationFollowerStatus is the shipper's per-follower lag view.
type ReplicationFollowerStatus = replication.FollowerStatus

// Replication sentinel errors.
var (
	// ErrFollower rejects writes on a warm-standby controller; promote it
	// (AdmissionController.Promote) to accept traffic.
	ErrFollower = admission.ErrFollower
	// ErrNotFollower rejects replicated applies on a leader, fencing off a
	// stale leader after promotion.
	ErrNotFollower = admission.ErrNotFollower
	// ErrReplicationGap reports a replicated record beyond the follower's
	// local tail; the shipper resynchronizes from the acknowledgement.
	ErrReplicationGap = admission.ErrReplicationGap
)

// NewReplicationShipper wires a shipper from a journaled leader controller
// to the followers' base URLs.
func NewReplicationShipper(ctrl *AdmissionController, followers []string, cfg ReplicationShipperConfig) (*ReplicationShipper, error) {
	return replication.NewShipper(ctrl, followers, cfg)
}

// NewReplicationReceiver wraps a follower controller with the replication
// protocol handlers.
func NewReplicationReceiver(ctrl *AdmissionController) *ReplicationReceiver {
	return replication.NewReceiver(ctrl)
}

// ---------------------------------------------------------------------------
// Task-set generation
// ---------------------------------------------------------------------------

// GenConfig parameterizes the fair task-set generator of the paper's
// Section IV (WATERS 2016).
type GenConfig = taskgen.Config

// DefaultGenConfig returns the paper's generator defaults for m processors
// and normalized utilizations (UHH, ULH, ULL).
func DefaultGenConfig(m int, uhh, ulh, ull float64) GenConfig {
	return taskgen.DefaultConfig(m, uhh, ulh, ull)
}

// Generate draws one task set. The rng makes generation deterministic and
// concurrent callers independent.
func Generate(rng *rand.Rand, cfg GenConfig) (TaskSet, error) {
	return taskgen.Generate(rng, cfg)
}

// ---------------------------------------------------------------------------
// Task-set / partition serialization
// ---------------------------------------------------------------------------

// WriteTaskSet encodes a task set as indented JSON.
func WriteTaskSet(w io.Writer, ts TaskSet) error { return mcsio.WriteTaskSet(w, ts) }

// ReadTaskSet decodes and validates a task set from JSON.
func ReadTaskSet(r io.Reader) (TaskSet, error) { return mcsio.ReadTaskSet(r) }

// WritePartition encodes a partition as self-contained JSON.
func WritePartition(w io.Writer, p Partition) error { return mcsio.WritePartition(w, p) }

// ReadPartition decodes a partition from JSON.
func ReadPartition(r io.Reader) (Partition, error) { return mcsio.ReadPartition(r) }
