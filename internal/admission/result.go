package admission

import "errors"

// Errors returned by the controller and its systems. The daemon maps them
// to HTTP statuses, so they are sentinel values rather than ad-hoc strings.
var (
	// ErrNoSystem is returned when a tenant ID resolves to nothing.
	ErrNoSystem = errors.New("admission: no such system")
	// ErrDuplicateSystem is returned when creating a tenant whose ID is
	// already taken.
	ErrDuplicateSystem = errors.New("admission: system already exists")
	// ErrDuplicateTask is returned when admitting a task whose ID is
	// already resident in the system (or repeated within one batch).
	ErrDuplicateTask = errors.New("admission: duplicate task ID")
	// ErrUnknownTask is returned when releasing a task the system does not
	// hold.
	ErrUnknownTask = errors.New("admission: unknown task ID")
	// ErrUnknownPlacement is returned when creating a tenant with a
	// placement heuristic the registry does not know.
	ErrUnknownPlacement = errors.New("admission: unknown placement heuristic")
)

// AdmitResult is the verdict of one admit or probe decision.
type AdmitResult struct {
	// TaskID echoes the decided task.
	TaskID int `json:"task_id"`
	// Admitted reports whether the task was placed (admit) or would be
	// placed (probe).
	Admitted bool `json:"admitted"`
	// Core is the index of the accepting core, -1 when rejected.
	Core int `json:"core"`
	// Probed is true when the decision did not commit state.
	Probed bool `json:"probed,omitempty"`
	// Tests is the number of uniprocessor analyses this decision ran: one
	// per candidate core it probed.
	Tests int `json:"tests"`
	// Reason explains a rejection in human terms; empty when admitted.
	Reason string `json:"reason,omitempty"`
}

// BatchResult is the verdict of an all-or-nothing batch admit or probe.
type BatchResult struct {
	// Admitted reports whether the entire batch fits; a single misfit
	// rejects (and rolls back) the whole batch.
	Admitted bool `json:"admitted"`
	// Results holds one entry per task in the batch's placement order
	// (decreasing level utilization, the paper's sorting rule). On a
	// rejected batch, entries after the first misfit are absent.
	Results []AdmitResult `json:"results"`
	// Tests is the sum of the entries' Tests.
	Tests int `json:"tests"`
}

// Stats is a point-in-time snapshot of the controller's counters.
type Stats struct {
	// Role is the replication role: "leader" (accepting writes) or
	// "follower" (warm standby, writes rejected until promotion).
	Role string `json:"role"`
	// Systems and Tasks are gauges: current tenant count and total
	// resident tasks across all tenants.
	Systems int `json:"systems"`
	Tasks   int `json:"tasks"`
	// Admits and Rejects count committed admit decisions (batch admits
	// count each task). Probes counts non-committing decisions.
	Admits   uint64 `json:"admits"`
	Rejects  uint64 `json:"rejects"`
	Probes   uint64 `json:"probes"`
	Releases uint64 `json:"releases"`
	// TestsRun counts uniprocessor analyses executed: exactly the sum of
	// the Tests fields of every admit and probe response so far, plus the
	// analyses journal replay ran to verify recorded decisions (recovery
	// and follower apply answer no request).
	TestsRun uint64 `json:"tests_run"`
	// The analyzer fast-path counters break TestsRun down by how the
	// per-core analysis engines resolved the analyses that did run,
	// aggregated over the live tenants (a removed tenant takes its tallies
	// with it). FastAccepts counts sufficient-condition accepts (EDF-VD
	// utilization bound, demand density bounds, AMC-rtb-implies-max
	// per-task shortcuts), FastRejects necessary-condition rejects
	// (per-level utilization above 1), IncrementalHits decisions resolved
	// from memoized per-core state (bottom insertion, deadline-monotonic
	// partial re-verification), ExactRuns full cold kernel runs, and
	// WarmStarts fixed-point solves seeded from a previously converged
	// response time.
	FastAccepts     uint64 `json:"fast_accepts"`
	FastRejects     uint64 `json:"fast_rejects"`
	IncrementalHits uint64 `json:"incremental_hits"`
	ExactRuns       uint64 `json:"exact_runs"`
	WarmStarts      uint64 `json:"warm_starts"`
	// Placements counts live tenants by placement heuristic (registry
	// name, e.g. "udp-ca", "wf-total", "ff@0.75"). Absent when no tenants
	// exist.
	Placements map[string]int `json:"placements,omitempty"`
	// AnalyzerFamilies breaks the analyzer counters down by test family
	// (the schedulability test gating each tenant, e.g. "EDF-VD", "EY",
	// "AMC-rtb"): each entry aggregates the per-core analyzer tallies of
	// the live tenants running that family. The unlabelled totals above are
	// the sums over this map. Absent when no tenants exist.
	AnalyzerFamilies map[string]AnalyzerFamilyStats `json:"analyzer_families,omitempty"`
	// Simulations counts read-only what-if simulations executed against
	// live tenants.
	Simulations uint64 `json:"simulations"`
	// Journal aggregates the per-tenant write-ahead-journal counters;
	// zero-valued (Enabled false) when the controller runs without a data
	// directory.
	Journal JournalStats `json:"journal"`
}

// AnalyzerFamilyStats is one test family's share of the analyzer
// fast-path counters — the same five tallies as the top-level Stats
// fields, restricted to tenants gated by that family's test.
type AnalyzerFamilyStats struct {
	FastAccepts     uint64 `json:"fast_accepts"`
	FastRejects     uint64 `json:"fast_rejects"`
	IncrementalHits uint64 `json:"incremental_hits"`
	ExactRuns       uint64 `json:"exact_runs"`
	WarmStarts      uint64 `json:"warm_starts"`
}

// JournalStats reports write-ahead-journal activity — aggregated across
// all tenants in Stats, or for one tenant from System.JournalStats.
// Counters cover the life of this process; SnapshotSeq and NextSeq are
// per-tenant gauges and are only set in the per-tenant form.
type JournalStats struct {
	// Enabled reports whether journaling is on.
	Enabled bool `json:"enabled"`
	// Records and Bytes count appended events and their framed bytes.
	Records uint64 `json:"records"`
	Bytes   uint64 `json:"bytes"`
	// Fsyncs counts synchronous flushes (appends under -fsync, snapshot
	// writes, directory syncs).
	Fsyncs uint64 `json:"fsyncs"`
	// GroupCommits counts journal flushes: shared segment writes (one fsync
	// each under -fsync) covering one or more staged records, so
	// Records/GroupCommits is the achieved batching factor.
	GroupCommits uint64 `json:"group_commits,omitempty"`
	// Segments is the current number of on-disk log segments.
	Segments uint64 `json:"segments"`
	// Snapshots counts snapshots written; SnapshotFailures counts
	// automatic snapshots that failed (their events stayed durable).
	Snapshots        uint64 `json:"snapshots"`
	SnapshotFailures uint64 `json:"snapshot_failures,omitempty"`
	// TruncatedSegments counts segments deleted by snapshot truncation.
	TruncatedSegments uint64 `json:"truncated_segments,omitempty"`
	// SnapshotSeq and NextSeq are the tenant's latest-snapshot sequence
	// and next append position (per-tenant form only).
	SnapshotSeq uint64 `json:"snapshot_seq,omitempty"`
	NextSeq     uint64 `json:"next_seq,omitempty"`
	// RecoveredSystems and ReplayedEvents summarize the boot-time
	// recovery pass (aggregate form only).
	RecoveredSystems int `json:"recovered_systems,omitempty"`
	ReplayedEvents   int `json:"replayed_events,omitempty"`
}
