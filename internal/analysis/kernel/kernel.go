// Package kernel defines the contract between the partitioning/admission
// layers and the reusable per-core analysis engines ("analyzers") that the
// schedulability-test families provide.
//
// Each built-in family has one search, its engine. Test.Schedulable runs
// it cold on a fresh instance; an Analyzer is the same engine dedicated to
// one processor, keeping scratch buffers and memoized artifacts (priority
// orders, converged response times, running utilization sums, demand
// curves) across calls, and answering the same question — "is this task
// set schedulable on one core?" — with exactly the verdict of a cold run.
// Every shortcut an analyzer takes (fast-path filters, warm-started fixed
// points, incremental re-verification) is required to be provably
// verdict-preserving, not merely approximate.
//
// The reference both are checked against is package internal/oracle: the
// stateless from-scratch searches, which only tests import. The
// differential suite in internal/analysis/crosstest certifies verdict
// equality with them for every family, and TestCertificatesMatchOracle
// certifies that a cold run hands out the oracle's certificates (virtual
// deadlines, priorities, x) bit for bit.
//
// One stated exception: dbf's QPA walks give up ("not schedulable") after
// 2^20 iterations, per walk. The EY/ECDF engines resume each walk of a
// shaping run from what the previous one proved, so one of theirs could
// finish where the oracle's full walk gives up and rejects. dbf.Backstops
// counts the give-ups; the goldens and the differential corpus assert it
// stays zero.
//
// Analyzers additionally run two-sided fast-path filters before exact
// analysis — necessary-condition rejects (per-level utilization above 1,
// density bounds) and sufficient accepts (utilization bounds, analysis
// dominance such as AMC-rtb ⇒ AMC-max) — and account for how often each
// fires in Counters, so operators can see what fraction of analysis demand
// never reaches the expensive kernels.
package kernel

import "mcsched/internal/mcs"

// Test is the uniprocessor schedulability-test contract, structurally
// identical to core.Test; it is redeclared here so the
// analysis packages can implement the analyzer capability without
// importing core.
type Test interface {
	// Name identifies the test, e.g. "EDF-VD".
	Name() string
	// Schedulable decides the given uniprocessor task set.
	Schedulable(mcs.TaskSet) bool
}

// Analyzer is a reusable per-core analysis engine. It is NOT safe for
// concurrent use: callers dedicate one analyzer to one core and serialize
// calls on it (core.Assigner probes its cores in a serial loop).
//
// Schedulable must return exactly the verdict the family's Test returns for
// the same task set. Implementations may retain memoized state
// derived from the sets they analyze, but must copy anything they keep —
// callers typically pass scratch slices that are invalid after the call
// returns.
type Analyzer interface {
	// Schedulable decides the given uniprocessor task set.
	Schedulable(mcs.TaskSet) bool
	// Forget informs the analyzer that the task with the given ID left the
	// core it models, so memoized artifacts can be pruned instead of
	// discarded. Unknown IDs are ignored.
	Forget(id int)
	// Invalidate drops all memoized state. The next Schedulable call runs
	// cold. It exists for callers that mutate core state behind the
	// analyzer's back.
	Invalidate()
	// Counters exposes the analyzer's fast-path and warm-start tallies.
	// The returned pointer is owned by the analyzer; callers read it only
	// while no Schedulable call is in flight.
	Counters() *Counters
}

// Incremental is the optional capability of a Test: families that provide
// a reusable per-core analyzer implement it, and core.Assigner detects it
// to route per-core probes through analyzers instead of Test.Schedulable.
type Incremental interface {
	Test
	// NewAnalyzer returns a fresh per-core analyzer for this test
	// configuration.
	NewAnalyzer() Analyzer
}

// Counters tallies the analyzer fast paths. Fields are plain integers
// mutated by the owning analyzer only; cross-core aggregation happens under
// the caller's locks (see core.Assigner.AnalyzerCounters).
type Counters struct {
	// FastAccepts counts decisions (or per-task checks) answered by a
	// sufficient condition without running the exact kernel: the EDF-VD
	// plain-EDF utilization branch, demand density bounds, and the
	// AMC-rtb-implies-max dominance shortcut.
	FastAccepts uint64
	// FastRejects counts decisions answered by a necessary condition:
	// per-level utilization above 1 (with the family's own arithmetic, so
	// the exact kernel is guaranteed to agree).
	FastRejects uint64
	// ExactRuns counts full (cold) kernel runs.
	ExactRuns uint64
	// IncrementalHits counts decisions resolved from memoized per-core
	// state without a full kernel run: bottom-insertion under Audsley
	// priority assignment, partial re-verification under
	// deadline-monotonic orders, reused prefix sums, and the demand-bound
	// families' zero-iteration decisions off cached curves and horizon
	// folds (an extended set accepted or rejected before any shaping or
	// QPA re-walk beyond the seeded checks).
	IncrementalHits uint64
	// WarmStarts counts exact analyses seeded from memoized state instead
	// of a cold start: fixed-point solves resuming from a previously
	// converged response time, and demand-bound runs starting from cached
	// curves, filter sums and horizon folds extended by one task. A warm
	// start that still runs the full kernel also counts as an ExactRun; one
	// that resolves without it counts as an IncrementalHit.
	WarmStarts uint64
}

// AddTo accumulates c into dst.
func (c *Counters) AddTo(dst *Counters) {
	dst.FastAccepts += c.FastAccepts
	dst.FastRejects += c.FastRejects
	dst.ExactRuns += c.ExactRuns
	dst.IncrementalHits += c.IncrementalHits
	dst.WarmStarts += c.WarmStarts
}

// Total returns the total number of decisions the counters describe.
func (c *Counters) Total() uint64 {
	return c.FastAccepts + c.FastRejects + c.ExactRuns + c.IncrementalHits
}

// Stateless adapts a plain Test to the Analyzer interface for families
// without an incremental engine. Every call is an exact run.
type Stateless struct {
	T   Test
	ctr Counters
}

// NewStateless wraps t.
func NewStateless(t Test) *Stateless { return &Stateless{T: t} }

// Schedulable implements Analyzer by delegating to the test.
func (s *Stateless) Schedulable(ts mcs.TaskSet) bool {
	s.ctr.ExactRuns++
	return s.T.Schedulable(ts)
}

// Forget implements Analyzer (no state to prune).
func (s *Stateless) Forget(int) {}

// Invalidate implements Analyzer (no state to drop).
func (s *Stateless) Invalidate() {}

// Counters implements Analyzer.
func (s *Stateless) Counters() *Counters { return &s.ctr }

// PrefixExtends reports whether ts equals base plus exactly one task
// appended at the end. Tasks are compared by value (all fields), because a
// released task ID may be re-admitted with different parameters. It is the
// guard every memo-reusing incremental path checks before trusting state
// derived from base.
func PrefixExtends(ts, base []mcs.Task) bool {
	if len(ts) != len(base)+1 {
		return false
	}
	for i := range base {
		if ts[i] != base[i] {
			return false
		}
	}
	return true
}
