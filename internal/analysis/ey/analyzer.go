package ey

import (
	"mcsched/internal/analysis/kernel"
	"mcsched/internal/mcs"
)

// Analyzer is the reusable per-core demand-bound engine of EY and ECDF: a
// Shaper holding the demand curves in positional arrays, two-sided
// filters in front of the search, and a memo that makes prefix-extension
// probes incremental. Its one parameter is the search it runs on the
// Shaper — Exact at the fixed budget for EY, ECDF's EY pass plus λ
// restarts for ECDF — and everything around the search is shared.
//
// The filters preserve bit-identical verdicts for either search, because
// each drives the identical LO/HI QPA machinery and succeeds only where
// some assignment passes it:
//
//   - necessary rejects recompute the very utilization sums the horizon
//     folds (dbf.LOAccum, dbf.HIAccum) reject on (same values, same
//     accumulation order, same 1e-9 boundary), so whenever the filter
//     fires the exact path is guaranteed to fail: a LO utilization above
//     1 fails the initial LO test outright, and a HI utilization above 1
//     makes every HIFeasible call fail regardless of the virtual-deadline
//     assignment (shrinking deadlines never lowers the long-run slope), so
//     the shaping loop can only run out of moves;
//   - the sufficient accept fires only for sets without HC tasks whose
//     LO density Σ C^L/D stays below 1 with a float-safety margin: the
//     HI test is then vacuously true and the density bound implies the
//     exact QPA — which is exact, not approximate — returns true (the EY
//     pass accepts, and ECDF returns that without a restart).
//
// The warm path rests on the same left-fold identities the EDF-VD and EDF
// analyzers use: every input of the test — the filter sums, the loosest
// step/sawtooth curves, and their QPA horizon folds — is a left fold over
// the task slice, so when a probe prefix-extends the last accepted set
// the analyzer folds in only the newcomer's terms and re-decides from the
// cached curves. The shaping trajectory itself is NOT reused across
// probes (the greedy is a heuristic, so its verdict is the trajectory's
// outcome — only running the identical trajectory is sound); what the
// memo removes is the per-probe filter fold, curve construction and
// horizon folds. Within one run the trajectory is the same too, step for
// step, but its walks are not started over: each HI-mode QPA walk resumes
// from the interval the previous one proved violation-free (Shaper.hiFree,
// dbf.QPAResume), which returns the witness the full walk would, and each
// LO-mode walk of a tuneStep visits only the windows its one deadline move
// raised demand on (Shaper.loProved, dbf.QPAWindows), which returns the
// verdict the full walk would. A run of moves the greedy would repeat
// exactly is applied in one go, each counted against the iteration budget
// as one step (Shaper.fastForward): k horizon sums and one windowed LO
// walk instead of k HI walks, scans and LO walks. Removals
// refold over the order-preservingly compacted set, reproducing the
// cold folds bit-for-bit.
type Analyzer struct {
	search func(*Shaper) (ok, deep bool)
	ctr    kernel.Counters
	sh     Shaper
	memo   memo
	// curvesOK gates the Shaper-as-cache tier: it holds while sh's arrays
	// describe memo.mem under the loosest assignment.
	curvesOK bool
}

// NewAnalyzer returns an analyzer that decides by search. The search is
// handed the Shaper at the loosest assignment of the probed set and may
// leave it anywhere; deep reports whether it went past a zero-iteration
// decision straight off the loosest curves (counted as an exact run, not
// an incremental hit, on the warm path).
func NewAnalyzer(search func(*Shaper) (ok, deep bool)) *Analyzer {
	return &Analyzer{search: search}
}

// NewAnalyzer implements kernel.Incremental for Test.
func (Test) NewAnalyzer() kernel.Analyzer { return NewAnalyzer(exact) }

// QuickState is the fold state of the fast-path filters shared by EY and
// ECDF: the same filters front both searches because ECDF's can only
// succeed where some assignment passes the identical LO/HI QPA machinery.
// The memo extends it one task at a time: every component is a left fold
// (or an order-independent AND/count) over the task slice, so Extend on a
// saved state reproduces the cold fold bit-for-bit. Package admission
// folds it too, to judge the cores of an EY or ECDF snapshot.
type QuickState struct {
	ULO, UHI, DensLO float64
	HC               int
	DensOK           bool
}

// FoldQuick computes the filter state of ts from scratch.
func FoldQuick(ts mcs.TaskSet) QuickState {
	q := QuickState{DensOK: true}
	for _, t := range ts {
		q = q.Extend(t)
	}
	return q
}

// Extend folds one task's terms into the state.
func (q QuickState) Extend(t mcs.Task) QuickState {
	q.ULO += float64(t.CLo()) / float64(t.Period)
	q.DensLO += float64(t.CLo()) / float64(t.Deadline)
	if t.Deadline > t.Period || t.Deadline <= 0 {
		q.DensOK = false
	}
	if t.IsHC() {
		q.HC++
		q.UHI += float64(t.CHi()) / float64(t.Period)
	}
	return q
}

// Verdict classifies the folded state: negative rejects, positive
// accepts, 0 falls through to the exact analysis.
func (q QuickState) Verdict() int {
	const horizonEps = 1e-9 // dbf.horizon's boundary slack
	if q.ULO > 1+horizonEps || q.UHI > 1+horizonEps {
		return -1
	}
	if q.HC == 0 && q.DensOK && q.DensLO <= 1-1e-9 {
		return 1
	}
	return 0
}

// memo is the analyzer's per-core memo: the last accepted set and its
// filter-sum fold.
type memo struct {
	valid bool
	mem   []mcs.Task // last accepted set, slice order
	quick QuickState // FoldQuick over mem, in mem order
}

// extends reports whether ts is a one-task extension of the memoized set.
func (m *memo) extends(ts mcs.TaskSet) bool {
	return m.valid && kernel.PrefixExtends(ts, m.mem)
}

// promoteWarm appends the accepted newcomer; q must be the extended fold.
func (m *memo) promoteWarm(x mcs.Task, q QuickState) {
	m.mem = append(m.mem, x)
	m.quick = q
	m.valid = true
}

// promoteCold records a full accepted set; q must be FoldQuick(ts).
func (m *memo) promoteCold(ts mcs.TaskSet, q QuickState) {
	m.mem = append(m.mem[:0], ts...)
	m.quick = q
	m.valid = true
}

// forget removes a task by ID and refolds the filter sums over the
// compacted order (the cold fold of the set the Assigner probes
// next). It reports whether anything was removed.
func (m *memo) forget(id int) bool {
	if !m.valid {
		return false
	}
	j := -1
	for i := range m.mem {
		if m.mem[i].ID == id {
			j = i
			break
		}
	}
	if j < 0 {
		return false
	}
	m.mem = append(m.mem[:j], m.mem[j+1:]...)
	m.quick = FoldQuick(mcs.TaskSet(m.mem))
	return true
}

// Schedulable implements kernel.Analyzer; the verdict is bit-identical to
// a cold run of the search on a fresh Shaper (Analyze, ecdf.Analyze).
func (a *Analyzer) Schedulable(ts mcs.TaskSet) bool {
	warm := a.memo.extends(ts)
	var q QuickState
	if warm {
		q = a.memo.quick.Extend(ts[len(ts)-1])
	} else {
		q = FoldQuick(ts)
	}
	switch v := q.Verdict(); {
	case v < 0:
		a.ctr.FastRejects++
		return false
	case v > 0:
		a.ctr.FastAccepts++
		a.promoteFiltered(ts, warm, q)
		return true
	}

	if warm && a.curvesOK {
		// Seeded exact run: the Shaper already holds memo.mem's loosest
		// curves and horizon folds; append the newcomer and decide.
		x := ts[len(ts)-1]
		undo := a.sh.Extend(x)
		ok, deep := a.search(&a.sh)
		a.ctr.WarmStarts++
		if deep {
			a.ctr.ExactRuns++
		} else {
			a.ctr.IncrementalHits++
		}
		if ok {
			a.memo.promoteWarm(x, q)
			a.sh.RestoreLoosest()
		} else {
			a.sh.Truncate(undo)
			a.sh.RestoreLoosest()
		}
		return ok
	}

	a.ctr.ExactRuns++
	a.sh.Reset(ts)
	ok, _ := a.search(&a.sh)
	if ok {
		a.memo.promoteCold(ts, q)
		a.sh.RestoreLoosest()
		a.curvesOK = true
	} else {
		// The arrays describe the rejected ts, not memo.mem.
		a.curvesOK = false
	}
	return ok
}

// promoteFiltered records a filter-resolved accept, extending the cached
// curves when they are live so later exact probes stay seeded.
func (a *Analyzer) promoteFiltered(ts mcs.TaskSet, warm bool, q QuickState) {
	if warm {
		x := ts[len(ts)-1]
		if a.curvesOK {
			a.sh.Extend(x)
		}
		a.memo.promoteWarm(x, q)
		return
	}
	a.curvesOK = false
	a.memo.promoteCold(ts, q)
}

// Forget implements kernel.Analyzer: the removed task leaves the memo,
// the filter sums refold, and the cached curves are rebuilt for the
// compacted set — all folds match the cold ones on the next probe,
// so the memo stays valid across releases.
func (a *Analyzer) Forget(id int) {
	if !a.memo.forget(id) {
		return
	}
	if a.curvesOK {
		a.sh.Reset(mcs.TaskSet(a.memo.mem))
	}
}

// Invalidate implements kernel.Analyzer.
func (a *Analyzer) Invalidate() {
	a.memo.valid = false
	a.curvesOK = false
}

// Counters implements kernel.Analyzer.
func (a *Analyzer) Counters() *kernel.Counters { return &a.ctr }
