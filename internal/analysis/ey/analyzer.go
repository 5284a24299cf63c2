package ey

import (
	"mcsched/internal/analysis/kernel"
	"mcsched/internal/mcs"
)

// Analyzer is the reusable per-core Ekberg–Yi engine: a Shaper holding
// the demand curves in positional arrays, two-sided filters in front of
// the exact analysis, and a Memo that makes prefix-extension probes
// incremental.
//
// The filters preserve bit-identical verdicts:
//
//   - necessary rejects recompute the very utilization sums
//     dbf.HorizonLO/HorizonHI reject on (same values, same accumulation
//     order, same 1e-9 boundary), so whenever the filter fires the exact
//     path is guaranteed to fail: a LO utilization above 1 fails the
//     initial LO test outright, and a HI utilization above 1 makes every
//     HIFeasible call fail regardless of the virtual-deadline assignment
//     (shrinking deadlines never lowers the long-run slope), so the shaping
//     loop can only run out of moves;
//   - the sufficient accept fires only for sets without HC tasks whose
//     LO density Σ C^L/D stays below 1 with a float-safety margin: the
//     HI test is then vacuously true and the density bound implies the
//     exact QPA — which is exact, not approximate — returns true.
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
// verdict the full walk would. Removals
// refold over the order-preservingly compacted set, reproducing the
// stateless folds bit-for-bit.
type Analyzer struct {
	opts Options
	ctr  kernel.Counters
	sh   Shaper
	memo Memo
	// curvesOK gates the Shaper-as-cache tier: it holds while sh's arrays
	// describe memo.Mem under the loosest assignment.
	curvesOK bool
}

// NewAnalyzer implements kernel.Incremental for Test.
func (t Test) NewAnalyzer() kernel.Analyzer {
	o := t.Opts
	if o.MaxIter == 0 {
		o = DefaultOptions()
	}
	return &Analyzer{opts: o}
}

// QuickState is the fold state of the fast-path filters shared by EY and
// ECDF (package ecdf imports it): the same filters front both tests
// because ECDF's search can only succeed where some assignment passes the
// identical LO/HI QPA machinery. It is exported so the EY/ECDF memos can
// extend it one task at a time: every component is a left fold (or an
// order-independent AND/count) over the task slice, so Extend on a saved
// state reproduces the cold fold bit-for-bit.
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

// Memo is the shared EY/ECDF per-core memo: the last accepted set and its
// filter-sum fold. Package ecdf embeds one in its analyzer too.
type Memo struct {
	Valid bool
	Mem   []mcs.Task // last accepted set, slice order
	Quick QuickState // FoldQuick over Mem, in Mem order
}

// Extends reports whether ts is a one-task extension of the memoized set.
func (m *Memo) Extends(ts mcs.TaskSet) bool {
	return m.Valid && kernel.PrefixExtends(ts, m.Mem)
}

// PromoteWarm appends the accepted newcomer; q must be the extended fold.
func (m *Memo) PromoteWarm(x mcs.Task, q QuickState) {
	m.Mem = append(m.Mem, x)
	m.Quick = q
	m.Valid = true
}

// PromoteCold records a full accepted set; q must be FoldQuick(ts).
func (m *Memo) PromoteCold(ts mcs.TaskSet, q QuickState) {
	m.Mem = append(m.Mem[:0], ts...)
	m.Quick = q
	m.Valid = true
}

// Forget removes a task by ID and refolds the filter sums over the
// compacted order (the stateless fold of the set the Assigner probes
// next). It reports whether anything was removed.
func (m *Memo) Forget(id int) bool {
	if !m.Valid {
		return false
	}
	j := -1
	for i := range m.Mem {
		if m.Mem[i].ID == id {
			j = i
			break
		}
	}
	if j < 0 {
		return false
	}
	m.Mem = append(m.Mem[:j], m.Mem[j+1:]...)
	m.Quick = FoldQuick(mcs.TaskSet(m.Mem))
	return true
}

// Invalidate drops the memo.
func (m *Memo) Invalidate() { m.Valid = false }

// Schedulable implements kernel.Analyzer; the verdict is bit-identical to
// Test.Schedulable.
func (a *Analyzer) Schedulable(ts mcs.TaskSet) bool {
	warm := a.memo.Extends(ts)
	var q QuickState
	if warm {
		q = a.memo.Quick.Extend(ts[len(ts)-1])
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
		// Seeded exact run: the Shaper already holds memo.Mem's loosest
		// curves and horizon folds; append the newcomer and decide.
		x := ts[len(ts)-1]
		undo := a.sh.Extend(x)
		ok, shaped := a.runExact()
		a.ctr.WarmStarts++
		if shaped {
			a.ctr.ExactRuns++
		} else {
			a.ctr.IncrementalHits++
		}
		if ok {
			a.memo.PromoteWarm(x, q)
			a.sh.RestoreLoosest()
		} else {
			a.sh.Truncate(undo)
			a.sh.RestoreLoosest()
		}
		return ok
	}

	a.ctr.ExactRuns++
	a.sh.Reset(ts)
	ok, _ := a.runExact()
	if ok {
		a.memo.PromoteCold(ts, q)
		a.sh.RestoreLoosest()
		a.curvesOK = true
	} else {
		// The arrays describe the rejected ts, not memo.Mem.
		a.curvesOK = false
	}
	return ok
}

// runExact replays the stateless Analyze on the Shaper's current curves
// (which must be at the loosest assignment): initial LO test, iteration
// zero's HI test, then the shaping loop continuing from its witness.
// shaped reports whether the shaping loop ran (vs a zero-iteration
// decision straight off the cached loosest curves).
func (a *Analyzer) runExact() (ok, shaped bool) {
	if !a.sh.LOFeasible() {
		return false, false
	}
	w, demand, hiOK := a.sh.HIFeasible()
	if hiOK {
		return true, false
	}
	return a.sh.ShapeResume(w, demand, a.opts.maxIter()), true
}

// promoteFiltered records a filter-resolved accept, extending the cached
// curves when they are live so later exact probes stay seeded.
func (a *Analyzer) promoteFiltered(ts mcs.TaskSet, warm bool, q QuickState) {
	if warm {
		x := ts[len(ts)-1]
		if a.curvesOK {
			a.sh.Extend(x)
		}
		a.memo.PromoteWarm(x, q)
		return
	}
	a.curvesOK = false
	a.memo.PromoteCold(ts, q)
}

// Forget implements kernel.Analyzer: the removed task leaves the memo,
// the filter sums refold, and the cached curves are rebuilt for the
// compacted set — all folds match the stateless ones on the next probe,
// so the memo stays valid across releases.
func (a *Analyzer) Forget(id int) {
	if !a.memo.Forget(id) {
		return
	}
	if a.curvesOK {
		a.sh.Reset(mcs.TaskSet(a.memo.Mem))
	}
}

// Invalidate implements kernel.Analyzer.
func (a *Analyzer) Invalidate() {
	a.memo.Invalidate()
	a.curvesOK = false
}

// Counters implements kernel.Analyzer.
func (a *Analyzer) Counters() *kernel.Counters { return &a.ctr }
