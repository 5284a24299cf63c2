package ecdf

import (
	"mcsched/internal/analysis/ey"
	"mcsched/internal/analysis/kernel"
	"mcsched/internal/mcs"
)

// Analyzer is the reusable per-core ECDF engine, built on the same
// array-backed ey.Shaper and ey.Memo the EY analyzer uses: positional
// demand curves mutated in place across the EY pass and the scale-factor
// restarts, fast-path filters in front (see ey.QuickState — the
// soundness argument carries over verbatim because every restart drives
// the identical LO/HI QPA machinery), and a warm path that folds a
// prefix-extension probe's newcomer into the cached filter sums and
// loosest curves instead of rebuilding them. The search itself replays
// Analyze step for step — same pass order, same relaxation picks, same
// shaping trajectories — so verdicts stay bit-identical to the stateless
// test on every path; what differs is how many points its QPA walks
// visit (resumed HI walks, windowed tuneStep tries, resumed relaxation
// rounds; see ey.Shaper).
type Analyzer struct {
	opts Options
	ctr  kernel.Counters
	sh   ey.Shaper
	memo ey.Memo
	// curvesOK gates the curve cache: it holds while sh's arrays describe
	// memo.Mem under the loosest assignment.
	curvesOK bool
}

// NewAnalyzer implements kernel.Incremental for Test.
func (t Test) NewAnalyzer() kernel.Analyzer {
	o := t.Opts
	if len(o.Lambdas) == 0 {
		o = DefaultOptions()
	}
	if o.EY.MaxIter == 0 {
		o.EY = ey.DefaultOptions()
	}
	return &Analyzer{opts: o}
}

// Schedulable implements kernel.Analyzer; the verdict is bit-identical to
// Test.Schedulable.
func (a *Analyzer) Schedulable(ts mcs.TaskSet) bool {
	warm := a.memo.Extends(ts)
	var q ey.QuickState
	if warm {
		q = a.memo.Quick.Extend(ts[len(ts)-1])
	} else {
		q = ey.FoldQuick(ts)
	}
	switch v := q.Verdict(); {
	case v < 0:
		a.ctr.FastRejects++
		return false
	case v > 0:
		// Accepted by the EY pass already (LC-only density bound), which
		// ECDF returns without any restart.
		a.ctr.FastAccepts++
		a.promoteFiltered(ts, warm, q)
		return true
	}

	if warm && a.curvesOK {
		x := ts[len(ts)-1]
		undo := a.sh.Extend(x)
		ok, deep := a.runExact()
		a.ctr.WarmStarts++
		if deep {
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
		a.curvesOK = false
	}
	return ok
}

// runExact replays Analyze's search on the Shaper's loosest-state curves.
// A LO-infeasible loosest assignment short-circuits the restarts
// (shrinking deadlines only raises LO demand), mirroring Analyze's second
// check. deep reports whether any shaping or restart work ran (vs a
// zero-iteration decision straight off the cached loosest curves).
func (a *Analyzer) runExact() (ok, deep bool) {
	// Pass 1: the EY greedy from the loosest assignment.
	if !a.sh.LOFeasible() {
		return false, false
	}
	w, demand, hiOK := a.sh.HIFeasible()
	if hiOK {
		return true, false
	}
	if a.sh.ShapeResume(w, demand, a.opts.EY.EffectiveMaxIter()) {
		return true, true
	}

	// Pass 2: scale-factor restarts, each from a uniformly tightened
	// assignment relaxed per task until LO passes.
	for _, lambda := range a.opts.Lambdas {
		a.sh.Scale(lambda)
		if !a.relaxUntilLOFeasible() {
			continue
		}
		if a.sh.Shape(a.opts.EY.EffectiveMaxIter()) {
			return true, true
		}
	}
	return false, true
}

// relaxUntilLOFeasible is relaxUntilLOFeasible on the Shaper's arrays:
// identical relaxation order (the HC scan in task order, most-shrunk task
// first, halfway to its real deadline) and a boolean report instead of a
// nil map. Every round only raises a virtual deadline, which only lowers
// LO demand, so the Shaper keeps what a failed round's walk proved and the
// next round resumes from it instead of walking the horizon again — the
// mirror of the HI-side rule, under which the same raise drops hiFree.
func (a *Analyzer) relaxUntilLOFeasible() bool {
	for rounds := 0; rounds < a.sh.NumTasks()+1; rounds++ {
		if a.sh.LOFeasible() {
			return true
		}
		pick := -1
		var worst mcs.Ticks = -1
		for j := 0; j < a.sh.NumHC(); j++ {
			if gap := a.sh.HCDeadline(j) - a.sh.HCVD(j); gap > worst {
				worst, pick = gap, j
			}
		}
		if worst <= 0 {
			return false
		}
		d := a.sh.HCVD(pick)
		a.sh.SetHCVD(pick, d+(a.sh.HCDeadline(pick)-d+1)/2)
	}
	return a.sh.LOFeasible()
}

// promoteFiltered records a filter-resolved accept, extending the cached
// curves when they are live so later exact probes stay seeded.
func (a *Analyzer) promoteFiltered(ts mcs.TaskSet, warm bool, q ey.QuickState) {
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

// Forget implements kernel.Analyzer: memo compaction plus a curve rebuild
// for the compacted set, keeping the memo valid across releases.
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
