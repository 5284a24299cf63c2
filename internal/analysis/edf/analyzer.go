package edf

import (
	"mcsched/internal/analysis/dbf"
	"mcsched/internal/analysis/kernel"
	"mcsched/internal/mcs"
)

// Analyzer is the reusable per-core engine for the worst-case-reservation
// EDF tests. The demand variant keeps its step curves in a reusable
// scratch slice and runs two-sided filters before QPA:
//
//   - necessary reject: Σ C/T above 1 with exactly the arithmetic
//     dbf.LOAccum applies, so the exact path is guaranteed to agree;
//   - sufficient accept: the density bound Σ C/D ≤ 1 (with a safety
//     margin for float accumulation), under which dbf(ℓ) ≤ ℓ·ΣC/D ≤ ℓ
//     holds pointwise and QPA — being exact — must return true.
//
// Both variants are incremental on top of that. Every quantity the tests
// depend on — the utilization and density sums, the step curves, and the
// dbf.LOAccum horizon fold — is a left fold over the task slice, so when
// a probe prefix-extends the last accepted set the analyzer folds in only
// the newcomer's terms and re-decides. Adding a task only grows demand
// (each step curve is nonnegative), so the cached curves remain exactly
// the extended set's prefix and the full QPA walk re-runs over them from
// the extended horizon; removing a task only shrinks demand, and the
// Assigner compacts order-preservingly, so refolding the compacted memo
// reproduces the cold folds bit-for-bit. All paths therefore keep
// verdicts bit-identical to a cold run (Test.Schedulable).
type Analyzer struct {
	demand bool
	ctr    kernel.Counters
	steps  []dbf.Step

	// Tier-1 memo: filter sums folded over mem (the last accepted set, in
	// slice order). util doubles as the utilization variant's ΣU fold.
	valid       bool
	mem         []mcs.Task
	util        float64
	density     float64
	constrained bool

	// Tier-2 memo (demand variant only): steps holds mem's curves in mem
	// order and acc their LOAccum fold. Filter-resolved accepts keep it in
	// step (an O(1) append); Invalidate and cold rejects drop it.
	stepsOK bool
	acc     dbf.LOAccum
}

// NewAnalyzer implements kernel.Incremental for Test.
func (t Test) NewAnalyzer() kernel.Analyzer { return &Analyzer{demand: t.Demand} }

// Schedulable implements kernel.Analyzer.
func (a *Analyzer) Schedulable(ts mcs.TaskSet) bool {
	if !a.demand {
		return a.utilization(ts)
	}

	// Filters on the C^H budgets the steps carry. util matches LOAccum's
	// accumulation order exactly (steps are built in ts order);
	// density is only trusted when every task is constrained-deadline
	// (D ≤ T), which the bound's proof requires.
	warm := a.valid && kernel.PrefixExtends(ts, a.mem)
	var util, density float64
	var constrained bool
	if warm {
		x := ts[len(ts)-1]
		util = a.util + float64(x.CHi())/float64(x.Period)
		density = a.density + float64(x.CHi())/float64(x.Deadline)
		constrained = a.constrained && !(x.Deadline > x.Period || x.Deadline <= 0)
	} else {
		constrained = true
		for _, t := range ts {
			util += float64(t.CHi()) / float64(t.Period)
			density += float64(t.CHi()) / float64(t.Deadline)
			if t.Deadline > t.Period || t.Deadline <= 0 {
				constrained = false
			}
		}
	}
	const horizonEps = 1e-9 // dbf.horizon's own boundary slack
	if util > 1+horizonEps {
		a.ctr.FastRejects++
		return false
	}
	if constrained && density <= 1-1e-9 {
		a.ctr.FastAccepts++
		if !warm {
			// The cached curves (if any) describe the previous memo, not ts.
			a.stepsOK = false
		}
		a.promote(ts, warm, util, density, constrained)
		return true
	}

	a.ctr.ExactRuns++
	if warm && a.stepsOK {
		// Seeded exact run: extend the cached curves and horizon fold by the
		// newcomer's step instead of rebuilding both from scratch. The fold
		// order matches the cold rebuild (memo order is ts-prefix order), so
		// L and the QPA walk are bit-identical.
		a.ctr.WarmStarts++
		x := ts[len(ts)-1]
		saved := a.acc
		a.steps = append(a.steps, dbf.Step{C: x.WCET[mcs.HI], D: x.Deadline, T: x.Period})
		a.acc.Add(a.steps[len(a.steps)-1])
		if ok := a.runQPA(); ok {
			a.promote(ts, warm, util, density, constrained)
			return true
		}
		// Rejected: restore the memo to mem's curves.
		a.steps = a.steps[:len(a.steps)-1]
		a.acc = saved
		return false
	}
	steps := a.steps[:0]
	a.acc = dbf.LOAccum{}
	for _, t := range ts {
		steps = append(steps, dbf.Step{C: t.WCET[mcs.HI], D: t.Deadline, T: t.Period})
		a.acc.Add(steps[len(steps)-1])
	}
	a.steps = steps
	a.stepsOK = false // steps describe ts, not mem, until a promote
	if ok := a.runQPA(); ok {
		a.stepsOK = true
		a.promote(ts, false, util, density, constrained)
		return true
	}
	return false
}

// runQPA decides the accumulated curves: horizon from the fold, then the
// exact QPA walk.
func (a *Analyzer) runQPA() bool {
	L, ok := a.acc.Horizon()
	if !ok {
		return false
	}
	return dbf.QPA(dbf.StepSum(a.steps), L)
}

// utilization is the implicit-deadline ΣU ≤ 1 variant with the same
// fold-extension warm path; the sum is the only state the test has.
func (a *Analyzer) utilization(ts mcs.TaskSet) bool {
	if a.valid && kernel.PrefixExtends(ts, a.mem) {
		x := ts[len(ts)-1]
		u := a.util + x.UtilAt(mcs.HI)
		a.ctr.IncrementalHits++
		a.ctr.WarmStarts++
		ok := u <= 1+1e-12
		if ok {
			a.mem = append(a.mem, x)
			a.util = u
		}
		return ok
	}
	var u float64
	for _, t := range ts {
		u += t.UtilAt(mcs.HI)
	}
	ok := u <= 1+1e-12
	if ok {
		a.ctr.FastAccepts++
		a.mem = append(a.mem[:0], ts...)
		a.util = u
		a.valid = true
	} else {
		a.ctr.FastRejects++
	}
	return ok
}

// promote records an accepted set. On the warm path only the newcomer is
// appended (keeping the tier-2 curves in step when they were extended or
// remain absent); a cold promote rewrites the tier-1 memo and leaves
// stepsOK as the caller set it.
func (a *Analyzer) promote(ts mcs.TaskSet, warm bool, util, density float64, constrained bool) {
	if warm {
		x := ts[len(ts)-1]
		a.mem = append(a.mem, x)
		if a.stepsOK && len(a.steps) == len(a.mem)-1 {
			// Filter-resolved warm accept: the exact path did not extend the
			// curves, so do it here to keep steps aligned with mem.
			a.steps = append(a.steps, dbf.Step{C: x.WCET[mcs.HI], D: x.Deadline, T: x.Period})
			a.acc.Add(a.steps[len(a.steps)-1])
		}
	} else {
		// Cold promote: callers have already set stepsOK to whether the
		// curves in a.steps were rebuilt for ts.
		a.mem = append(a.mem[:0], ts...)
	}
	a.util, a.density, a.constrained = util, density, constrained
	a.valid = true
}

// Forget implements kernel.Analyzer: the removed task leaves the memo and
// every fold is recomputed over the compacted order — which is exactly
// the cold fold of the set the Assigner will probe next, because
// removal compacts order-preservingly. The memo stays valid.
func (a *Analyzer) Forget(id int) {
	if !a.valid {
		return
	}
	j := -1
	for i := range a.mem {
		if a.mem[i].ID == id {
			j = i
			break
		}
	}
	if j < 0 {
		return
	}
	a.mem = append(a.mem[:j], a.mem[j+1:]...)
	a.util, a.density = 0, 0
	a.constrained = true
	for _, t := range a.mem {
		if a.demand {
			a.util += float64(t.CHi()) / float64(t.Period)
			a.density += float64(t.CHi()) / float64(t.Deadline)
			if t.Deadline > t.Period || t.Deadline <= 0 {
				a.constrained = false
			}
		} else {
			a.util += t.UtilAt(mcs.HI)
		}
	}
	if a.stepsOK {
		a.steps = append(a.steps[:j], a.steps[j+1:]...)
		a.acc = dbf.LOAccum{}
		for _, s := range a.steps {
			a.acc.Add(s)
		}
	}
}

// Invalidate implements kernel.Analyzer.
func (a *Analyzer) Invalidate() { a.valid, a.stepsOK = false, false }

// Counters implements kernel.Analyzer.
func (a *Analyzer) Counters() *kernel.Counters { return &a.ctr }
