package edfvd

import (
	"mcsched/internal/analysis/kernel"
	"mcsched/internal/mcs"
)

// Analyzer is the reusable per-core EDF-VD engine. The test is a
// closed-form function of three utilization sums (a = Σ u^L over LC,
// b = Σ u^L over HC, c = Σ u^H over HC), each a left fold over the task
// slice — so the analyzer memoizes the folded sums of the last accepted
// set and, when a probe prefix-extends it, decides by folding in only the
// newcomer's terms. The warm verdict is bit-identical to the stateless
// test by construction: float addition in the same order produces the
// same bits, and decide() is a pure function of the sums.
//
// Removals keep the memo valid: the Assigner compacts the core
// order-preservingly, so refolding the compacted memo reproduces exactly
// the sums the stateless test would compute on the next probe.
type Analyzer struct {
	ctr kernel.Counters

	valid   bool
	mem     []mcs.Task // last accepted set, slice order
	a, b, c float64    // ULL/ULH/UHH folds over mem, in mem order
}

// NewAnalyzer implements kernel.Incremental for Test.
func (Test) NewAnalyzer() kernel.Analyzer { return &Analyzer{} }

// Schedulable implements kernel.Analyzer. The verdict is Analyze's,
// bit-identical by construction on both the cold and the warm path.
func (a *Analyzer) Schedulable(ts mcs.TaskSet) bool {
	warm := a.valid && kernel.PrefixExtends(ts, a.mem)
	var sa, sb, sc float64
	if warm {
		x := ts[len(ts)-1]
		sa, sb, sc = a.a, a.b, a.c
		if x.IsHC() {
			sb += x.ULo
			sc += x.UHi
		} else {
			sa += x.ULo
		}
	} else {
		sa, sb, sc = ts.ULL(), ts.ULH(), ts.UHH()
	}
	res := decide(sa, sb, sc)

	const eps = 1e-12 // the same boundary slack decide applies
	switch {
	case warm:
		// Decided entirely from memoized sums plus the newcomer's terms.
		a.ctr.IncrementalHits++
		a.ctr.WarmStarts++
	case res.PlainEDF:
		// Accepted by the a + c ≤ 1 utilization bound alone.
		a.ctr.FastAccepts++
	case res.Schedulable:
		a.ctr.ExactRuns++
	case sc > 1+eps || sa+sb > 1+eps:
		// Per-level utilization above 1 fails both branches outright:
		// c > 1 gives a + c > 1 and x·a + c ≥ c > 1, while a + b > 1 gives
		// a + c ≥ a + b > 1 (c ≥ b per task) and fails the x ≤ 1 condition.
		a.ctr.FastRejects++
	default:
		a.ctr.ExactRuns++
	}

	if res.Schedulable {
		if warm {
			a.mem = append(a.mem, ts[len(ts)-1])
		} else {
			a.mem = append(a.mem[:0], ts...)
		}
		a.a, a.b, a.c = sa, sb, sc
		a.valid = true
	}
	return res.Schedulable
}

// Forget implements kernel.Analyzer: the removed task leaves the memo and
// the sums are refolded over the compacted order. The memo stays valid —
// the refolded sums are exactly what the stateless test computes on the
// compacted set, because the Assigner removes tasks order-preservingly.
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
	m := mcs.TaskSet(a.mem)
	a.a, a.b, a.c = m.ULL(), m.ULH(), m.UHH()
}

// Invalidate implements kernel.Analyzer.
func (a *Analyzer) Invalidate() { a.valid = false }

// Counters implements kernel.Analyzer.
func (a *Analyzer) Counters() *kernel.Counters { return &a.ctr }
