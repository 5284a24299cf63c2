package core

import (
	"reflect"
	"sort"

	"mcsched/internal/analysis/kernel"
	"mcsched/internal/mcs"
)

// Assigner tracks a partial task-to-core assignment together with the
// per-core aggregates (ULH, UHH) the UDP strategies steer by. The offline
// strategies drive it for the duration of one Partition call; the online
// admission controller keeps one alive per tenant and grows/shrinks it one
// task at a time.
//
// Every placement consults the configured Test on the candidate core only,
// so the cost of an incremental admit is a single uniprocessor analysis
// rather than a full re-partitioning — and that analysis runs on a
// per-core analyzer (internal/analysis/kernel): a reusable engine with
// scratch buffers, fast-path filters and memoized response times whose
// verdicts are bit-identical to the test's own Schedulable. Candidate sets
// and placement orders live in pooled buffers, so a steady-state probe
// allocates nothing. Assigner is not safe for concurrent use; callers
// serialize access.
type Assigner struct {
	cores []mcs.TaskSet
	ulh   []float64 // Σ u^L of HC tasks per core
	uhh   []float64 // Σ u^H of HC tasks per core
	ull   []float64 // Σ u^L of LC tasks per core
	test  Test
	// memo is non-nil when test is a Memoizer decorator; every probe then
	// goes through it, with the candidate core's analyzer as its compute.
	memo Memoizer
	// analyzers hold one reusable analysis engine per core, built lazily on
	// first probe.
	analyzers []kernel.Analyzer
	// computeFns are the analyzers' bound Schedulable methods, captured
	// once so the decorated probe path does not allocate a closure per call.
	computeFns []func(mcs.TaskSet) bool
	// candBuf pools one candidate-set buffer per core.
	candBuf []mcs.TaskSet
	// orderBuf pools the placement-order permutation.
	orderBuf []int
	// lastCore is the core of the most recent Commit; the next-fit placer
	// resumes after it.
	lastCore int
	// probes counts Fits calls — the uniprocessor analyses run — since the
	// last Reset.
	probes uint64
}

// NewAssigner returns an empty assignment over m cores gated by test.
func NewAssigner(m int, test Test) *Assigner {
	a := new(Assigner)
	a.Reset(m, test)
	return a
}

// Reset empties the assigner for a new run over m cores gated by test. An
// assigner that last ran the same shape keeps its buffers and its per-core
// analyzers, invalidated — an analyzer's verdicts do not depend on what it
// has memoized, so a recycled assigner decides like a new one. Anything
// else (including the zero value) is built from scratch. The caller must
// hold no Partition of the previous run: the core slices are reused.
func (a *Assigner) Reset(m int, test Test) {
	if len(a.cores) == m && sameTest(a.test, test) {
		for k := range a.cores {
			a.cores[k] = a.cores[k][:0]
			a.ulh[k], a.uhh[k], a.ull[k] = 0, 0, 0
			if an := a.analyzers[k]; an != nil {
				an.Invalidate()
			}
		}
		a.lastCore, a.probes = -1, 0
		return
	}
	*a = Assigner{
		cores:      make([]mcs.TaskSet, m),
		ulh:        make([]float64, m),
		uhh:        make([]float64, m),
		ull:        make([]float64, m),
		test:       test,
		analyzers:  make([]kernel.Analyzer, m),
		computeFns: make([]func(mcs.TaskSet) bool, m),
		candBuf:    make([]mcs.TaskSet, m),
		lastCore:   -1,
	}
	a.memo, _ = test.(Memoizer)
}

// sameTest reports whether two tests are the same configuration of the
// same family, so analyzers built for one serve the other. Tests that
// cannot be compared are never the same: every registered test is a
// comparable value, but a caller's own test may hold a slice or a map,
// and comparing two of those would panic.
func sameTest(x, y Test) bool {
	if x == nil || y == nil {
		return false
	}
	vx, vy := reflect.ValueOf(x), reflect.ValueOf(y)
	return vx.Type() == vy.Type() && vx.Comparable() && vy.Comparable() && x == y
}

// NumCores returns the number of processors.
func (a *Assigner) NumCores() int { return len(a.cores) }

// Core returns the live task set of core k. Callers must not mutate it; use
// Snapshot for an owned copy.
func (a *Assigner) Core(k int) mcs.TaskSet { return a.cores[k] }

// UtilDiff returns UHH(φ_k) − ULH(φ_k), the quantity the UDP strategies
// balance across cores.
func (a *Assigner) UtilDiff(k int) float64 { return a.uhh[k] - a.ulh[k] }

// UHH returns Σ u^H over the HC tasks of core k.
func (a *Assigner) UHH(k int) float64 { return a.uhh[k] }

// ULL returns Σ u^L over the LC tasks of core k.
func (a *Assigner) ULL(k int) float64 { return a.ull[k] }

// LoUtil returns the LO-criticality-mode utilization of core k: Σ u^L over
// all of its tasks (HC and LC alike run at their LO budgets in LO mode).
func (a *Assigner) LoUtil(k int) float64 { return a.ulh[k] + a.ull[k] }

// TotalUtil returns Σ of each task's level utilization on core k — u^H for
// HC tasks, u^L for LC tasks — the load measure the criticality-unaware
// packing heuristics steer by.
func (a *Assigner) TotalUtil(k int) float64 { return a.uhh[k] + a.ull[k] }

// LastCore returns the core of the most recent Commit, or -1.
func (a *Assigner) LastCore() int { return a.lastCore }

// SetLastCore restores the next-fit cursor when rebuilding an assigner from
// a snapshot or undoing tentative commits: Remove never rewinds the cursor,
// so it cannot be rederived from the committed partition. k = -1 means no
// commit yet; out-of-range values are ignored.
func (a *Assigner) SetLastCore(k int) {
	if k < -1 || k >= len(a.cores) {
		return
	}
	a.lastCore = k
}

// analyzer returns core k's analysis engine, building it on first use.
func (a *Assigner) analyzer(k int) kernel.Analyzer {
	if a.analyzers[k] == nil {
		an := analyzerFor(a.test)
		a.analyzers[k] = an
		a.computeFns[k] = an.Schedulable
	}
	return a.analyzers[k]
}

// candidate builds φ_k ∪ {task} in core k's pooled buffer. The result is
// scratch: valid until the next candidate call for the same core.
func (a *Assigner) candidate(k int, task mcs.Task) mcs.TaskSet {
	buf := append(a.candBuf[k][:0], a.cores[k]...)
	buf = append(buf, task)
	a.candBuf[k] = buf
	return buf
}

// Fits reports whether core k would accept the task — the schedulability
// test on φ_k ∪ {task} — without committing anything. Every call is one
// probe: one uniprocessor analysis, counted by Probes.
func (a *Assigner) Fits(task mcs.Task, k int) bool {
	a.probes++
	an := a.analyzer(k)
	cand := a.candidate(k, task)
	if a.memo != nil {
		return a.memo.Memoize(cand, a.computeFns[k])
	}
	return an.Schedulable(cand)
}

// Probes returns the number of Fits calls since the last Reset. Callers
// that attribute analyses to one decision take the difference around it.
func (a *Assigner) Probes() uint64 { return a.probes }

// CoreCounters returns core k's analyzer tallies — zero-valued before the
// core's first probe. The admission layer's explain tracing diffs it around
// a single Fits call to classify how that probe was resolved. Same
// synchronization contract as AnalyzerCounters.
func (a *Assigner) CoreCounters(k int) kernel.Counters {
	if an := a.analyzers[k]; an != nil {
		return *an.Counters()
	}
	return kernel.Counters{}
}

// AnalyzerCounters aggregates the fast-path/warm-start tallies of all
// per-core analyzers. Callers must not race it against in-flight probes
// (the admission layer reads it under the tenant lock).
func (a *Assigner) AnalyzerCounters() kernel.Counters {
	var c kernel.Counters
	for _, an := range a.analyzers {
		if an != nil {
			an.Counters().AddTo(&c)
		}
	}
	return c
}

// Commit places the task on core k without re-running the schedulability
// test. Callers pass a core that just passed Fits or FirstFitting (with no
// intervening mutation); committing an untested placement voids the
// invariant that every core passes the test.
func (a *Assigner) Commit(task mcs.Task, k int) {
	a.cores[k] = append(a.cores[k], task)
	if task.IsHC() {
		a.ulh[k] += task.ULo
		a.uhh[k] += task.UHi
	} else {
		a.ull[k] += task.ULo
	}
	a.lastCore = k
}

// FirstFitting returns the first core of order that would accept the task,
// or -1 when none fits. Nothing is committed.
func (a *Assigner) FirstFitting(task mcs.Task, order []int) int {
	for _, k := range order {
		if a.Fits(task, k) {
			return k
		}
	}
	return -1
}

// Remove takes the task with the given ID off its core and returns it. The
// per-core aggregates are recomputed from scratch so repeated admit/release
// cycles do not accumulate floating-point drift; the core's analyzer is
// told to prune its memo.
func (a *Assigner) Remove(id int) (mcs.Task, bool) {
	for k, c := range a.cores {
		for i, t := range c {
			if t.ID == id {
				copy(c[i:], c[i+1:])
				a.cores[k] = c[:len(c)-1]
				a.ulh[k] = a.cores[k].ULH()
				a.uhh[k] = a.cores[k].UHH()
				a.ull[k] = a.cores[k].ULL()
				if an := a.analyzers[k]; an != nil {
					an.Forget(id)
				}
				return t, true
			}
		}
	}
	return mcs.Task{}, false
}

// identityOrder resets the pooled permutation to 0..m-1.
func (a *Assigner) identityOrder() []int {
	if cap(a.orderBuf) < len(a.cores) {
		a.orderBuf = make([]int, len(a.cores))
	}
	order := a.orderBuf[:len(a.cores)]
	for i := range order {
		order[i] = i
	}
	return order
}

// sortOrder sorts a core permutation by key (ascending, or descending when
// desc), ties by index. The tie-break makes the comparator a strict total
// order, so any correct sort yields the identical permutation; small core
// counts use an allocation-free insertion sort, large ones fall back to the
// standard library.
func sortOrder(order []int, key func(k int) float64, desc bool) {
	less := func(x, y int) bool {
		kx, ky := key(x), key(y)
		if kx != ky {
			if desc {
				return kx > ky
			}
			return kx < ky
		}
		return x < y
	}
	if len(order) <= 128 {
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && less(order[j], order[j-1]); j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		return
	}
	sort.SliceStable(order, func(x, y int) bool { return less(order[x], order[y]) })
}

// Partition hands the assignment over as a Partition. The strategies call
// it once at the end of a run and discard the Assigner; long-lived callers
// should use Snapshot instead.
func (a *Assigner) Partition() Partition { return Partition{Cores: a.cores} }

// Snapshot returns a deep copy of the current assignment.
func (a *Assigner) Snapshot() Partition {
	return Partition{Cores: a.cores}.Clone()
}
