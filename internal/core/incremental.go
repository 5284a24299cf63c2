package core

import (
	"reflect"
	"sort"
	"time"

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
// verdicts are bit-identical to the stateless test. Candidate sets and
// placement orders live in pooled buffers, so a steady-state probe
// allocates nothing. Assigner is not safe for concurrent use; callers
// serialize access (the parallel prober only fans out the per-core probes
// of one placement, each core on one goroutine).
type Assigner struct {
	cores []mcs.TaskSet
	ulh   []float64 // Σ u^L of HC tasks per core
	uhh   []float64 // Σ u^H of HC tasks per core
	ull   []float64 // Σ u^L of LC tasks per core
	test  Test
	// memo is non-nil when test can answer from a verdict cache; probes
	// then go cache-first with the analyzer as the miss path. keyed is the
	// same decorator when it additionally supports incremental keys; the
	// per-core fingerprints in coreKeys then make a cache-hit probe O(1) in
	// hashing: only the incoming task is fingerprinted, and the candidate
	// set is materialized solely on misses.
	memo     Memoizer
	keyed    KeyedMemoizer
	coreKeys []MultisetKey
	// analyzers hold one reusable analysis engine per core, built lazily on
	// first probe (distinct cores may initialize concurrently under a
	// parallel prober; each slot is touched by one goroutine only).
	analyzers []kernel.Analyzer
	// computeFns are the analyzers' bound Schedulable methods, captured
	// once so the memoized probe path does not allocate a closure per call;
	// buildFns materialize core k's pending candidate (cores[k] plus
	// pending[k]) the same way.
	computeFns []func(mcs.TaskSet) bool
	buildFns   []func() mcs.TaskSet
	pending    []mcs.Task
	// candBuf pools one candidate-set buffer per core (per core, not per
	// assigner, because a parallel prober builds several candidates at
	// once).
	candBuf []mcs.TaskSet
	// orderBuf pools the placement-order permutation.
	orderBuf []int
	// prober decides candidate-core scans; serial by default, fanned across
	// worker goroutines when SetProber installs a parallel engine. chunked
	// is the same prober when it supports width-controlled scans (detected
	// once at SetProber); costEWMA then tracks the observed per-candidate
	// probe cost in nanoseconds, from which chunkWidth derives the chunk
	// width for the next scan. Families with cheap probes (the closed-form
	// and warm-start paths) get wide chunks that amortize the per-chunk
	// goroutine fan-out; expensive cold solves stay at minimal widths that
	// bound speculative work. The controller only ever picks the width —
	// FirstWidth returns the serial answer at every width, so adaptivity
	// affects wall-clock time, never placements.
	prober   Prober
	chunked  ChunkedProber
	costEWMA float64
	// lastCore is the core of the most recent successful TryAssign; used
	// by strategies that maintain their own fit keys.
	lastCore int
}

// NewAssigner returns an empty assignment over m cores gated by test.
func NewAssigner(m int, test Test) *Assigner {
	a := new(Assigner)
	a.reset(m, test)
	return a
}

// reset empties the assigner for a new run over m cores gated by test. An
// assigner that last ran the same shape keeps its buffers and its per-core
// analyzers, invalidated — an analyzer's verdicts do not depend on what it
// has memoized, so a recycled assigner decides like a new one. Anything
// else (including the zero value) is built from scratch. The caller must
// hold no Partition of the previous run: the core slices are reused.
func (a *Assigner) reset(m int, test Test) {
	if len(a.cores) == m && sameTest(a.test, test) {
		for k := range a.cores {
			a.cores[k] = a.cores[k][:0]
			a.ulh[k], a.uhh[k], a.ull[k] = 0, 0, 0
			if an := a.analyzers[k]; an != nil {
				an.Invalidate()
			}
		}
		clear(a.coreKeys)
		a.SetProber(nil)
		a.lastCore = -1
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
		prober:     serialProber{},
		lastCore:   -1,
	}
	a.memo, _ = test.(Memoizer)
	if keyed, ok := test.(KeyedMemoizer); ok {
		a.keyed = keyed
		a.coreKeys = make([]MultisetKey, m)
		a.buildFns = make([]func() mcs.TaskSet, m)
		a.pending = make([]mcs.Task, m)
	}
}

// sameTest reports whether two tests are the same configuration of the
// same family, so analyzers built for one serve the other. Tests that
// cannot be compared (a field holding a slice, say) are never the same.
func sameTest(x, y Test) bool {
	if x == nil || y == nil {
		return false
	}
	vx, vy := reflect.ValueOf(x), reflect.ValueOf(y)
	return vx.Type() == vy.Type() && vx.Comparable() && vy.Comparable() && x == y
}

// SetProber routes the assigner's candidate-core scans (FirstFit,
// WorstFitBy, FirstFitting) through p — typically a parallel engine. Any
// conforming Prober returns the index a serial scan would, so placements are
// unchanged; only the probes of one placement run concurrently. A nil p
// restores the serial scan.
func (a *Assigner) SetProber(p Prober) {
	if p == nil {
		p = serialProber{}
	}
	a.prober = p
	a.chunked, _ = p.(ChunkedProber)
	a.costEWMA = 0
}

// NumCores returns the number of processors.
func (a *Assigner) NumCores() int { return len(a.cores) }

// NumTasks returns the total number of assigned tasks.
func (a *Assigner) NumTasks() int {
	n := 0
	for _, c := range a.cores {
		n += len(c)
	}
	return n
}

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

// LastCore returns the core of the most recent successful TryAssign, or -1.
func (a *Assigner) LastCore() int { return a.lastCore }

// SetLastCore restores the next-fit cursor when rebuilding an assigner from
// a snapshot: releases never rewind the cursor, so it cannot be rederived
// from the committed partition. k = -1 means no commit yet; out-of-range
// values are ignored.
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
		if a.keyed != nil {
			k := k
			a.buildFns[k] = func() mcs.TaskSet { return a.candidate(k, a.pending[k]) }
		}
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
// test on φ_k ∪ {task} — without committing anything.
func (a *Assigner) Fits(task mcs.Task, k int) bool {
	an := a.analyzer(k)
	if a.keyed != nil {
		// Incremental key: fingerprint only the incoming task; the
		// candidate set is materialized (via buildFns) on cache misses
		// only.
		key := a.coreKeys[k]
		key.Add(a.keyed.TaskKey(task))
		a.pending[k] = task
		return a.keyed.MemoizeKeyed(key, a.buildFns[k], a.computeFns[k])
	}
	cand := a.candidate(k, task)
	if a.memo != nil {
		return a.memo.Memoize(cand, a.computeFns[k])
	}
	return an.Schedulable(cand)
}

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

// TryAssign tests the task on core k and commits it if schedulable.
func (a *Assigner) TryAssign(task mcs.Task, k int) bool {
	if !a.Fits(task, k) {
		return false
	}
	a.Commit(task, k)
	return true
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
	if a.keyed != nil {
		a.coreKeys[k].Add(a.keyed.TaskKey(task))
	}
	a.lastCore = k
}

// FirstFitting returns the first core of order that would accept the task,
// or -1 when none fits. The probes are delegated to the configured Prober,
// so a parallel engine evaluates up to its worker count of candidates
// concurrently; the chosen core is identical to a serial scan either way.
// Nothing is committed.
func (a *Assigner) FirstFitting(task mcs.Task, order []int) int {
	if _, serial := a.prober.(serialProber); serial {
		// Inline the serial scan: no probe closure, no allocation.
		for _, k := range order {
			if a.Fits(task, k) {
				return k
			}
		}
		return -1
	}
	pred := func(i int) bool { return a.Fits(task, order[i]) }
	if a.chunked != nil {
		return a.firstFittingChunked(order, pred)
	}
	i := a.prober.First(len(order), pred)
	if i < 0 {
		return -1
	}
	return order[i]
}

// Chunk-width controller constants: the controller sizes chunks so one
// chunk's serial-equivalent work is about chunkTargetNs, clamped to
// [workers, chunkWidthMax×workers]; the cost estimate is an EWMA over
// observed scans with weight chunkEWMAAlpha.
const (
	chunkTargetNs  = 16e3
	chunkWidthMax  = 4
	chunkEWMAAlpha = 0.25
)

// chunkWidth picks the next scan's chunk width from the probe-cost EWMA.
// Before any observation it stays at the worker count — the same chunking
// First uses — so the controller can only widen once real cost data shows
// probes are cheap enough to amortize.
func (a *Assigner) chunkWidth() int {
	w := a.chunked.Workers()
	if a.costEWMA <= 0 {
		return w
	}
	width := int(chunkTargetNs / a.costEWMA)
	if width < w {
		return w
	}
	if width > chunkWidthMax*w {
		return chunkWidthMax * w
	}
	return width
}

// firstFittingChunked runs one width-controlled candidate scan and feeds
// the observed per-candidate cost back into the EWMA. Timing wraps only
// this path — the serial inline path above stays measurement-free — and
// the measurement feeds the width choice only, never the verdict.
func (a *Assigner) firstFittingChunked(order []int, pred func(i int) bool) int {
	width := a.chunkWidth()
	start := time.Now()
	i := a.chunked.FirstWidth(len(order), width, pred)
	elapsed := time.Since(start)

	// Estimate per-candidate cost as wall-clock per strided round: each
	// round evaluates up to g candidates concurrently, so a round's
	// duration approximates one candidate's cost.
	evaluated := len(order)
	if i >= 0 {
		evaluated = min((i/width+1)*width, len(order))
	}
	if evaluated > 0 {
		g := min(a.chunked.Workers(), width)
		rounds := (evaluated + g - 1) / g
		cost := float64(elapsed.Nanoseconds()) / float64(rounds)
		if a.costEWMA <= 0 {
			a.costEWMA = cost
		} else {
			a.costEWMA += chunkEWMAAlpha * (cost - a.costEWMA)
		}
	}
	if i < 0 {
		return -1
	}
	return order[i]
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
				if a.keyed != nil {
					a.coreKeys[k].Remove(a.keyed.TaskKey(t))
				}
				if an := a.analyzers[k]; an != nil {
					an.Forget(id)
				}
				return t, true
			}
		}
	}
	return mcs.Task{}, false
}

// PlacementOrder returns the core indices in the order the UDP online
// policy tries them for the task: worst-fit by the per-core utilization
// difference for HC tasks (Algorithm 1 line 3), index order (first-fit)
// for LC tasks. Ties break by index so the order is deterministic. The
// returned slice is pooled scratch, valid until the next order-producing
// call on this assigner.
func (a *Assigner) PlacementOrder(task mcs.Task) []int {
	order := a.identityOrder()
	if task.IsHC() {
		sortOrder(order, a.UtilDiff, false)
	}
	return order
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

// FirstFit tries cores in index order.
func (a *Assigner) FirstFit(task mcs.Task) bool {
	return a.placeInOrder(task, a.identityOrder())
}

// placeInOrder probes the candidate cores in the given order (via the
// prober) and commits the task on the first fit.
func (a *Assigner) placeInOrder(task mcs.Task, order []int) bool {
	k := a.FirstFitting(task, order)
	if k < 0 {
		return false
	}
	a.Commit(task, k)
	return true
}

// WorstFitBy tries cores in increasing order of key(k), ties by index —
// the generalized worst-fit of Algorithm 1 line 3.
func (a *Assigner) WorstFitBy(task mcs.Task, key func(k int) float64) bool {
	return a.fitBy(task, key, false)
}

// BestFitBy tries cores in decreasing order of key(k) — the mirror image of
// worst-fit, provided for ablation studies.
func (a *Assigner) BestFitBy(task mcs.Task, key func(k int) float64) bool {
	return a.fitBy(task, key, true)
}

func (a *Assigner) fitBy(task mcs.Task, key func(k int) float64, desc bool) bool {
	order := a.identityOrder()
	sortOrder(order, key, desc)
	return a.placeInOrder(task, order)
}

// Partition hands the assignment over as a Partition. The strategies call
// it once at the end of a run and discard the Assigner; long-lived callers
// should use Snapshot instead.
func (a *Assigner) Partition() Partition { return Partition{Cores: a.cores} }

// Snapshot returns a deep copy of the current assignment.
func (a *Assigner) Snapshot() Partition {
	return Partition{Cores: a.cores}.Clone()
}
