package amc

import (
	"slices"

	"mcsched/internal/analysis/kernel"
	"mcsched/internal/mcs"
)

// Analyzer is the reusable per-core AMC engine. Against the stateless
// Analyze — which copies the task set, allocates a fresh hp set per
// candidate and runs every fixed point cold — it keeps, per core:
//
//   - memoized artifacts of the last certified-schedulable set: the task
//     values in analysis order (mem), the priority order that passed (pos)
//     and each task's converged LO / AMC-rtb response times (posLO/posHI);
//   - scratch buffers for hp sets, priority orders and switch-instant
//     candidates, so steady-state probes run allocation-free;
//   - two-sided fast-path filters (utilization rejects, the
//     rtb-implies-max accept) with counters.
//
// Every shortcut is verdict-preserving, not approximate:
//
//   - Utilization rejects: with constrained deadlines, Σ C^L/T > 1 makes
//     the LO fixed point of the lowest-priority task exceed its deadline
//     under EVERY priority order (R ≤ D ≤ T would force R·ΣU ≤ R), and
//     Σ_HC C^H/T > 1 does the same to the lowest-priority HC task in both
//     the rtb and max analyses (at switch instant s=0 the max recurrence
//     counts every HC job at C^H), so Audsley and deadline-monotonic
//     assignment must both fail.
//   - rtb ⇒ max: for the same task, hp set and R^LO, every term of the
//     AMC-max recurrence at any switch instant s < R^LO is bounded by the
//     corresponding AMC-rtb term (⌊s/T⌋+1 ≤ ⌈R^LO/T⌉ for the LC part,
//     M·C^H + (jobs−M)·C^L ≤ jobs·C^H for the HC part), and the max
//     iteration starts at max(C^H, s+1) ≤ R^rtb (R^rtb ≥ R^LO > s holds
//     because the rtb recurrence dominates the LO one). A converged R^rtb
//     is therefore a prefix point of every per-s iteration, which then
//     terminates at or below it — so an rtb pass certifies the max pass
//     without running it.
//   - Bottom insertion (Audsley): appending a task at the lowest priority
//     leaves every resident task's hp set unchanged, so if the newcomer is
//     feasible below the certified order the extended order is feasible —
//     and Audsley's algorithm, which finds an assignment whenever one
//     exists, must agree. An infeasible bottom slot decides nothing and
//     falls back to the full assignment search.
//   - Deadline-monotonic insertion: the order is forced, so only the
//     newcomer and the tasks below its slot need re-analysis; tasks above
//     keep bit-identical hp sets. Re-analyzed fixed points warm-start from
//     their previous converged values (valid lower bounds — their hp sets
//     only grew).
//
// The differential suite in internal/analysis/crosstest certifies verdict
// equality against the stateless test for all of this.
//
// An Analyzer is not safe for concurrent use.
type Analyzer struct {
	opts Options
	ctr  kernel.Counters

	// Memo of the last certified-schedulable set. valid gates the
	// incremental paths; seedOK additionally gates warm starts (response
	// times stop being fixed points when a task leaves, but the certified
	// order itself survives removals by sustainability).
	valid  bool
	seedOK bool
	mem    []mcs.Task  // certified set, analysis (slice) order
	pos    []int       // priority position → index into mem (0 = highest)
	posLO  []mcs.Ticks // converged LO response per position
	posHI  []mcs.Ticks // converged rtb response per position (0 = none)

	// Scratch.
	hpBuf   []mcs.Task
	unBuf   []mcs.Task
	dmBuf   []mcs.Task
	lvlTask []mcs.Task
	lvlLO   []mcs.Ticks
	lvlHI   []mcs.Ticks
	newLO   []mcs.Ticks
	newHI   []mcs.Ticks
	cands   []mcs.Ticks
	used    []bool
}

// NewAnalyzer implements kernel.Incremental for Test.
func (t Test) NewAnalyzer() kernel.Analyzer { return &Analyzer{opts: t.Opts} }

// Counters implements kernel.Analyzer.
func (a *Analyzer) Counters() *kernel.Counters { return &a.ctr }

// Invalidate implements kernel.Analyzer.
func (a *Analyzer) Invalidate() { a.valid, a.seedOK = false, false }

// Forget implements kernel.Analyzer: the removed task leaves the memo, the
// certified order survives (every remaining hp set shrank, and the analyses
// are sustainable under removal), the warm-start seeds do not (the stored
// response times are now upper bounds, not fixed points).
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
	w := 0
	for p, idx := range a.pos {
		if idx == j {
			continue
		}
		if idx > j {
			idx--
		}
		// Compact the response-time arrays in step with pos, so position p
		// keeps describing the same task. The values are still demoted to
		// non-seeds below (hp sets shrank, so they are upper bounds, not
		// fixed points), but alignment must survive for the next full run's
		// promote to rebuild from a consistent state.
		a.pos[w] = idx
		a.posLO[w] = a.posLO[p]
		a.posHI[w] = a.posHI[p]
		w++
	}
	a.pos = a.pos[:w]
	a.posLO = a.posLO[:w]
	a.posHI = a.posHI[:w]
	a.seedOK = false
}

// Schedulable implements kernel.Analyzer; the verdict is bit-identical to
// the stateless Analyze with the same Options.
func (a *Analyzer) Schedulable(ts mcs.TaskSet) bool {
	if len(ts) == 0 {
		return true
	}
	if a.fastReject(ts) {
		a.ctr.FastRejects++
		return false
	}
	if a.valid && kernel.PrefixExtends(ts, a.mem) {
		if a.opts.Policy == DeadlineMonotonic {
			// The incremental path promotes the carried posLO/posHI prefix
			// back into seed validity, so it is only sound while the stored
			// values are true fixed points. After a release (seedOK false)
			// the first probe must re-derive them with a full pass.
			if a.seedOK {
				return a.incrementalDM(ts)
			}
			return a.runFull(ts, false)
		}
		if a.bottomInsert(ts) {
			a.ctr.IncrementalHits++
			return true
		}
		// The newcomer does not fit below the certified order; only a full
		// Audsley pass (seeded at the bottom level) can decide.
		return a.runFull(ts, true)
	}
	return a.runFull(ts, false)
}

// fastReject applies the necessary utilization conditions. The proofs
// require constrained deadlines (D ≤ T); anything else falls through to the
// exact analysis. The 1e-9 margin absorbs float accumulation against the
// exact integer arithmetic of the response-time tests — the filter only
// fires when the true rational utilization is certainly above 1.
func (a *Analyzer) fastReject(ts mcs.TaskSet) bool {
	const margin = 1e-9
	var uLO, uHH float64
	for _, t := range ts {
		if t.Period <= 0 || t.Deadline <= 0 || t.Deadline > t.Period {
			return false
		}
		uLO += float64(t.CLo()) / float64(t.Period)
		if t.IsHC() {
			uHH += float64(t.CHi()) / float64(t.Period)
		}
	}
	return uLO > 1+margin || uHH > 1+margin
}

// bottomInsert tries the prefix-extend fast path: the new task at the
// lowest priority below the certified order. Only an accept decides.
func (a *Analyzer) bottomInsert(ts mcs.TaskSet) bool {
	x := ts[len(ts)-1]
	rlo, rhi, ok := a.taskFeasibleW(x, mcs.TaskSet(a.mem), 0, 0)
	if !ok {
		return false
	}
	a.mem = append(a.mem, x)
	a.pos = append(a.pos, len(a.mem)-1)
	a.posLO = append(a.posLO, rlo)
	a.posHI = append(a.posHI, rhi)
	return true
}

// incrementalDM decides a prefix-extended set under the forced
// deadline-monotonic order: tasks above the newcomer's slot keep their
// verdicts, the newcomer and everything below re-verify with warm seeds.
func (a *Analyzer) incrementalDM(ts mcs.TaskSet) bool {
	x := ts[len(ts)-1]
	p := 0
	for p < len(a.pos) && !dmLess(x, a.mem[a.pos[p]]) {
		p++
	}
	buf := a.dmBuf[:0]
	for q := 0; q < p; q++ {
		buf = append(buf, a.mem[a.pos[q]])
	}
	buf = append(buf, x)
	for q := p; q < len(a.pos); q++ {
		buf = append(buf, a.mem[a.pos[q]])
	}
	a.dmBuf = buf

	newLO := append(a.newLO[:0], a.posLO[:p]...)
	newHI := append(a.newHI[:0], a.posHI[:p]...)
	ok := true
	for q := p; q < len(buf); q++ {
		var sLO, sHI mcs.Ticks
		if a.seedOK && q > p {
			// buf[q] sat at position q-1 before the insertion.
			sLO, sHI = a.posLO[q-1], a.posHI[q-1]
		}
		rlo, rhi, feas := a.taskFeasibleW(buf[q], mcs.TaskSet(buf[:q]), sLO, sHI)
		if !feas {
			ok = false
			break
		}
		newLO = append(newLO, rlo)
		newHI = append(newHI, rhi)
	}
	a.newLO, a.newHI = newLO, newHI
	a.ctr.IncrementalHits++
	if !ok {
		return false
	}
	a.promote(ts, buf, newLO, newHI)
	return true
}

// runFull is the exact analysis with scratch buffers.
func (a *Analyzer) runFull(ts mcs.TaskSet, seeded bool) bool {
	a.ctr.ExactRuns++
	if a.opts.Policy == DeadlineMonotonic {
		return a.fullDM(ts)
	}
	return a.fullAudsley(ts, seeded)
}

// fullDM verifies the deadline-monotonic order from scratch.
func (a *Analyzer) fullDM(ts mcs.TaskSet) bool {
	buf := append(a.dmBuf[:0], ts...)
	a.dmBuf = buf
	insertionSort(buf, dmLess)
	newLO := a.newLO[:0]
	newHI := a.newHI[:0]
	ok := true
	for q := range buf {
		rlo, rhi, feas := a.taskFeasibleW(buf[q], mcs.TaskSet(buf[:q]), 0, 0)
		if !feas {
			ok = false
			break
		}
		newLO = append(newLO, rlo)
		newHI = append(newHI, rhi)
	}
	a.newLO, a.newHI = newLO, newHI
	if !ok {
		return false
	}
	a.promote(ts, buf, newLO, newHI)
	return true
}

// fullAudsley assigns priorities bottom-up exactly like the stateless
// audsley (same candidate order, same first-feasible choice), reusing
// scratch. With seeded set, bottom-level candidates warm-start from the
// memoized response times — valid there because the current set is a
// superset of the memo, so a candidate's bottom-level hp set contains its
// old one.
func (a *Analyzer) fullAudsley(ts mcs.TaskSet, seeded bool) bool {
	un := append(a.unBuf[:0], ts...)
	a.unBuf = un
	insertionSort(un, func(x, y mcs.Task) bool {
		if x.Deadline != y.Deadline {
			return x.Deadline > y.Deadline
		}
		return x.ID < y.ID
	})

	n := len(un)
	a.lvlTask = growTasks(a.lvlTask, n)
	a.lvlLO = growTicks(a.lvlLO, n)
	a.lvlHI = growTicks(a.lvlHI, n)
	for level := n - 1; level >= 0; level-- {
		placed := false
		for i := 0; i < len(un); i++ {
			cand := un[i]
			hp := append(a.hpBuf[:0], un[:i]...)
			hp = append(hp, un[i+1:]...)
			a.hpBuf = hp
			var sLO, sHI mcs.Ticks
			if seeded && a.seedOK && level == n-1 {
				sLO, sHI = a.seedFor(cand)
			}
			rlo, rhi, feas := a.taskFeasibleW(cand, mcs.TaskSet(hp), sLO, sHI)
			if feas {
				a.lvlTask[level], a.lvlLO[level], a.lvlHI[level] = cand, rlo, rhi
				un = append(un[:i], un[i+1:]...)
				placed = true
				break
			}
		}
		if !placed {
			return false
		}
	}
	a.promote(ts, a.lvlTask[:n], a.lvlLO[:n], a.lvlHI[:n])
	return true
}

// seedFor returns the memoized response times of a task that is still
// resident in the memo with identical parameters, or zeros.
func (a *Analyzer) seedFor(t mcs.Task) (mcs.Ticks, mcs.Ticks) {
	for p, idx := range a.pos {
		if a.mem[idx] == t {
			return a.posLO[p], a.posHI[p]
		}
	}
	return 0, 0
}

// taskFeasibleW is taskFeasible with warm seeds, converged-value capture
// and the rtb-implies-max shortcut. Zero seeds mean cold starts.
func (a *Analyzer) taskFeasibleW(t mcs.Task, hp mcs.TaskSet, seedLO, seedHI mcs.Ticks) (rlo, rhi mcs.Ticks, ok bool) {
	s := t.CLo()
	if seedLO > s {
		s = seedLO
		a.ctr.WarmStarts++
	}
	rlo, ok = responseLOSeed(t, hp, s)
	if !ok {
		return 0, 0, false
	}
	if !t.IsHC() {
		return rlo, 0, true
	}
	sh := t.CHi()
	if seedHI > sh {
		sh = seedHI
		a.ctr.WarmStarts++
	}
	rhi, rtbOK := amcRTBSeed(t, hp, rlo, sh)
	if a.opts.Variant == Max {
		if rtbOK {
			a.ctr.FastAccepts++ // rtb ⇒ max: skip the switch-instant scan
			return rlo, rhi, true
		}
		return rlo, 0, a.amcMaxScratch(t, hp, rlo)
	}
	if !rtbOK {
		return rlo, 0, false
	}
	return rlo, rhi, true
}

// amcMaxScratch is amcMax with the switch-instant candidates collected in a
// reusable buffer instead of a map — same candidate set, same sorted scan
// order, no allocation in the steady state.
func (a *Analyzer) amcMaxScratch(t mcs.Task, hp mcs.TaskSet, rlo mcs.Ticks) bool {
	c := append(a.cands[:0], 0)
	for _, j := range hp {
		if j.IsHC() {
			continue
		}
		for s := j.Period; s < rlo; s += j.Period {
			c = append(c, s)
		}
	}
	slices.Sort(c)
	c = slices.Compact(c)
	a.cands = c
	for _, s := range c {
		if !amcMaxAt(t, hp, s) {
			return false
		}
	}
	return true
}

// promote records a certified analysis: ts (copied) becomes the memo,
// byPrio/los/his its priority order and response times. Position mapping
// matches tasks by value with a used-guard so even degenerate inputs with
// duplicate IDs keep a bijection.
func (a *Analyzer) promote(ts mcs.TaskSet, byPrio []mcs.Task, los, his []mcs.Ticks) {
	a.mem = append(a.mem[:0], ts...)
	a.used = growBools(a.used, len(a.mem))
	for i := range a.used {
		a.used[i] = false
	}
	a.pos = a.pos[:0]
	for _, t := range byPrio {
		for i := range a.mem {
			if !a.used[i] && a.mem[i] == t {
				a.used[i] = true
				a.pos = append(a.pos, i)
				break
			}
		}
	}
	if len(a.pos) != len(a.mem) {
		// Defensive: no bijection (cannot happen for valid inputs).
		a.valid, a.seedOK = false, false
		return
	}
	a.posLO = append(a.posLO[:0], los...)
	a.posHI = append(a.posHI[:0], his...)
	a.valid, a.seedOK = true, true
}

// insertionSort sorts buf stably by less without allocating; the orders it
// produces are identical to sort.SliceStable with the same comparator.
func insertionSort(buf []mcs.Task, less func(a, b mcs.Task) bool) {
	for i := 1; i < len(buf); i++ {
		for j := i; j > 0 && less(buf[j], buf[j-1]); j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
}

func growTasks(buf []mcs.Task, n int) []mcs.Task {
	if cap(buf) < n {
		return make([]mcs.Task, n)
	}
	return buf[:n]
}

func growTicks(buf []mcs.Ticks, n int) []mcs.Ticks {
	if cap(buf) < n {
		return make([]mcs.Ticks, n)
	}
	return buf[:n]
}

func growBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}
