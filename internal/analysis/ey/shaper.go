package ey

import (
	"mcsched/internal/analysis/dbf"
	"mcsched/internal/mcs"
)

// Shaper is the EY/ECDF search engine. It stores the demand curves
// themselves, indexed by task position — one LO-mode step per task, one
// HI-mode sawtooth per HC task — and mutates them in place when a virtual
// deadline moves, so a feasibility check is a horizon fold plus a QPA
// walk, with no per-task map traffic. Package ey's Analyze and Analyzer
// and package ecdf's both run on it.
//
// The reference it is checked against is package oracle's stateless
// search, which keeps the assignment in an ID-keyed map and rebuilds the
// curves before every check. The two agree step for step because the
// curves the oracle rebuilds are exactly the ones the Shaper maintains (in
// slice order, HC tasks only for the sawtooths) and Shape/tuneStep below
// visit candidates in the same order, compare gains with the same strict
// inequality, and probe the same LO-feasibility boundary. (The
// equivalence leans on task IDs being unique within a set, which every
// producer in this repo guarantees; an ID-keyed map would alias
// duplicate IDs where positional arrays would not.)
//
// The zero value is ready to use; a Shaper is not safe for concurrent
// use.
type Shaper struct {
	steps  []dbf.Step     // per task, D = current LO-mode deadline
	saws   []dbf.Sawtooth // per HC task, ts order, VD = current virtual deadline
	sawOf  []int          // task index → index into saws, -1 for LC
	taskOf []int          // saw index → task index
	frozen []bool         // per saw, the shaping loop's bookkeeping

	// Cached per-curve horizon fold terms. The QPA horizon is a fold of
	// four components per curve — utilization, affine offset, transient
	// length, hyperperiod — of which only the offset and transient depend
	// on the curve's current deadline. offLO/offHI hold each curve's
	// offset term, recomputed by setHC only for the curve whose deadline
	// moved; a feasibility call then re-sums them in curve order (plain
	// float adds, no divisions), which is bit-identical to the full
	// LOAccum/HIAccum fold because the terms are computed by the same
	// expressions and summed in the same order.
	offLO []float64 // per step: max(0, (T−D)·C/T), as LOAccum.Add folds it
	offHI []float64 // per saw: CH·(1 − (D−VD)/T), as HIAccum.Add folds it

	// Horizon folds of the loosest assignment (every VD = D), extended
	// O(1) per appended task. Their utilization and hyperperiod components
	// are deadline-independent, so every feasibility call below reuses
	// them as-is — only the offset/transient components are re-summed.
	looseLO dbf.LOAccum
	looseHI dbf.HIAccum

	// hiFree is what the last HI-mode walk proved violation-free, handed
	// to the next one so a shaping run stops re-walking the horizon. It is
	// valid only while HI demand has not risen since it was proved: a
	// lower virtual deadline shifts that task's sawtooth right, which
	// lowers dbf_HI pointwise, and tuneStep only ever lowers one — so the
	// certificate survives tuneStep (its failed tries roll back to the
	// curves it was proved for) and everything else that touches the
	// curves drops it.
	hiFree dbf.Free

	// The LO-mode mirror. loFree is what the last LOFeasible walk proved;
	// LO demand falls when a virtual deadline rises, so it survives a
	// raising SetHCVD (ecdf's relaxation resumes on it) and nothing else.
	// loProved says more: a walk over a valid horizon succeeded on the
	// curves as they stand (or on pointwise-higher ones), so LO demand has
	// no violation at any ℓ. While it holds, tuneStep re-checks only the
	// windows its one deadline move opened (dbf.Windows); a successful walk
	// sets it, and Extend, Truncate, Scale, RestoreLoosest and a lowering
	// SetHCVD clear it.
	loFree   dbf.Free
	loProved bool

	// loHook, when set, sees every LO-mode walk's inputs and verdict before
	// loWalk returns, the curves still as walked. The differential tests
	// compare the verdict with a full walk's there; nothing else sets it.
	loHook func(known dbf.Free, rose dbf.Windows, ok bool)
}

// SetLOWalkHook installs the differential tests' observer of LO-mode
// walks (see loHook); nil removes it.
func (s *Shaper) SetLOWalkHook(f func(known dbf.Free, rose dbf.Windows, ok bool)) { s.loHook = f }

// dropProofs forgets everything proved about the curves, for callers that
// are about to change them in ways that can raise demand in either mode.
func (s *Shaper) dropProofs() {
	s.hiFree, s.loFree, s.loProved = dbf.Free{}, dbf.Free{}, false
}

// loOffTerm is the offset term LOAccum.Add would fold for st — the same
// expression, so cached copies stay bit-identical (folding an explicit 0
// for non-positive terms matches skipping the add: the sum is unchanged
// either way).
func loOffTerm(st dbf.Step) float64 {
	ui := float64(st.C) / float64(st.T)
	if d := float64(st.T-st.D) * ui; d > 0 {
		return d
	}
	return 0
}

// hiOffTerm is the offset term HIAccum.Add would fold for sw.
func hiOffTerm(sw dbf.Sawtooth) float64 {
	return float64(sw.CH) * (1 - float64(sw.D-sw.VD)/float64(sw.T))
}

// Reset rebuilds the curves for ts under the loosest assignment
// (d_i = D_i), clearing all shaping state. The task slice is only read
// during the call.
func (s *Shaper) Reset(ts mcs.TaskSet) {
	s.steps = s.steps[:0]
	s.saws = s.saws[:0]
	s.sawOf = s.sawOf[:0]
	s.taskOf = s.taskOf[:0]
	s.frozen = s.frozen[:0]
	s.offLO = s.offLO[:0]
	s.offHI = s.offHI[:0]
	s.looseLO = dbf.LOAccum{}
	s.looseHI = dbf.HIAccum{}
	s.dropProofs()
	for _, t := range ts {
		s.Extend(t)
	}
}

// ExtendUndo captures the state Extend is about to change, so a rejected
// probe can drop the appended task again (the accumulators cannot be
// un-folded, so they are saved by value).
type ExtendUndo struct {
	tasks, saws int
	looseLO     dbf.LOAccum
	looseHI     dbf.HIAccum
}

// Extend appends one task's loosest-assignment curves and folds its terms
// into the loose horizon accumulators. The curves must currently describe
// a loosest assignment prefix (Reset, RestoreLoosest, or a previous
// Extend).
func (s *Shaper) Extend(x mcs.Task) ExtendUndo {
	u := ExtendUndo{tasks: len(s.steps), saws: len(s.saws), looseLO: s.looseLO, looseHI: s.looseHI}
	s.dropProofs()
	st := dbf.Step{C: x.CLo(), D: x.Deadline, T: x.Period}
	s.steps = append(s.steps, st)
	s.offLO = append(s.offLO, loOffTerm(st))
	s.looseLO.Add(st)
	if x.IsHC() {
		s.sawOf = append(s.sawOf, len(s.saws))
		sw := dbf.Sawtooth{CL: x.CLo(), CH: x.CHi(), D: x.Deadline, VD: x.Deadline, T: x.Period}
		s.saws = append(s.saws, sw)
		s.taskOf = append(s.taskOf, u.tasks)
		s.frozen = append(s.frozen, false)
		s.offHI = append(s.offHI, hiOffTerm(sw))
		s.looseHI.Add(sw)
	} else {
		s.sawOf = append(s.sawOf, -1)
	}
	return u
}

// Truncate undoes an Extend: the appended task's curves are dropped and
// the loose accumulators restored. Deadline mutations on the surviving
// prefix are NOT undone; callers restore those with RestoreLoosest.
func (s *Shaper) Truncate(u ExtendUndo) {
	s.steps = s.steps[:u.tasks]
	s.sawOf = s.sawOf[:u.tasks]
	s.offLO = s.offLO[:u.tasks]
	s.saws = s.saws[:u.saws]
	s.taskOf = s.taskOf[:u.saws]
	s.frozen = s.frozen[:u.saws]
	s.offHI = s.offHI[:u.saws]
	s.looseLO, s.looseHI = u.looseLO, u.looseHI
	s.dropProofs()
}

// RestoreLoosest resets every virtual deadline back to the real deadline,
// returning the curves to the loosest assignment after a shaping run.
func (s *Shaper) RestoreLoosest() {
	s.dropProofs()
	for j := range s.saws {
		s.setHC(j, s.saws[j].D)
	}
}

// Scale overwrites every virtual deadline with the λ-scaled assignment
// d = C^L + λ·(D − C^L), clamped to [C^L, D] — the array form of
// ScaledInto, used by package ecdf's restarts.
func (s *Shaper) Scale(lambda float64) {
	s.dropProofs()
	for j := range s.saws {
		cl, dl := s.saws[j].CL, s.saws[j].D
		span := float64(dl - cl)
		d := cl + mcs.Ticks(lambda*span)
		if d < cl {
			d = cl
		}
		if d > dl {
			d = dl
		}
		s.setHC(j, d)
	}
}

// setHC moves HC task j's virtual deadline, keeping its LO step, HI
// sawtooth and cached fold terms in sync.
func (s *Shaper) setHC(j int, d mcs.Ticks) {
	s.saws[j].VD = d
	i := s.taskOf[j]
	s.steps[i].D = d
	s.offLO[i] = loOffTerm(s.steps[i])
	s.offHI[j] = hiOffTerm(s.saws[j])
}

// NumTasks returns the number of tasks under analysis.
func (s *Shaper) NumTasks() int { return len(s.steps) }

// NumHC returns the number of HC tasks (= sawtooth curves).
func (s *Shaper) NumHC() int { return len(s.saws) }

// HCDeadline returns the real deadline of the j-th HC task (saw order).
func (s *Shaper) HCDeadline(j int) mcs.Ticks { return s.saws[j].D }

// HCVD returns the current virtual deadline of the j-th HC task.
func (s *Shaper) HCVD(j int) mcs.Ticks { return s.saws[j].VD }

// VDs reads the current virtual deadlines back as a map from HC task ID,
// for the set ts the curves were built from.
func (s *Shaper) VDs(ts mcs.TaskSet) map[int]mcs.Ticks {
	vd := make(map[int]mcs.Ticks, len(s.saws))
	for j, i := range s.taskOf {
		vd[ts[i].ID] = s.saws[j].VD
	}
	return vd
}

// SetHCVD moves the j-th HC task's virtual deadline (package ecdf's
// relaxation uses it). A higher deadline raises HI demand and lowers LO
// demand, a lower one the reverse; each mode's proofs survive the
// direction that lowers its demand.
func (s *Shaper) SetHCVD(j int, d mcs.Ticks) {
	switch vd := s.saws[j].VD; {
	case d > vd:
		s.hiFree = dbf.Free{}
	case d < vd:
		s.loFree, s.loProved = dbf.Free{}, false
	}
	s.setHC(j, d)
}

// LOFeasible runs the LO-mode QPA test under the current deadlines, over
// loHorizon's horizon; the walk resumes from loFree.
func (s *Shaper) LOFeasible() bool {
	s.loFree, s.loProved = s.loWalk(s.loFree, dbf.Windows{})
	return s.loProved
}

// loWalk is the one LO-mode walk: the horizon of the curves as they stand,
// then dbf.QPAWindows with a certificate proved for pointwise-higher LO
// demand (known) and the windows on which demand has risen since it was
// proved violation-free everywhere (rose; zero for "everywhere"). It
// returns the certificate the walk leaves behind.
func (s *Shaper) loWalk(known dbf.Free, rose dbf.Windows) (proved dbf.Free, ok bool) {
	proved, ok = known, true
	if len(s.steps) > 0 {
		var L mcs.Ticks
		if L, ok = s.loHorizon(); ok {
			_, _, proved, ok = dbf.QPAWindows(dbf.StepSum(s.steps), L, known, rose)
		}
	}
	if s.loHook != nil {
		s.loHook(known, rose, ok)
	}
	return proved, ok
}

// loHorizon assembles the LO-mode QPA horizon of the current curves,
// matching a full dbf.LOAccum fold over them bit for bit: the utilization
// and hyperperiod components are deadline-independent and come from the
// loose fold, the offset terms are the cached per-step values re-summed in
// step order.
func (s *Shaper) loHorizon() (L mcs.Ticks, ok bool) {
	var off float64
	var maxD mcs.Ticks
	for i := range s.steps {
		off += s.offLO[i]
		if d := s.steps[i].D; d > maxD {
			maxD = d
		}
	}
	return dbf.Horizon(s.looseLO.U, off, maxD, s.looseLO.Hyper, s.looseLO.HyperOK)
}

// HIFeasible runs the HI-mode QPA test under the current virtual
// deadlines, returning a violation witness and the demand there when it
// fails. The horizon is assembled like loHorizon's, matching a full
// dbf.HIAccum fold bit for bit; the walk resumes from hiFree.
func (s *Shaper) HIFeasible() (witness, demand mcs.Ticks, ok bool) {
	if len(s.saws) == 0 {
		return -1, 0, true
	}
	var off float64
	var maxOff mcs.Ticks
	for j := range s.saws {
		off += s.offHI[j]
		if o := s.saws[j].D - s.saws[j].VD; o > maxOff {
			maxOff = o
		}
	}
	L, ok := dbf.Horizon(s.looseHI.U, off, maxOff, s.looseHI.Hyper, s.looseHI.HyperOK)
	if !ok {
		return 0, dbf.SawSum(s.saws).Value(0), false
	}
	witness, demand, s.hiFree, ok = dbf.QPAResume(dbf.SawSum(s.saws), L, s.hiFree)
	return witness, demand, ok
}

// Shape runs the failure-guided tuning loop from the current assignment,
// starting with a fresh frozen set.
func (s *Shaper) Shape(maxIter int) bool {
	for j := range s.frozen {
		s.frozen[j] = false
	}
	for iters := 0; iters < maxIter; iters++ {
		w, demand, ok := s.HIFeasible()
		if ok {
			return true
		}
		if !s.tuneStep(w, demand) {
			return false
		}
	}
	return false
}

// ShapeResume is Shape for a caller that already ran iteration zero's
// HI-mode check (at the loosest assignment, via HIFeasible) and holds
// its violation witness and the demand there: the trajectory continues
// with tuneStep on them, so the overall run is step-for-step the same loop.
func (s *Shaper) ShapeResume(w, demand mcs.Ticks, maxIter int) bool {
	for j := range s.frozen {
		s.frozen[j] = false
	}
	if maxIter < 1 {
		return false
	}
	if !s.tuneStep(w, demand) {
		return false
	}
	for iters := 1; iters < maxIter; iters++ {
		w, demand, ok := s.HIFeasible()
		if ok {
			return true
		}
		if !s.tuneStep(w, demand) {
			return false
		}
	}
	return false
}

// tuneStep shrinks the virtual deadline of the unfrozen HC task with the
// largest demand reduction at the HI-mode violation witness w (demand is
// the HI demand there, as the walk that found w summed it), while keeping
// the LO test passing. It returns false when no move is possible.
func (s *Shaper) tuneStep(w, demand mcs.Ticks) bool {
	needed := demand - w
	if needed <= 0 {
		needed = 1
	}

	best := -1
	var bestGain mcs.Ticks
	for j := range s.saws {
		if s.frozen[j] {
			continue
		}
		sw := s.saws[j]
		if sw.VD <= sw.CL {
			continue
		}
		cur := sw.Value(w)
		min := dbf.Sawtooth{CL: sw.CL, CH: sw.CH, D: sw.D, VD: sw.CL, T: sw.T}.Value(w)
		gain := cur - min
		if gain <= 0 {
			continue
		}
		if best < 0 || gain > bestGain {
			best, bestGain = j, gain
		}
	}
	if best < 0 {
		return false
	}

	hi, lo := s.saws[best].VD, s.saws[best].CL
	target := hi - needed
	if target < lo {
		target = lo
	}
	// Every try lowers one deadline of curves that are LO-feasible — the
	// step's own, or those a successful try left — so while loProved holds
	// its walk visits only the windows [d + kT, old + kT) the move opened,
	// up to the try's own horizon. And every later try has a larger d than
	// every failed one, hence lower LO demand: a failed walk's certificate
	// serves the rest of the search on top of the windows.
	var tried dbf.Free
	try := func(d mcs.Ticks) bool {
		old := s.saws[best].VD
		var rose dbf.Windows
		if s.loProved {
			rose = dbf.Windows{Start: d, Width: old - d, T: s.saws[best].T}
		}
		s.setHC(best, d)
		proved, ok := s.loWalk(tried, rose)
		if ok {
			s.loFree, s.loProved = proved, true
			return true
		}
		tried = proved
		s.setHC(best, old)
		return false
	}
	if try(target) {
		return true
	}
	loBound, hiBound := target+1, hi-1
	moved := false
	for loBound <= hiBound {
		mid := (loBound + hiBound) / 2
		if try(mid) {
			moved = true
			hiBound = mid - 1 // try to shrink further
		} else {
			loBound = mid + 1
		}
	}
	if !moved {
		s.frozen[best] = true
		// Another candidate may still help on the next iteration; report
		// progress only if any unfrozen candidate remains.
		for j := range s.saws {
			if !s.frozen[j] && s.saws[j].VD > s.saws[j].CL {
				return true
			}
		}
		return false
	}
	return true
}
