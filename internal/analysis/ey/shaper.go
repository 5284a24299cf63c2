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
// inequality, and probe the same LO-feasibility boundary; where the loop
// would repeat a move, fastForward applies in one go only repeats the
// loop would make itself. (The equivalence leans on task IDs being unique
// within a set, which every producer in this repo guarantees; an ID-keyed
// map would alias duplicate IDs where positional arrays would not.)
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

// hiHorizon assembles the HI-mode QPA horizon of the current curves like
// loHorizon does, matching a full dbf.HIAccum fold over them bit for bit.
func (s *Shaper) hiHorizon() (L mcs.Ticks, ok bool) {
	var off float64
	var maxOff mcs.Ticks
	for j := range s.saws {
		off += s.offHI[j]
		if o := s.saws[j].D - s.saws[j].VD; o > maxOff {
			maxOff = o
		}
	}
	return dbf.Horizon(s.looseHI.U, off, maxOff, s.looseHI.Hyper, s.looseHI.HyperOK)
}

// HIFeasible runs the HI-mode QPA test under the current virtual
// deadlines, returning a violation witness and the demand there when it
// fails. The walk runs over hiHorizon's horizon and resumes from hiFree.
func (s *Shaper) HIFeasible() (witness, demand mcs.Ticks, ok bool) {
	if len(s.saws) == 0 {
		return -1, 0, true
	}
	L, ok := s.hiHorizon()
	if !ok {
		return 0, dbf.SawSum(s.saws).Value(0), false
	}
	witness, demand, s.hiFree, ok = dbf.QPAResume(dbf.SawSum(s.saws), L, s.hiFree)
	return witness, demand, ok
}

// Shape runs the failure-guided tuning loop from the current assignment,
// starting with a fresh frozen set: iteration zero's HI-mode check, then
// ShapeResume on its witness.
func (s *Shaper) Shape(maxIter int) bool {
	if maxIter < 1 {
		return false
	}
	w, demand, ok := s.HIFeasible()
	return ok || s.ShapeResume(w, demand, maxIter)
}

// ShapeResume is the shaping loop for a caller that already ran iteration
// zero's HI-mode check on the current curves (via HIFeasible) and holds
// its violation witness and the demand there: the loop continues with
// tuneStep on them, so the overall run is step-for-step Shape's, and
// starts with a fresh frozen set. Each iteration is one tuneStep; after
// one whose first try moved a deadline, fastForward applies the identical
// moves the next iterations would make, each counted as one of them, so
// the run ends on the deadlines and the verdict the plain loop ends on.
func (s *Shaper) ShapeResume(w, demand mcs.Ticks, maxIter int) bool {
	for j := range s.frozen {
		s.frozen[j] = false
	}
	for iters := 0; iters < maxIter; iters++ {
		if iters > 0 {
			var ok bool
			if w, demand, ok = s.HIFeasible(); ok {
				return true
			}
		}
		first, more := s.tuneStep(w, demand)
		if !more {
			return false
		}
		if first >= 0 {
			iters += s.fastForward(first, w, demand, maxIter-iters-1)
		}
	}
	return false
}

// fastForward applies, after a tuneStep whose first try lowered saw j's
// virtual deadline by needed = demand − w (w the HI-mode witness, demand
// = dbf_HI(w) the walk's W), the largest number k ≤ budget of further
// moves under the five conditions below, and returns k. Each of them is
// the move the loop's next iteration would make: its HI walk returns
// (w, W) again, its scan picks j again, and its first try lowers VD_j by
// needed again and passes. So k moves here end where k iterations of the
// loop end, on the same deadlines; only what they walk is saved — k HI
// walks, k scans and k LO walks become k horizon sums and one LO walk.
//
// Write A for the curves the walk that found w ran on, VD_j + needed
// being j's deadline there, and S_i for VD_j − i·needed. That walk ran
// over L₀ = hiFree.Hi and left hiFree = (W, L₀]; its witness did not sit
// at its start (that case has W > L₀, excluded by the horizon condition),
// so by dbf.QPAResume's start-independence argument W is tight under A,
// demand is W on [w, W] and w = PrevKink(W). Demand only falls as VD_j
// does, so (W, L₀] stays violation-free for every S_i. The conditions:
//
//   - Value. Saw j's value at w under S_{k−1} equals its value under A. A
//     sawtooth's value at a fixed point only falls with its deadline, so
//     it is the same under every S_i, i < k, and so is dbf_HI(w) = W. HI
//     demand sits between dbf_HI(w) and demand under A, so it is W on
//     [w, W] under S_i too, and W is tight. Every candidate's gain — j's
//     is its value at w minus a fixed one, the others' curves did not move
//     — is the one the scan saw, so it picks j with the same needed. And
//     PrevKink(W) = w under S_i. Under A some curve has a kink at w and
//     none has one in (w, W). That kink is not j's: the check also makes
//     j flat on [w − needed, w] under A, j is flat on [w, W], and a
//     sawtooth with positive gain has no kink with flat stretches on both
//     sides. So the curve that has it did not move, and neither did the
//     others; j, flat on [w, W] under S_i, has no kink inside it.
//   - Horizon. The HI horizon under each S_i, i < k, lies in [W, L₀],
//     assembled by hiHorizon, the code HIFeasible walks over, so it is
//     bit for bit the horizon the loop's walk would use. Then (W, L] has
//     no violation, W is tight and [w, W) violates, so by
//     start-independence the walk from L — with any valid certificate —
//     returns PrevKink(W) = w and demand W.
//   - No clamp. S_k ≥ C^L_j, so every move's target S_{i+1} is unclamped
//     and j stays a candidate (S_i > C^L_j).
//   - LO. The LO test passes under S_k. LO demand only rises as VD_j
//     falls, so it passes under every S_i, i ≤ k: each first try passes.
//     S_0 was proved by tuneStep's walk, so one windowed walk over what
//     the k moves opened decides S_k (dbf.QPAWindows). If it fails, a
//     binary search over the count finds the largest passing one; the
//     loop's next iteration then makes the failing try and its binary
//     search exactly as before.
//   - Budget. k is at most the iterations left, so a run that spends
//     them ends on the deadlines and the false the loop ends on.
//
// (With no valid horizon HIFeasible's witness is 0 and its demand is
// dbf_HI(0), which can be 0; the horizon condition then fails at once,
// and under every S_i, since whether a horizon exists does not depend on
// the deadlines.) hiFree, proved for the higher demand of A, stays valid;
// loFree is what the last successful LO walk proved, as after a tuneStep.
func (s *Shaper) fastForward(j int, w, demand mcs.Ticks, budget int) int {
	needed := demand - w
	vd, cl := s.saws[j].VD, s.saws[j].CL
	probe := s.saws[j]
	probe.VD += needed // A's deadline, unless the first move was clamped: then the clamp check stops at k = 0
	before := probe.Value(w)
	k := 0
	for ; k < budget; k++ {
		d := vd - mcs.Ticks(k)*needed
		if d-needed < cl {
			break
		}
		if probe.VD = d; probe.Value(w) != before {
			break
		}
		s.setHC(j, d)
		if L, ok := s.hiHorizon(); !ok || L < demand || L > s.hiFree.Hi {
			break
		}
	}
	s.setHC(j, vd)
	if k == 0 {
		return 0
	}
	var tried dbf.Free
	if s.lower(j, vd-mcs.Ticks(k)*needed, &tried) {
		return k
	}
	pass, fail := 0, k
	for fail-pass > 1 {
		mid := (pass + fail) / 2
		if s.lower(j, vd-mcs.Ticks(mid)*needed, &tried) {
			pass = mid
		} else {
			fail = mid
		}
	}
	return pass
}

// lower is one try of the shaping search: it lowers saw j's virtual
// deadline to d and keeps the move if the LO test still passes, else
// restores the deadline. Every try lowers one deadline of curves that are
// LO-feasible — the step's own, or those a successful try left — so while
// loProved holds its walk visits only the windows [d + kT, old + kT) the
// move opened, up to the try's own horizon. A failed walk's certificate
// goes to *tried, which serves every later try of the same search: each
// has a larger d than every failed one, hence lower LO demand.
func (s *Shaper) lower(j int, d mcs.Ticks, tried *dbf.Free) bool {
	old := s.saws[j].VD
	var rose dbf.Windows
	if s.loProved {
		rose = dbf.Windows{Start: d, Width: old - d, T: s.saws[j].T}
	}
	s.setHC(j, d)
	proved, ok := s.loWalk(*tried, rose)
	if ok {
		s.loFree, s.loProved = proved, true
		return true
	}
	*tried = proved
	s.setHC(j, old)
	return false
}

// tuneStep shrinks the virtual deadline of the unfrozen HC task with the
// largest demand reduction at the HI-mode violation witness w (demand is
// the HI demand there, as the walk that found w summed it), while keeping
// the LO test passing. It returns false when no move is possible, and
// first, the saw its first try moved, or -1 when that try failed.
func (s *Shaper) tuneStep(w, demand mcs.Ticks) (first int, ok bool) {
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
		sw := &s.saws[j]
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
		return -1, false
	}

	hi, lo := s.saws[best].VD, s.saws[best].CL
	target := hi - needed
	if target < lo {
		target = lo
	}
	var tried dbf.Free
	if s.lower(best, target, &tried) {
		return best, true
	}
	loBound, hiBound := target+1, hi-1
	moved := false
	for loBound <= hiBound {
		mid := (loBound + hiBound) / 2
		if s.lower(best, mid, &tried) {
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
				return -1, true
			}
		}
		return -1, false
	}
	return -1, true
}
