// Package amc implements fixed-priority Adaptive Mixed-Criticality
// response-time analysis (Baruah, Burns, Davis — RTSS 2011): the LO-mode
// response-time test, the AMC-rtb bound, and the AMC-max analysis that
// maximizes over candidate mode-switch instants. Priorities are assigned
// with Audsley's optimal priority assignment (the paper's choice) or
// deadline-monotonic ordering.
//
// All arithmetic is exact on integer ticks. A task set is accepted when
// every LC task meets its deadline in LO mode and every HC task meets its
// deadline in both the LO-mode and the mode-switch analyses.
package amc

import (
	"sort"

	"mcsched/internal/mcs"
)

// Variant selects the HI-mode response-time bound.
type Variant int

const (
	// RTB is AMC-rtb: one fixed-point with HC interference at C^H and LC
	// interference frozen at the LO-mode response time.
	RTB Variant = iota
	// Max is AMC-max: maximize over candidate mode-switch instants s,
	// counting LC releases before s and splitting HC interference into
	// pre- and post-switch jobs. Dominates RTB.
	Max
)

// String names the variant.
func (v Variant) String() string {
	if v == Max {
		return "AMC-max"
	}
	return "AMC-rtb"
}

// PriorityPolicy selects how priorities are assigned before the RTA runs.
type PriorityPolicy int

const (
	// Audsley uses Audsley's optimal priority assignment with the chosen
	// variant as the per-level test.
	Audsley PriorityPolicy = iota
	// DeadlineMonotonic orders by increasing relative deadline (ties by
	// criticality: HC first, then by ID).
	DeadlineMonotonic
)

// Options configures the analysis.
type Options struct {
	Variant Variant
	Policy  PriorityPolicy
}

// DefaultOptions returns AMC-max with Audsley assignment, the strongest
// published configuration.
func DefaultOptions() Options { return Options{Variant: Max, Policy: Audsley} }

// Result reports the verdict and the priority order that passed.
type Result struct {
	Schedulable bool
	// Priority maps task ID → priority level (0 = highest). Only set when
	// Schedulable.
	Priority map[int]int
}

// Analyze runs the AMC schedulability test on a uniprocessor task set.
func Analyze(ts mcs.TaskSet, opts Options) Result {
	if len(ts) == 0 {
		return Result{Schedulable: true, Priority: map[int]int{}}
	}
	switch opts.Policy {
	case DeadlineMonotonic:
		order := dmOrder(ts)
		if feasibleOrder(ts, order, opts.Variant) {
			return Result{Schedulable: true, Priority: orderToPriority(order)}
		}
		return Result{}
	default:
		return audsley(ts, opts.Variant)
	}
}

// Schedulable is the boolean wrapper with default options.
func Schedulable(ts mcs.TaskSet) bool { return Analyze(ts, DefaultOptions()).Schedulable }

// DeadlineMonotonicPriorities assigns fixed priorities (task ID → level,
// 0 = highest) in deadline-monotonic order: increasing relative deadline,
// ties HC first, then by ID. It is the order the DeadlineMonotonic policy
// analyzes, and the fallback runtime of a fixed-priority core without a
// certified order.
func DeadlineMonotonicPriorities(ts mcs.TaskSet) map[int]int { return orderToPriority(dmOrder(ts)) }

// dmOrder returns task IDs ordered highest priority first by dmLess.
func dmOrder(ts mcs.TaskSet) []int {
	idx := make([]int, len(ts))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return dmLess(ts[idx[a]], ts[idx[b]]) })
	order := make([]int, len(idx))
	for p, i := range idx {
		order[p] = ts[i].ID
	}
	return order
}

// dmLess is the deadline-monotonic order: deadline, then HC-first, then
// ID — a strict total order for unique IDs.
func dmLess(x, y mcs.Task) bool {
	if x.Deadline != y.Deadline {
		return x.Deadline < y.Deadline
	}
	if x.Crit != y.Crit {
		return x.Crit == mcs.HI
	}
	return x.ID < y.ID
}

func orderToPriority(order []int) map[int]int {
	pr := make(map[int]int, len(order))
	for p, id := range order {
		pr[id] = p
	}
	return pr
}

// feasibleOrder checks every task under the given priority order (highest
// first).
func feasibleOrder(ts mcs.TaskSet, order []int, v Variant) bool {
	pos := make(map[int]int, len(order))
	for p, id := range order {
		pos[id] = p
	}
	for _, t := range ts {
		hp := hpSet(ts, func(u mcs.Task) bool { return pos[u.ID] < pos[t.ID] })
		if !taskFeasible(t, hp, v) {
			return false
		}
	}
	return true
}

// audsley assigns priorities bottom-up: for each priority level from lowest
// to highest, find some unassigned task that is schedulable at that level
// assuming all other unassigned tasks have higher priority.
func audsley(ts mcs.TaskSet, v Variant) Result {
	unassigned := make([]mcs.Task, len(ts))
	copy(unassigned, ts)
	// Deterministic candidate order: try the task with the largest
	// deadline first (most likely to tolerate the lowest level).
	sort.SliceStable(unassigned, func(i, j int) bool {
		if unassigned[i].Deadline != unassigned[j].Deadline {
			return unassigned[i].Deadline > unassigned[j].Deadline
		}
		return unassigned[i].ID < unassigned[j].ID
	})

	n := len(unassigned)
	priority := make(map[int]int, n)
	for level := n - 1; level >= 0; level-- {
		placed := false
		for i, cand := range unassigned {
			hp := make(mcs.TaskSet, 0, len(unassigned)-1)
			for j, u := range unassigned {
				if j != i {
					hp = append(hp, u)
				}
			}
			if taskFeasible(cand, hp, v) {
				priority[cand.ID] = level
				unassigned = append(unassigned[:i], unassigned[i+1:]...)
				placed = true
				break
			}
		}
		if !placed {
			return Result{}
		}
	}
	return Result{Schedulable: true, Priority: priority}
}

func hpSet(ts mcs.TaskSet, higher func(mcs.Task) bool) mcs.TaskSet {
	var hp mcs.TaskSet
	for _, u := range ts {
		if higher(u) {
			hp = append(hp, u)
		}
	}
	return hp
}

// taskFeasible checks one task against its higher-priority set.
func taskFeasible(t mcs.Task, hp mcs.TaskSet, v Variant) bool {
	rlo, ok := responseLO(t, hp)
	if !ok {
		return false
	}
	if !t.IsHC() {
		// LC tasks only need the LO-mode guarantee; they are dropped on a
		// mode switch.
		return true
	}
	switch v {
	case Max:
		return amcMax(t, hp, rlo)
	default:
		return amcRTB(t, hp, rlo)
	}
}

// responseLO solves R = C^L + Σ_{hp} ⌈R/T_j⌉·C_j^L by fixed point,
// failing once R exceeds the deadline.
func responseLO(t mcs.Task, hp mcs.TaskSet) (mcs.Ticks, bool) {
	return responseLOSeed(t, hp, t.CLo())
}

// responseLOSeed is responseLO warm-started at seed. The recurrence is
// monotone, and for any r ≤ lfp (the least fixed point) the next iterate
// satisfies r ≤ F(r) ≤ lfp — a strictly smaller iterate would lead to a
// fixed point below the least one — so iterating from ANY seed ≤ lfp
// converges to exactly the same response time as the cold start at C^L.
// Callers guarantee seed validity by only seeding from a response time
// converged against a subset of the current hp multiset (interference only
// grew, so the old fixed point is a lower bound on the new one).
func responseLOSeed(t mcs.Task, hp mcs.TaskSet, seed mcs.Ticks) (mcs.Ticks, bool) {
	r := seed
	for {
		next := t.CLo()
		for _, j := range hp {
			next += ceilDiv(r, j.Period) * j.CLo()
		}
		if next > t.Deadline {
			return 0, false
		}
		if next == r {
			return r, true
		}
		r = next
	}
}

// amcRTB solves R = C^H + Σ_{hpH} ⌈R/T⌉C^H + Σ_{hpL} ⌈R^LO/T⌉C^L.
func amcRTB(t mcs.Task, hp mcs.TaskSet, rlo mcs.Ticks) bool {
	_, ok := amcRTBSeed(t, hp, rlo, t.CHi())
	return ok
}

// amcRTBSeed is amcRTB warm-started at seed, returning the converged
// response time for use as a future seed. Seed validity follows the same
// monotone-fixed-point argument as responseLOSeed: the recurrence grows
// pointwise with both the hp multiset and rlo, so a response time converged
// against a subset hp (and its necessarily smaller rlo) never exceeds the
// current least fixed point.
func amcRTBSeed(t mcs.Task, hp mcs.TaskSet, rlo, seed mcs.Ticks) (mcs.Ticks, bool) {
	// LC interference is frozen at the LO-mode response time.
	var lcPart mcs.Ticks
	for _, j := range hp {
		if !j.IsHC() {
			lcPart += ceilDiv(rlo, j.Period) * j.CLo()
		}
	}
	r := seed
	for {
		next := t.CHi() + lcPart
		for _, j := range hp {
			if j.IsHC() {
				next += ceilDiv(r, j.Period) * j.CHi()
			}
		}
		if next > t.Deadline {
			return 0, false
		}
		if next == r {
			return r, true
		}
		r = next
	}
}

// amcMax implements the AMC-max recurrence: for each candidate switch
// instant s the response time R(s) solves
//
//	R(s) = C^H + Σ_{j∈hpL} (⌊s/T_j⌋+1)·C_j^L
//	     + Σ_{k∈hpH} [ M(k,s,R)·C_k^H + (⌈R/T_k⌉ − M(k,s,R))·C_k^L ]
//
// with M(k,s,t) = min( ⌈(t − s − (T_k − D_k))/T_k⌉ + 1, ⌈t/T_k⌉ ), clamped
// to ≥ 0 — the number of τ_k jobs that can execute at the HI budget after
// the switch. The result is max_s R(s) over LC release instants s < R^LO
// (the only points where the LC term changes), and the task is feasible iff
// that maximum is within the deadline.
func amcMax(t mcs.Task, hp mcs.TaskSet, rlo mcs.Ticks) bool {
	for _, s := range switchCandidates(hp, rlo) {
		if !amcMaxAt(t, hp, s) {
			return false
		}
	}
	return true
}

// switchCandidates enumerates s = 0 and the LC higher-priority release
// instants k·T_j strictly below rlo.
func switchCandidates(hp mcs.TaskSet, rlo mcs.Ticks) []mcs.Ticks {
	set := map[mcs.Ticks]bool{0: true}
	for _, j := range hp {
		if j.IsHC() {
			continue
		}
		for s := j.Period; s < rlo; s += j.Period {
			set[s] = true
		}
	}
	out := make([]mcs.Ticks, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func amcMaxAt(t mcs.Task, hp mcs.TaskSet, s mcs.Ticks) bool {
	var lcPart mcs.Ticks
	for _, j := range hp {
		if !j.IsHC() {
			lcPart += (s/j.Period + 1) * j.CLo()
		}
	}
	r := t.CHi()
	if r <= s { // the switch cannot happen after the busy period ends
		r = s + 1
	}
	for {
		next := t.CHi() + lcPart
		for _, k := range hp {
			if !k.IsHC() {
				continue
			}
			jobs := ceilDiv(r, k.Period)
			m := hiJobs(k, s, r)
			if m > jobs {
				m = jobs
			}
			next += m*k.CHi() + (jobs-m)*k.CLo()
		}
		if next > t.Deadline {
			return false
		}
		if next <= r {
			return true
		}
		r = next
	}
}

// hiJobs is M(k, s, t): jobs of τ_k released late enough to run at the HI
// budget in a busy window [0, t] with a switch at s. The inner ceiling must
// be a true signed ceiling — a switch far beyond the window yields zero HI
// jobs, not one.
func hiJobs(k mcs.Task, s, t mcs.Ticks) mcs.Ticks {
	num := t - s - (k.Period - k.Deadline)
	m := ceilSigned(num, k.Period) + 1
	if m < 0 {
		return 0
	}
	return m
}

// ceilSigned returns ⌈a/b⌉ for b > 0 and any sign of a.
func ceilSigned(a, b mcs.Ticks) mcs.Ticks {
	q := a / b
	if a%b > 0 {
		q++
	}
	return q
}

// ceilDiv returns ⌈a/b⌉ for b > 0, with ⌈a/b⌉ = 0 for a ≤ 0.
func ceilDiv(a, b mcs.Ticks) mcs.Ticks {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// Test is the partitioning-test adapter for AMC.
type Test struct {
	Opts Options
}

// Name implements the test interface. The priority policy is part of the
// name so that two AMC configurations never alias: journals and by-name
// registries key on the name, and Audsley versus deadline-monotonic
// genuinely disagree on some task sets.
func (t Test) Name() string {
	if t.Opts.Policy == DeadlineMonotonic {
		return t.Opts.Variant.String() + "(dm)"
	}
	return t.Opts.Variant.String()
}

// Schedulable implements the test interface.
func (t Test) Schedulable(ts mcs.TaskSet) bool { return Analyze(ts, t.Opts).Schedulable }
