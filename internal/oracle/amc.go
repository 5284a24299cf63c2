package oracle

import (
	"sort"

	"mcsched/internal/mcs"
)

// AMCOptions selects the AMC configuration: the HI-mode bound (AMC-max when
// Max is set, AMC-rtb otherwise) and the priority assignment
// (deadline-monotonic when DeadlineMonotonic is set, Audsley otherwise).
type AMCOptions struct {
	Max, DeadlineMonotonic bool
}

// AMCResult reports the verdict and the priority order that passed.
type AMCResult struct {
	Schedulable bool
	// Priority maps task ID → priority level (0 = highest). Only set when
	// Schedulable.
	Priority map[int]int
}

// AMC runs the stateless AMC test: Audsley's assignment with a fresh
// higher-priority set and cold fixed points per candidate, or the forced
// deadline-monotonic order checked task by task.
func AMC(ts mcs.TaskSet, o AMCOptions) AMCResult {
	if len(ts) == 0 {
		return AMCResult{Schedulable: true, Priority: map[int]int{}}
	}
	if o.DeadlineMonotonic {
		order := dmOrder(ts)
		if FeasibleOrder(ts, order, o.Max) {
			return AMCResult{Schedulable: true, Priority: orderToPriority(order)}
		}
		return AMCResult{}
	}
	return audsley(ts, o.Max)
}

// dmOrder returns task IDs ordered highest priority first by deadline,
// then HC first, then ID.
func dmOrder(ts mcs.TaskSet) []int {
	idx := make([]int, len(ts))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		x, y := ts[idx[a]], ts[idx[b]]
		if x.Deadline != y.Deadline {
			return x.Deadline < y.Deadline
		}
		if x.Crit != y.Crit {
			return x.Crit == mcs.HI
		}
		return x.ID < y.ID
	})
	order := make([]int, len(idx))
	for p, i := range idx {
		order[p] = ts[i].ID
	}
	return order
}

func orderToPriority(order []int) map[int]int {
	pr := make(map[int]int, len(order))
	for p, id := range order {
		pr[id] = p
	}
	return pr
}

// FeasibleOrder checks every task under the given priority order (task
// IDs, highest first) with AMC-max (max) or AMC-rtb.
func FeasibleOrder(ts mcs.TaskSet, order []int, max bool) bool {
	pos := make(map[int]int, len(order))
	for p, id := range order {
		pos[id] = p
	}
	for _, t := range ts {
		hp := hpSet(ts, func(u mcs.Task) bool { return pos[u.ID] < pos[t.ID] })
		if !taskFeasible(t, hp, max) {
			return false
		}
	}
	return true
}

// audsley assigns priorities bottom-up: for each priority level from lowest
// to highest, find some unassigned task that is schedulable at that level
// assuming all other unassigned tasks have higher priority.
func audsley(ts mcs.TaskSet, max bool) AMCResult {
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
			if taskFeasible(cand, hp, max) {
				priority[cand.ID] = level
				unassigned = append(unassigned[:i], unassigned[i+1:]...)
				placed = true
				break
			}
		}
		if !placed {
			return AMCResult{}
		}
	}
	return AMCResult{Schedulable: true, Priority: priority}
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
func taskFeasible(t mcs.Task, hp mcs.TaskSet, max bool) bool {
	rlo, ok := ResponseLO(t, hp)
	if !ok {
		return false
	}
	if !t.IsHC() {
		// LC tasks only need the LO-mode guarantee; they are dropped on a
		// mode switch.
		return true
	}
	if max {
		return amcMax(t, hp, rlo)
	}
	return amcRTB(t, hp, rlo)
}

// ResponseLO solves R = C^L + Σ_{hp} ⌈R/T_j⌉·C_j^L by fixed point from
// R = C^L, failing once R exceeds the deadline.
func ResponseLO(t mcs.Task, hp mcs.TaskSet) (mcs.Ticks, bool) {
	r := t.CLo()
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

// amcRTB solves R = C^H + Σ_{hpH} ⌈R/T⌉C^H + Σ_{hpL} ⌈R^LO/T⌉C^L from
// R = C^H.
func amcRTB(t mcs.Task, hp mcs.TaskSet, rlo mcs.Ticks) bool {
	// LC interference is frozen at the LO-mode response time.
	var lcPart mcs.Ticks
	for _, j := range hp {
		if !j.IsHC() {
			lcPart += ceilDiv(rlo, j.Period) * j.CLo()
		}
	}
	r := t.CHi()
	for {
		next := t.CHi() + lcPart
		for _, j := range hp {
			if j.IsHC() {
				next += ceilDiv(r, j.Period) * j.CHi()
			}
		}
		if next > t.Deadline {
			return false
		}
		if next == r {
			return true
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
// to ≥ 0. The task is feasible iff max_s R(s) over the LC release instants
// s < R^LO is within the deadline.
func amcMax(t mcs.Task, hp mcs.TaskSet, rlo mcs.Ticks) bool {
	for _, s := range SwitchCandidates(hp, rlo) {
		if !amcMaxAt(t, hp, s) {
			return false
		}
	}
	return true
}

// SwitchCandidates enumerates s = 0 and the LC higher-priority release
// instants k·T_j strictly below rlo, ascending.
func SwitchCandidates(hp mcs.TaskSet, rlo mcs.Ticks) []mcs.Ticks {
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

// hiJobs is M(k, s, t) before the ⌈t/T_k⌉ cap: jobs of τ_k released late
// enough to run at the HI budget in a busy window [0, t] with a switch at
// s, never negative.
func hiJobs(k mcs.Task, s, t mcs.Ticks) mcs.Ticks {
	num := t - s - (k.Period - k.Deadline)
	m := num / k.Period
	if num%k.Period > 0 {
		m++
	}
	m++
	if m < 0 {
		return 0
	}
	return m
}

// ceilDiv returns ⌈a/b⌉ for b > 0, with ⌈a/b⌉ = 0 for a ≤ 0.
func ceilDiv(a, b mcs.Ticks) mcs.Ticks {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
