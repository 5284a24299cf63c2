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

import "mcsched/internal/mcs"

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

// Analyze runs the AMC schedulability test on a uniprocessor task set: the
// analyzer's cold exact run on a fresh Analyzer, with the priority order
// it certified read back as a map.
func Analyze(ts mcs.TaskSet, opts Options) Result {
	if len(ts) == 0 {
		return Result{Schedulable: true, Priority: map[int]int{}}
	}
	a := Analyzer{opts: opts}
	if !a.runFull(ts, false) {
		return Result{}
	}
	pr := make(map[int]int, len(a.pos))
	for p, i := range a.pos {
		pr[a.mem[i].ID] = p
	}
	return Result{Schedulable: true, Priority: pr}
}

// DeadlineMonotonicPriorities assigns fixed priorities (task ID → level,
// 0 = highest) in deadline-monotonic order: increasing relative deadline,
// ties HC first, then by ID. It is the order the DeadlineMonotonic policy
// analyzes, and the fallback runtime of a fixed-priority core without a
// certified order.
func DeadlineMonotonicPriorities(ts mcs.TaskSet) map[int]int {
	byPrio := append(mcs.TaskSet(nil), ts...)
	insertionSort(byPrio, dmLess)
	pr := make(map[int]int, len(byPrio))
	for p, t := range byPrio {
		pr[t.ID] = p
	}
	return pr
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

// responseLOSeed solves R = C^L + Σ_{hp} ⌈R/T_j⌉·C_j^L by fixed point
// from R = seed, failing once R exceeds the deadline. The recurrence is
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

// amcRTBSeed solves the AMC-rtb recurrence
// R = C^H + Σ_{hpH} ⌈R/T⌉C^H + Σ_{hpL} ⌈R^LO/T⌉C^L from R = seed,
// returning the converged response time for use as a future seed. Seed
// validity follows the same monotone-fixed-point argument as
// responseLOSeed: the recurrence grows
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

// amcMaxAt decides the AMC-max recurrence at one candidate switch instant
// s: the response time R(s) solves
//
//	R(s) = C^H + Σ_{j∈hpL} (⌊s/T_j⌋+1)·C_j^L
//	     + Σ_{k∈hpH} [ M(k,s,R)·C_k^H + (⌈R/T_k⌉ − M(k,s,R))·C_k^L ]
//
// with M(k,s,t) = min( ⌈(t − s − (T_k − D_k))/T_k⌉ + 1, ⌈t/T_k⌉ ), clamped
// to ≥ 0 — the number of τ_k jobs that can execute at the HI budget after
// the switch — and must stay within the deadline. A task passes AMC-max
// when it does so at every candidate (Analyzer.amcMaxScratch).
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

// Sustainable declares that the test accepts every subset of a set it
// accepts: removing a task only shrinks the others' interference, the
// priority order restricted to the subset still passes, and Audsley's
// assignment finds an order whenever one exists.
func (Test) Sustainable() bool { return true }
