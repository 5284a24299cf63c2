package mcs

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// TaskSet is an ordered collection of tasks. The order is significant for
// "no sort" partitioning strategies, which allocate in generation order.
type TaskSet []Task

// Clone returns a deep copy of the task set (tasks are values, so a slice
// copy suffices).
func (ts TaskSet) Clone() TaskSet {
	out := make(TaskSet, len(ts))
	copy(out, ts)
	return out
}

// Validate checks every task and set-level invariants (non-empty, unique
// IDs). The first error in task order is the one reported.
func (ts TaskSet) Validate() error {
	if len(ts) == 0 {
		return ErrEmptyTaskSet
	}
	dup := ts.firstDuplicate()
	for i, t := range ts {
		if err := t.Validate(); err != nil {
			return err
		}
		if i == dup {
			return fmt.Errorf("mcs: duplicate task ID %d", t.ID)
		}
	}
	return nil
}

// dupScanMax is the largest set firstDuplicate scans pairwise (~2000
// compares, no allocation); the paper's sets have at most 5m tasks.
const dupScanMax = 64

// firstDuplicate returns the smallest index whose ID an earlier task
// carries, or -1.
func (ts TaskSet) firstDuplicate() int {
	if len(ts) <= dupScanMax {
		for i, t := range ts {
			for _, u := range ts[:i] {
				if u.ID == t.ID {
					return i
				}
			}
		}
		return -1
	}
	// Indices sorted by (ID, index) put each repeat right after an earlier
	// task with its ID.
	idx := make([]int, len(ts))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		return cmp.Or(cmp.Compare(ts[a].ID, ts[b].ID), cmp.Compare(a, b))
	})
	first := -1
	for k := 1; k < len(idx); k++ {
		if i := idx[k]; ts[i].ID == ts[idx[k-1]].ID && (first < 0 || i < first) {
			first = i
		}
	}
	return first
}

// HC returns the high-criticality tasks, preserving order.
func (ts TaskSet) HC() TaskSet { return ts.filter(func(t Task) bool { return t.IsHC() }) }

// LC returns the low-criticality tasks, preserving order.
func (ts TaskSet) LC() TaskSet { return ts.filter(func(t Task) bool { return !t.IsHC() }) }

func (ts TaskSet) filter(keep func(Task) bool) TaskSet {
	n := 0
	for _, t := range ts {
		if keep(t) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make(TaskSet, 0, n)
	for _, t := range ts {
		if keep(t) {
			out = append(out, t)
		}
	}
	return out
}

// ULL returns Σ u^L over LC tasks (un-normalized).
func (ts TaskSet) ULL() float64 {
	var s float64
	for _, t := range ts {
		if !t.IsHC() {
			s += t.ULo
		}
	}
	return s
}

// ULH returns Σ u^L over HC tasks (un-normalized).
func (ts TaskSet) ULH() float64 {
	var s float64
	for _, t := range ts {
		if t.IsHC() {
			s += t.ULo
		}
	}
	return s
}

// UHH returns Σ u^H over HC tasks (un-normalized).
func (ts TaskSet) UHH() float64 {
	var s float64
	for _, t := range ts {
		if t.IsHC() {
			s += t.UHi
		}
	}
	return s
}

// UtilDiff returns UHH − ULH, the total utilization difference of the HC
// tasks in the set. This is the quantity the UDP strategies balance across
// cores.
func (ts TaskSet) UtilDiff() float64 { return ts.UHH() - ts.ULH() }

// TotalLo returns Σ u^L over all tasks (the LO-mode load).
func (ts TaskSet) TotalLo() float64 { return ts.ULL() + ts.ULH() }

// Bound returns the paper's total normalized utilization
// UB = max(ULH + ULL, UHH) for an m-processor platform.
func (ts TaskSet) Bound(m int) float64 {
	lo := ts.TotalLo()
	hi := ts.UHH()
	ub := lo
	if hi > ub {
		ub = hi
	}
	return ub / float64(m)
}

// Implicit reports whether every task has an implicit deadline.
func (ts TaskSet) Implicit() bool {
	for _, t := range ts {
		if !t.Implicit() {
			return false
		}
	}
	return true
}

// Hyperperiod returns the least common multiple of all periods, saturating
// at cap (useful because log-uniform periods in [10,500] can produce huge
// LCMs). A cap of 0 means no cap.
func (ts TaskSet) Hyperperiod(cap Ticks) Ticks {
	var h Ticks = 1
	for _, t := range ts {
		h = lcm(h, t.Period)
		if cap > 0 && h >= cap {
			return cap
		}
	}
	return h
}

func gcd(a, b Ticks) Ticks {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b Ticks) Ticks {
	if a == 0 || b == 0 {
		return 0
	}
	return a / gcd(a, b) * b
}

// SortByLevelUtil sorts the set in decreasing order of each task's
// utilization at its own criticality level (u^H for HC, u^L for LC), which
// is the paper's sorting rule. Ties break by ascending ID; IDs are unique in
// a valid set, so the order is total and does not depend on the sorting
// algorithm.
func (ts TaskSet) SortByLevelUtil() {
	slices.SortFunc(ts, func(a, b Task) int {
		if ua, ub := a.LevelUtil(), b.LevelUtil(); ua != ub {
			if ua > ub {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// String renders a short multi-line description of the set.
func (ts TaskSet) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TaskSet{n=%d, nHC=%d, ULL=%.3f, ULH=%.3f, UHH=%.3f}",
		len(ts), len(ts.HC()), ts.ULL(), ts.ULH(), ts.UHH())
	for _, t := range ts {
		b.WriteString("\n  ")
		b.WriteString(t.String())
	}
	return b.String()
}

// ByID returns the task with the given ID and whether it exists.
func (ts TaskSet) ByID(id int) (Task, bool) {
	for _, t := range ts {
		if t.ID == id {
			return t, true
		}
	}
	return Task{}, false
}
