// Package core implements the paper's contribution: partitioned scheduling
// of dual-criticality task systems, in particular the Utilization
// Difference based Partitioning (UDP) strategies CA-UDP and CU-UDP
// (Ramanathan & Easwaran, DATE 2017, Section III) together with the
// published baselines they are evaluated against (Section IV).
//
// A Strategy assigns tasks to processors, consulting a uniprocessor
// schedulability Test before every assignment; a failed test on every
// processor fails the partitioning. A Strategy combined with a Test forms
// an Algorithm — a complete partitioned MC scheduling algorithm such as
// "CU-UDP-EDF-VD".
//
// Candidate-core scans — the inner loop of every strategy, and where nearly
// all partitioning time is spent on the iterative tests (AMC in particular)
// — are a serial loop over the Assigner's Fits: build the candidate set of
// one core, hand it to that core's analyzer (internal/analysis/kernel),
// stop at the first core that accepts. A Test that implements Memoizer is
// called around each analysis; nothing else sits between a placement and
// its verdict.
package core

import (
	"errors"
	"fmt"

	"mcsched/internal/mcs"
)

// Test is a uniprocessor MC schedulability test consulted during
// partitioning. Implementations live in internal/analysis/*.
type Test interface {
	// Name identifies the test in algorithm names, e.g. "EDF-VD".
	Name() string
	// Schedulable decides the given uniprocessor task set.
	Schedulable(mcs.TaskSet) bool
}

// Partition is the result of a successful partitioning: one task set per
// processor. Every input task appears on exactly one core and every core
// passes the algorithm's uniprocessor test.
type Partition struct {
	Cores []mcs.TaskSet
}

// Clone deep-copies the partition.
func (p Partition) Clone() Partition {
	out := Partition{Cores: make([]mcs.TaskSet, len(p.Cores))}
	for i, c := range p.Cores {
		out.Cores[i] = c.Clone()
	}
	return out
}

// NumTasks returns the total number of assigned tasks.
func (p Partition) NumTasks() int {
	n := 0
	for _, c := range p.Cores {
		n += len(c)
	}
	return n
}

// CoreOf returns the core index holding the task with the given ID, or -1.
func (p Partition) CoreOf(id int) int {
	for k, c := range p.Cores {
		if _, ok := c.ByID(id); ok {
			return k
		}
	}
	return -1
}

// MaxUtilDiff returns max_k (UHH(φ_k) − ULH(φ_k)) — the quantity the UDP
// strategies minimize the spread of.
func (p Partition) MaxUtilDiff() float64 {
	var worst float64
	for _, c := range p.Cores {
		if d := c.UtilDiff(); d > worst {
			worst = d
		}
	}
	return worst
}

// ErrUnpartitionable is returned (wrapped) when a task fits on no core.
var ErrUnpartitionable = errors.New("core: task fits on no processor")

// FailError carries the task that could not be placed.
type FailError struct {
	Task mcs.Task
}

func (e FailError) Error() string {
	return fmt.Sprintf("core: task fits on no processor: %v", e.Task)
}

// Unwrap makes errors.Is(err, ErrUnpartitionable) work.
func (e FailError) Unwrap() error { return ErrUnpartitionable }

// Strategy is a partitioning strategy.
type Strategy interface {
	// Name identifies the strategy, e.g. "CU-UDP".
	Name() string
	// Partition assigns every task of ts to one of m processors such that
	// each processor passes test. It returns a FailError wrapping
	// ErrUnpartitionable when some task fits nowhere, and an
	// UncoveredError, before placing anything, when test does not cover
	// some task's deadline model.
	Partition(ts mcs.TaskSet, m int, test Test) (Partition, error)
}

// builtin is what this package's strategies are underneath Strategy: an
// allocation sequence over an Assigner somebody else prepared. The split
// lets one preamble serve all of them (partition) and lets
// Algorithm.Schedulable, which keeps no Partition, run the same sequence on
// a recycled Assigner.
type builtin interface {
	// allocate places every task of ts on st, or returns the FailError of
	// the first task that fits nowhere.
	allocate(st *Assigner, ts mcs.TaskSet) error
}

// partition is the built-in strategies' Partition: validate, allocate on a
// fresh Assigner, hand its cores over.
func partition(s builtin, ts mcs.TaskSet, m int, test Test) (Partition, error) {
	if err := validateInput(ts, m, test); err != nil {
		return Partition{}, err
	}
	st := NewAssigner(m, test)
	if err := s.allocate(st, ts); err != nil {
		return Partition{}, err
	}
	return st.Partition(), nil
}

// sortedByLevelUtil returns a copy sorted in decreasing order of each
// task's utilization at its own criticality level.
func sortedByLevelUtil(ts mcs.TaskSet) mcs.TaskSet {
	cp := ts.Clone()
	cp.SortByLevelUtil()
	return cp
}

// validateInput rejects degenerate partitioning requests and tasks whose
// deadline model test does not cover.
func validateInput(ts mcs.TaskSet, m int, test Test) error {
	if m <= 0 {
		return fmt.Errorf("core: m=%d processors", m)
	}
	if len(ts) == 0 {
		return nil
	}
	if err := ts.Validate(); err != nil {
		return err
	}
	for _, t := range ts {
		if !Covers(test, t) {
			return UncoveredError{Test: test.Name(), Task: t}
		}
	}
	return nil
}
