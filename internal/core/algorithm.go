package core

import (
	"fmt"
	"sync"

	"mcsched/internal/mcs"
)

// Algorithm is a complete partitioned MC scheduling algorithm: a
// partitioning strategy paired with the uniprocessor schedulability test it
// consults, e.g. CU-UDP with EDF-VD ("CU-UDP-EDF-VD" in the paper's
// notation).
type Algorithm struct {
	Strategy Strategy
	Test     Test
}

// Name returns the paper-style name "<strategy>-<test>".
func (a Algorithm) Name() string {
	return fmt.Sprintf("%s-%s", a.Strategy.Name(), a.Test.Name())
}

// Partition runs the strategy on m processors.
func (a Algorithm) Partition(ts mcs.TaskSet, m int) (Partition, error) {
	return a.Strategy.Partition(ts, m, a.Test)
}

// scratchAssigners recycles the Assigners Schedulable runs on.
var scratchAssigners = sync.Pool{New: func() any { return new(Assigner) }}

// Schedulable reports whether the task set can be partitioned on m
// processors. It keeps no Partition, so the built-in strategies run on a
// recycled Assigner (buffers, and analyzers when the test is the same as
// last time) — the verdict is the one Partition gives.
func (a Algorithm) Schedulable(ts mcs.TaskSet, m int) bool {
	s, ok := a.Strategy.(builtin)
	if !ok {
		_, err := a.Partition(ts, m)
		return err == nil
	}
	if validateInput(ts, m, a.Test) != nil {
		return false
	}
	st := scratchAssigners.Get().(*Assigner)
	defer scratchAssigners.Put(st)
	st.Reset(m, a.Test)
	return s.allocate(st, ts) == nil
}

// Verify re-checks a finished partition: every task placed exactly once and
// every core passes the test. Strategies guarantee this by construction;
// Verify exists for integration tests and for partitions loaded from
// outside.
func (a Algorithm) Verify(ts mcs.TaskSet, p Partition) error {
	placed := make(map[int]int)
	for k, coreSet := range p.Cores {
		for _, t := range coreSet {
			if prev, dup := placed[t.ID]; dup {
				return fmt.Errorf("core: task %d on cores %d and %d", t.ID, prev, k)
			}
			placed[t.ID] = k
		}
		if !a.Test.Schedulable(coreSet) {
			return fmt.Errorf("core: core %d fails %s", k, a.Test.Name())
		}
	}
	for _, t := range ts {
		if _, ok := placed[t.ID]; !ok {
			return fmt.Errorf("core: task %d not placed", t.ID)
		}
	}
	if len(placed) != len(ts) {
		return fmt.Errorf("core: %d placed tasks vs %d input tasks", len(placed), len(ts))
	}
	return nil
}
