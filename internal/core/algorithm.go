package core

import (
	"fmt"

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

// Schedulable reports whether the task set can be partitioned on m
// processors: Allocate on a fresh Assigner. Callers that judge many sets
// keep one Assigner per algorithm and call its Allocate instead.
func (a Algorithm) Schedulable(ts mcs.TaskSet, m int) bool {
	return m > 0 && NewAssigner(m, a.Test).Allocate(a.Strategy, ts)
}

// Verify re-checks a finished partition: every task placed exactly once and
// every core passes the test (VerifyCores). Strategies guarantee this by
// construction; Verify exists for integration tests and for partitions
// loaded from outside.
func (a Algorithm) Verify(ts mcs.TaskSet, p Partition) error {
	placed := make(map[int]int)
	for k, coreSet := range p.Cores {
		for _, t := range coreSet {
			if prev, dup := placed[t.ID]; dup {
				return fmt.Errorf("core: task %d on cores %d and %d", t.ID, prev, k)
			}
			placed[t.ID] = k
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
	return VerifyCores(p, a.Test)
}

// VerifyCores checks that every non-empty core of p passes a cold
// test.Schedulable. It does not look for a task on two cores: Verify does,
// and a decoded snapshot has none (mcsio refuses one).
func VerifyCores(p Partition, test Test) error {
	for k, coreSet := range p.Cores {
		if len(coreSet) > 0 && !test.Schedulable(coreSet) {
			return fmt.Errorf("core: core %d fails %s", k, test.Name())
		}
	}
	return nil
}
