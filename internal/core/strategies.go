package core

import (
	"mcsched/internal/mcs"
)

// UDP is the paper's Utilization Difference based Partitioning strategy.
// HC tasks are allocated worst-fit by the per-core utilization difference
// UHH(φ_k) − ULH(φ_k) (Algorithm 1); LC tasks first-fit. The
// CriticalityAware flag selects CA-UDP (all HC tasks before any LC task,
// each class sorted by its own utilization) versus CU-UDP (one merged
// ordering by level utilization, so heavy LC tasks allocate early).
type UDP struct {
	// CriticalityAware selects CA-UDP; false is CU-UDP.
	CriticalityAware bool
}

// CAUDP returns the criticality-aware UDP strategy of Algorithm 1.
func CAUDP() Strategy { return UDP{CriticalityAware: true} }

// CUUDP returns the criticality-unaware UDP strategy.
func CUUDP() Strategy { return UDP{} }

// Name implements Strategy.
func (u UDP) Name() string {
	if u.CriticalityAware {
		return "CA-UDP"
	}
	return "CU-UDP"
}

// Partition implements Strategy.
func (u UDP) Partition(ts mcs.TaskSet, m int, test Test) (Partition, error) {
	return partition(u, ts, m, test)
}

func (u UDP) allocate(st *Assigner, ts mcs.TaskSet) error {
	var seq mcs.TaskSet
	if u.CriticalityAware {
		seq = append(sortedByLevelUtil(ts.HC()), sortedByLevelUtil(ts.LC())...)
	} else {
		seq = sortedByLevelUtil(ts)
	}

	for _, task := range seq {
		var ok bool
		if task.IsHC() {
			ok = st.WorstFitBy(task, st.UtilDiff)
		} else {
			ok = st.FirstFit(task)
		}
		if !ok {
			return FailError{Task: task}
		}
	}
	return nil
}

// CANoSortFF is the baseline CA(nosort)-F-F of Baruah et al. (RTS 2014):
// criticality-aware allocation in generation order (no utilization sort),
// first-fit for both classes. With the EDF-VD test it is the only
// partitioned MC algorithm with a proven speed-up bound (8/3).
type CANoSortFF struct{}

// Name implements Strategy.
func (CANoSortFF) Name() string { return "CA(nosort)-F-F" }

// Partition implements Strategy.
func (s CANoSortFF) Partition(ts mcs.TaskSet, m int, test Test) (Partition, error) {
	return partition(s, ts, m, test)
}

func (s CANoSortFF) allocate(st *Assigner, ts mcs.TaskSet) error {
	for _, task := range append(ts.HC(), ts.LC()...) {
		if !st.FirstFit(task) {
			return FailError{Task: task}
		}
	}
	return nil
}

// CAFF is the baseline CA-F-F of Rodriguez et al. (WMC 2013):
// criticality-aware, each class sorted by decreasing level utilization,
// first-fit for both classes.
type CAFF struct{}

// Name implements Strategy.
func (CAFF) Name() string { return "CA-F-F" }

// Partition implements Strategy.
func (s CAFF) Partition(ts mcs.TaskSet, m int, test Test) (Partition, error) {
	return partition(s, ts, m, test)
}

func (s CAFF) allocate(st *Assigner, ts mcs.TaskSet) error {
	seq := append(sortedByLevelUtil(ts.HC()), sortedByLevelUtil(ts.LC())...)
	for _, task := range seq {
		if !st.FirstFit(task) {
			return FailError{Task: task}
		}
	}
	return nil
}

// CAWuF is the criticality-aware worst-fit-by-HC-utilization strategy used
// as the comparison point in the paper's Figure 1: HC tasks worst-fit by
// UHH(φ_k) alone (ignoring the utilization difference), LC tasks first-fit;
// both classes sorted by decreasing level utilization.
type CAWuF struct{}

// Name implements Strategy.
func (CAWuF) Name() string { return "CA-Wu-F" }

// Partition implements Strategy.
func (s CAWuF) Partition(ts mcs.TaskSet, m int, test Test) (Partition, error) {
	return partition(s, ts, m, test)
}

func (s CAWuF) allocate(st *Assigner, ts mcs.TaskSet) error {
	for _, task := range sortedByLevelUtil(ts.HC()) {
		if !st.WorstFitBy(task, func(k int) float64 { return st.UHH(k) }) {
			return FailError{Task: task}
		}
	}
	for _, task := range sortedByLevelUtil(ts.LC()) {
		if !st.FirstFit(task) {
			return FailError{Task: task}
		}
	}
	return nil
}

// ECAWuF is the enhanced criticality-aware strategy of Gu et al.
// (DATE 2014): LC tasks heavier than every HC task are allocated before the
// HC tasks (first-fit, decreasing utilization); HC tasks are then worst-fit
// by UHH(φ_k); the remaining LC tasks are first-fit, decreasing. The paper
// pairs this strategy with the EY test (ECA-Wu-F-EY).
type ECAWuF struct{}

// Name implements Strategy.
func (ECAWuF) Name() string { return "ECA-Wu-F" }

// Partition implements Strategy.
func (s ECAWuF) Partition(ts mcs.TaskSet, m int, test Test) (Partition, error) {
	return partition(s, ts, m, test)
}

func (s ECAWuF) allocate(st *Assigner, ts mcs.TaskSet) error {
	hc := sortedByLevelUtil(ts.HC())
	lc := sortedByLevelUtil(ts.LC())
	var maxHC float64
	for _, t := range hc {
		if t.UHi > maxHC {
			maxHC = t.UHi
		}
	}
	// Heavy LC tasks: utilization strictly above every HC task's u^H.
	split := 0
	for split < len(lc) && lc[split].ULo > maxHC {
		split++
	}
	heavy, rest := lc[:split], lc[split:]

	for _, task := range heavy {
		if !st.FirstFit(task) {
			return FailError{Task: task}
		}
	}
	for _, task := range hc {
		if !st.WorstFitBy(task, func(k int) float64 { return st.UHH(k) }) {
			return FailError{Task: task}
		}
	}
	for _, task := range rest {
		if !st.FirstFit(task) {
			return FailError{Task: task}
		}
	}
	return nil
}

// FFD is the classic criticality-unaware first-fit decreasing strategy —
// the best performer for conventional (non-MC) systems, included as a
// reference point.
type FFD struct{}

// Name implements Strategy.
func (FFD) Name() string { return "FFD" }

// Partition implements Strategy.
func (s FFD) Partition(ts mcs.TaskSet, m int, test Test) (Partition, error) {
	return partition(s, ts, m, test)
}

func (s FFD) allocate(st *Assigner, ts mcs.TaskSet) error {
	for _, task := range sortedByLevelUtil(ts) {
		if !st.FirstFit(task) {
			return FailError{Task: task}
		}
	}
	return nil
}

// WFD is criticality-unaware worst-fit decreasing by level utilization —
// the strategy the paper's introduction cites as known-poor for MC systems;
// included for ablations.
type WFD struct{}

// Name implements Strategy.
func (WFD) Name() string { return "WFD" }

// Partition implements Strategy.
func (s WFD) Partition(ts mcs.TaskSet, m int, test Test) (Partition, error) {
	return partition(s, ts, m, test)
}

func (s WFD) allocate(st *Assigner, ts mcs.TaskSet) error {
	load := make([]float64, st.NumCores())
	for _, task := range sortedByLevelUtil(ts) {
		if !st.WorstFitBy(task, func(i int) float64 { return load[i] }) {
			return FailError{Task: task}
		}
		load[st.LastCore()] += task.LevelUtil()
	}
	return nil
}

// Strategies returns every named strategy in a stable order: the paper's
// two proposed strategies first, then the published baselines, then the
// reference strategies.
func Strategies() []Strategy {
	return []Strategy{
		CAUDP(),
		CUUDP(),
		CANoSortFF{},
		CAFF{},
		CAWuF{},
		ECAWuF{},
		FFD{},
		WFD{},
	}
}

// StrategyByName finds a strategy by its Name; ok=false when unknown.
func StrategyByName(name string) (Strategy, bool) {
	for _, s := range Strategies() {
		if s.Name() == name {
			return s, true
		}
	}
	return nil, false
}
