package core

import (
	"slices"

	"mcsched/internal/mcs"
)

// strategy is a built-in partitioning strategy: the order tasks are offered
// in, and the online placer each criticality class is placed by. Every task
// goes to the first core, in its placer's order, that passes the test — the
// same probe-and-commit a live tenant runs on admit.
type strategy struct {
	name   string
	seq    sequence
	hc, lc Placer
}

// builtins are the named strategies, in Strategies order.
var builtins = []Strategy{
	// Algorithm 1: HC tasks worst-fit by UHH(φ_k) − ULH(φ_k), LC tasks
	// first-fit; CA-UDP offers every HC task before any LC task, CU-UDP
	// one merged order, so heavy LC tasks allocate early.
	strategy{"CA-UDP", caSorted, udpPlacer{}, udpPlacer{}},
	strategy{"CU-UDP", cuSorted, udpPlacer{}, udpPlacer{}},
	// Baruah et al. (RTS 2014): the only partitioned MC algorithm with a
	// proven speed-up bound (8/3, with EDF-VD).
	strategy{"CA(nosort)-F-F", caGenerated, firstFitPlacer{}, firstFitPlacer{}},
	// Rodriguez et al. (WMC 2013).
	strategy{"CA-F-F", caSorted, firstFitPlacer{}, firstFitPlacer{}},
	// The comparison point of the paper's Figure 1: HC tasks worst-fit by
	// UHH(φ_k) alone, ignoring the utilization difference.
	strategy{"CA-Wu-F", caSorted, fitByPlacer{measure: measureHi}, firstFitPlacer{}},
	// Gu et al. (DATE 2014); the paper pairs it with the EY test.
	strategy{"ECA-Wu-F", ecaSorted, fitByPlacer{measure: measureHi}, firstFitPlacer{}},
	// Classic first-fit and worst-fit decreasing: the best packer for
	// non-MC systems, and the one the paper's introduction cites as poor
	// for MC systems.
	strategy{"FFD", cuSorted, firstFitPlacer{}, firstFitPlacer{}},
	strategy{"WFD", cuSorted, fitByPlacer{measure: measureTotal}, fitByPlacer{measure: measureTotal}},
}

// sequence is the order a strategy offers tasks in. Every order but
// caGenerated sorts by decreasing level utilization, ties by ID, within
// its groups.
type sequence uint8

const (
	caSorted    sequence = iota // HC tasks, then LC tasks
	cuSorted                    // all tasks in one order
	caGenerated                 // HC tasks, then LC tasks, each in generation order
	ecaSorted                   // LC tasks heavier than every HC task's u^H, then HC tasks, then the other LC tasks
)

// of returns ts in the sequence's order, in one clone.
func (s sequence) of(ts mcs.TaskSet) mcs.TaskSet {
	seq := ts.Clone()
	if s != caGenerated {
		seq.SortByLevelUtil()
	}
	if s == cuSorted {
		return seq
	}
	var maxHC float64
	if s == ecaSorted {
		for _, t := range ts {
			if t.IsHC() && t.UHi > maxHC {
				maxHC = t.UHi
			}
		}
	}
	group := func(t mcs.Task) int {
		switch {
		case t.IsHC():
			return 1
		case s == ecaSorted && t.ULo > maxHC:
			return 0
		default:
			return 2
		}
	}
	// Stable, so each group keeps the order sorted (or generated) above.
	slices.SortStableFunc(seq, func(a, b mcs.Task) int { return group(a) - group(b) })
	return seq
}

// Name implements Strategy.
func (s strategy) Name() string { return s.name }

// Partition implements Strategy: validate, allocate on a fresh Assigner,
// hand its cores over.
func (s strategy) Partition(ts mcs.TaskSet, m int, test Test) (Partition, error) {
	if err := validateInput(ts, m, test); err != nil {
		return Partition{}, err
	}
	st := NewAssigner(m, test)
	if err := s.allocate(st, ts); err != nil {
		return Partition{}, err
	}
	return st.Partition(), nil
}

// allocate places every task of ts on st, or returns the FailError of the
// first task that fits nowhere.
func (s strategy) allocate(st *Assigner, ts mcs.TaskSet) error {
	for _, t := range s.seq.of(ts) {
		p := s.lc
		if t.IsHC() {
			p = s.hc
		}
		k := st.FirstFitting(t, p.Order(st, t))
		if k < 0 {
			return FailError{Task: t}
		}
		st.Commit(t, k)
	}
	return nil
}

// CAUDP returns the criticality-aware UDP strategy of Algorithm 1.
func CAUDP() Strategy { return builtins[0] }

// CUUDP returns the criticality-unaware UDP strategy.
func CUUDP() Strategy { return builtins[1] }

// Strategies returns every named strategy in a stable order: the paper's
// two proposed strategies first, then the published baselines, then the
// reference strategies.
func Strategies() []Strategy { return slices.Clone(builtins) }

// StrategyByName finds a strategy by its Name; ok=false when unknown.
func StrategyByName(name string) (Strategy, bool) {
	for _, s := range builtins {
		if s.Name() == name {
			return s, true
		}
	}
	return nil, false
}
