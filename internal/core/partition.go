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
// — are routed through a Prober. The default prober scans serially; wrapping
// a strategy with Parallelize (or calling Assigner.SetProber with an
// internal/analysis/parallel.Engine) fans the probes of each placement
// across worker goroutines. Probers are contractually order-preserving, so
// serial and parallel runs produce bit-identical partitions.
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

// Prober decides ordered candidate scans for the Assigner: First returns
// the smallest i in [0, n) for which pred(i) holds, or -1 — exactly the
// semantics of a serial loop. Parallel implementations (such as
// internal/analysis/parallel.Engine) may evaluate predicates speculatively
// across goroutines; pred must then be safe for concurrent invocation, which
// the Assigner's probes and every test in internal/analysis/... guarantee.
// Any implementation must return the serial answer, so swapping probers
// never changes placement results, only wall-clock time.
type Prober interface {
	First(n int, pred func(i int) bool) int
}

// ChunkedProber is a Prober that additionally supports width-controlled
// scans (internal/analysis/parallel.Engine implements it). FirstWidth must
// return the same index as First — the serial answer — for every width;
// width only shifts the trade-off between per-chunk fan-out overhead and
// speculative evaluations past the winning index. The Assigner detects the
// capability once at SetProber and then steers the width per test family
// from observed probe cost, so swapping a plain Prober for a chunked one
// never changes placements, only wall-clock time.
type ChunkedProber interface {
	Prober
	FirstWidth(n, width int, pred func(i int) bool) int
	Workers() int
}

// serialProber is the default inline scan.
type serialProber struct{}

func (serialProber) First(n int, pred func(i int) bool) int {
	for i := 0; i < n; i++ {
		if pred(i) {
			return i
		}
	}
	return -1
}

// Par is the optional parallel-probing configuration embedded by every
// strategy struct. Its zero value scans candidate cores serially; setting
// Prober (see Parallelize) fans the candidate probes of each placement
// across the prober's workers.
type Par struct {
	// Prober, when non-nil, decides candidate-core scans.
	Prober Prober
}

// configure installs the prober, if any, on a freshly built assigner.
func (p Par) configure(a *Assigner) {
	if p.Prober != nil {
		a.SetProber(p.Prober)
	}
}

// Parallelize returns a copy of the strategy whose candidate-core probes are
// decided by p — for the known strategy types this fans every placement's
// core scan across p's workers while preserving the worst-fit/first-fit
// order, so the resulting partitions are bit-identical to the serial run.
// Strategy implementations from outside this package are returned unchanged.
func Parallelize(s Strategy, p Prober) Strategy {
	switch t := s.(type) {
	case UDP:
		t.Prober = p
		return t
	case CANoSortFF:
		t.Prober = p
		return t
	case CAFF:
		t.Prober = p
		return t
	case CAWuF:
		t.Prober = p
		return t
	case ECAWuF:
		t.Prober = p
		return t
	case FFD:
		t.Prober = p
		return t
	case WFD:
		t.Prober = p
		return t
	}
	return s
}

// Strategy is a partitioning strategy.
type Strategy interface {
	// Name identifies the strategy, e.g. "CU-UDP".
	Name() string
	// Partition assigns every task of ts to one of m processors such that
	// each processor passes test. It returns a FailError wrapping
	// ErrUnpartitionable when some task fits nowhere.
	Partition(ts mcs.TaskSet, m int, test Test) (Partition, error)
}

// builtin is what this package's strategies are underneath Strategy: an
// allocation sequence over an Assigner somebody else prepared. The split
// lets one preamble serve all of them (partition) and lets
// Algorithm.Schedulable, which keeps no Partition, run the same sequence on
// a recycled Assigner.
type builtin interface {
	// configure installs the strategy's prober (promoted from Par).
	configure(*Assigner)
	// allocate places every task of ts on st, or returns the FailError of
	// the first task that fits nowhere.
	allocate(st *Assigner, ts mcs.TaskSet) error
}

// partition is the built-in strategies' Partition: validate, allocate on a
// fresh Assigner, hand its cores over.
func partition(s builtin, ts mcs.TaskSet, m int, test Test) (Partition, error) {
	if err := validateInput(ts, m); err != nil {
		return Partition{}, err
	}
	st := NewAssigner(m, test)
	s.configure(st)
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

// validateInput rejects degenerate partitioning requests.
func validateInput(ts mcs.TaskSet, m int) error {
	if m <= 0 {
		return fmt.Errorf("core: m=%d processors", m)
	}
	if len(ts) == 0 {
		return nil
	}
	return ts.Validate()
}
