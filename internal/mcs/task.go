// Package mcs defines the dual-criticality sporadic task model used
// throughout mcsched: tasks, task sets, utilizations and the validation
// rules of the Vestal model restricted to two criticality levels, as in
// Ramanathan & Easwaran (DATE 2017).
//
// Time is modelled with integer ticks (type Ticks). Analyses that operate on
// demand-bound functions or response times use the integer parameters
// (Period, Deadline, WCET) exactly. Utilization-based analyses use the
// float64 utilization fields, which a task-set generator may set to the
// exact values it drew before rounding executions up to integers; for tasks
// built by hand the constructors derive them from the integer parameters.
package mcs

import (
	"errors"
	"fmt"
)

// Ticks is the integer time unit of the model. All task parameters
// (periods, deadlines, execution budgets) and all simulator timestamps are
// expressed in ticks. The unit is arbitrary; the paper's generator draws
// periods in [10, 500].
type Ticks int64

// Level is a criticality level of a dual-criticality system.
type Level uint8

const (
	// LO is the low-criticality level (LC tasks, and the LO execution
	// budget of HC tasks).
	LO Level = iota
	// HI is the high-criticality level.
	HI
	numLevels
)

var levelNames = [numLevels]string{LO: "LO", HI: "HI"}

// String returns "LO" or "HI".
func (l Level) String() string {
	if l < numLevels {
		return levelNames[l]
	}
	return fmt.Sprintf("Level(%d)", uint8(l))
}

// MarshalText encodes the level as its String name and refuses any other
// value.
func (l Level) MarshalText() ([]byte, error) {
	if l < numLevels {
		return []byte(levelNames[l]), nil
	}
	return nil, fmt.Errorf("mcs: unknown criticality level %d", uint8(l))
}

// UnmarshalText decodes "LO" or "HI" and refuses any other name.
func (l *Level) UnmarshalText(b []byte) error {
	for lv, name := range levelNames {
		if string(b) == name {
			*l = Level(lv)
			return nil
		}
	}
	return fmt.Errorf("mcs: unknown criticality level %q", b)
}

// Task is a dual-criticality sporadic task
// τ_i = (T_i, χ_i, C_i^L, C_i^H, D_i).
//
// For an LC task, WCET[LO] == WCET[HI] == C_i and only the LO budget is
// meaningful; the constructors enforce this. For an HC task,
// WCET[LO] ≤ WCET[HI]. Deadlines are constrained: D_i ≤ T_i.
type Task struct {
	// ID identifies the task within its task set. Partitioning and
	// simulation preserve IDs, so results can be traced back.
	ID int
	// Name is an optional human-readable label.
	Name string
	// Crit is the task's criticality level (LO ⇒ LC task, HI ⇒ HC task).
	Crit Level
	// Period is the minimum release separation T_i > 0.
	Period Ticks
	// Deadline is the relative deadline D_i, with 0 < D_i ≤ T_i.
	Deadline Ticks
	// WCET holds the execution budgets indexed by Level:
	// WCET[LO] = C_i^L, WCET[HI] = C_i^H.
	WCET [numLevels]Ticks
	// ULo and UHi are the LO- and HI-mode utilizations used by
	// utilization-based analyses and by the partitioning strategies.
	// Generators set them to the exact drawn values; constructors derive
	// them as WCET/Period. For LC tasks UHi == ULo.
	ULo, UHi float64
}

// NewLC returns a low-criticality task with execution budget c, period t and
// implicit deadline. Utilizations are derived from the integer parameters.
func NewLC(id int, c, t Ticks) Task {
	return NewLCConstrained(id, c, t, t)
}

// NewLCConstrained returns a low-criticality task with relative deadline d.
func NewLCConstrained(id int, c, t, d Ticks) Task {
	u := ratio(c, t)
	return Task{
		ID:       id,
		Crit:     LO,
		Period:   t,
		Deadline: d,
		WCET:     [numLevels]Ticks{LO: c, HI: c},
		ULo:      u,
		UHi:      u,
	}
}

// NewHC returns a high-criticality task with LO budget cl, HI budget ch,
// period t and implicit deadline.
func NewHC(id int, cl, ch, t Ticks) Task {
	return NewHCConstrained(id, cl, ch, t, t)
}

// NewHCConstrained returns a high-criticality task with relative deadline d.
func NewHCConstrained(id int, cl, ch, t, d Ticks) Task {
	return Task{
		ID:       id,
		Crit:     HI,
		Period:   t,
		Deadline: d,
		WCET:     [numLevels]Ticks{LO: cl, HI: ch},
		ULo:      ratio(cl, t),
		UHi:      ratio(ch, t),
	}
}

func ratio(num, den Ticks) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// CLo returns C_i^L, the LO-mode execution budget.
func (t Task) CLo() Ticks { return t.WCET[LO] }

// CHi returns C_i^H, the HI-mode execution budget. For LC tasks this equals
// the LO budget.
func (t Task) CHi() Ticks { return t.WCET[HI] }

// IsHC reports whether the task is high-criticality.
func (t Task) IsHC() bool { return t.Crit == HI }

// Implicit reports whether the task has an implicit deadline (D == T).
func (t Task) Implicit() bool { return t.Deadline == t.Period }

// UtilAt returns the utilization of the task at the given level: ULo for LO
// and UHi for HI. For an LC task both are equal.
func (t Task) UtilAt(l Level) float64 {
	if l == HI {
		return t.UHi
	}
	return t.ULo
}

// LevelUtil returns the task's utilization "at its own criticality level" as
// used by the paper's sorting rules: u^H for HC tasks and u^L for LC tasks.
func (t Task) LevelUtil() float64 {
	if t.IsHC() {
		return t.UHi
	}
	return t.ULo
}

// UtilDiff returns u^H − u^L, the per-task utilization difference. It is
// zero for LC tasks.
func (t Task) UtilDiff() float64 { return t.UHi - t.ULo }

// Validate checks the structural invariants of the task. It returns a
// descriptive error for the first violated invariant, or nil.
func (t Task) Validate() error {
	switch {
	case t.Period <= 0:
		return fmt.Errorf("task %d: period %d must be positive", t.ID, t.Period)
	case t.Deadline <= 0:
		return fmt.Errorf("task %d: deadline %d must be positive", t.ID, t.Deadline)
	case t.Deadline > t.Period:
		return fmt.Errorf("task %d: deadline %d exceeds period %d (only constrained deadlines are modelled)", t.ID, t.Deadline, t.Period)
	case t.WCET[LO] <= 0:
		return fmt.Errorf("task %d: C^L %d must be positive", t.ID, t.WCET[LO])
	case t.WCET[HI] < t.WCET[LO]:
		return fmt.Errorf("task %d: C^H %d smaller than C^L %d", t.ID, t.WCET[HI], t.WCET[LO])
	case t.Crit == LO && t.WCET[HI] != t.WCET[LO]:
		return fmt.Errorf("task %d: LC task with distinct budgets C^L=%d C^H=%d", t.ID, t.WCET[LO], t.WCET[HI])
	case t.WCET[HI] > t.Deadline:
		return fmt.Errorf("task %d: C^H %d exceeds deadline %d (trivially infeasible)", t.ID, t.WCET[HI], t.Deadline)
	case t.Crit != LO && t.Crit != HI:
		return fmt.Errorf("task %d: invalid criticality %d", t.ID, t.Crit)
	case t.ULo < 0 || t.UHi < 0:
		return fmt.Errorf("task %d: negative utilization", t.ID)
	case t.UHi < t.ULo:
		return fmt.Errorf("task %d: u^H %.6f smaller than u^L %.6f", t.ID, t.UHi, t.ULo)
	}
	return nil
}

// String formats the task compactly, e.g.
// "τ3[HI] T=100 D=80 C=(10,25) u=(0.100,0.250)".
func (t Task) String() string {
	return fmt.Sprintf("τ%d[%s] T=%d D=%d C=(%d,%d) u=(%.3f,%.3f)",
		t.ID, t.Crit, t.Period, t.Deadline, t.WCET[LO], t.WCET[HI], t.ULo, t.UHi)
}

// ErrEmptyTaskSet is returned when validating an empty task set.
var ErrEmptyTaskSet = errors.New("mcs: empty task set")
