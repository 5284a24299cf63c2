// Package sim is a discrete-event runtime simulator for partitioned
// dual-criticality scheduling. It executes the two runtime algorithms the
// analyses in internal/analysis certify — virtual-deadline EDF (EDF-VD and
// the per-task-deadline EY/ECDF runtimes) and fixed-priority AMC — on
// integer-tick time, with per-core mode switches, LC-job dropping and
// deadline-miss detection.
//
// The simulator is the validation substrate of this reproduction (see
// ARCHITECTURE.md, "The runtime simulation layer"): a task set accepted by a schedulability test must never miss
// a required deadline in simulation, for any execution scenario. It also
// demonstrates the partitioned-isolation property of Section II of the
// paper: a mode switch on one core leaves every other core untouched.
package sim

import (
	"fmt"
	"math"

	"mcsched/internal/mcs"
)

// PolicyKind selects the runtime scheduling algorithm of a core.
type PolicyKind int

const (
	// VirtualDeadlineEDF is preemptive EDF on virtual deadlines in LO mode
	// (per-task relative deadlines from CoreRuntime.VD), switching to real
	// deadlines and dropping LC jobs on a mode switch. This is the runtime
	// of EDF-VD, EY and ECDF.
	VirtualDeadlineEDF PolicyKind = iota
	// FixedPriority is preemptive fixed-priority scheduling per
	// CoreRuntime.Priorities (0 = highest), dropping LC jobs on a mode switch.
	// This is the AMC runtime.
	FixedPriority
)

// String names the policy.
func (p PolicyKind) String() string {
	if p == FixedPriority {
		return "fixed-priority"
	}
	return "virtual-deadline-EDF"
}

// Config parameterizes a core simulation: the spec says what runs (horizon,
// scenario kind and its parameters, mode recovery), the core runtime how
// the core dispatches.
type Config struct {
	Spec
	CoreRuntime
	// StopOnMiss aborts the core simulation at the first required-deadline
	// miss (the first-miss witness rebuild uses this).
	StopOnMiss bool
	// Tracer, when non-nil, receives every engine event (releases,
	// execution chunks, completions, mode switches, drops, misses). Use a
	// *Recorder to collect them and render Gantt timelines.
	Tracer Tracer
}

// CoreRuntime binds one core's runtime algorithm and its certified
// parameters: the virtual deadlines of the EDF-VD/EY/ECDF runtime, or the
// fixed priorities of the AMC runtime. A zero value is plain EDF on real
// deadlines.
type CoreRuntime struct {
	// Policy selects the dispatch rule.
	Policy PolicyKind
	// VD maps HC task IDs to LO-mode relative virtual deadlines
	// (VirtualDeadlineEDF only); tasks absent from the map, and a nil map,
	// run on their real deadlines.
	VD map[int]mcs.Ticks
	// Priorities maps task IDs to fixed priorities (FixedPriority only,
	// 0 = highest); an undeclared task runs at the lowest priority.
	Priorities map[int]int
}

// Miss records a required deadline miss.
type Miss struct {
	TaskID   int       `json:"task"`
	Release  mcs.Ticks `json:"release"`
	Deadline mcs.Ticks `json:"deadline"`
	// Mode is the core mode at the instant of the miss.
	Mode mcs.Level `json:"mode"`
}

// String formats the miss.
func (m Miss) String() string {
	return fmt.Sprintf("task %d released %d missed deadline %d in %s mode",
		m.TaskID, m.Release, m.Deadline, m.Mode)
}

// CoreResult aggregates one core's run.
type CoreResult struct {
	Misses       []Miss
	Switches     []mcs.Ticks // mode-switch instants (LO→HI)
	Resets       []mcs.Ticks // HI→LO resets (idle instants)
	Released     int
	Completed    int
	DroppedJobs  int // LC jobs discarded by mode switches (incl. suppressed releases)
	Preemptions  int
	Busy         mcs.Ticks // ticks spent executing
	FinishedMode mcs.Level // mode at the end of the horizon
}

// OK reports a miss-free run.
func (r CoreResult) OK() bool { return len(r.Misses) == 0 }

// VDFromX converts a uniform scaling factor into a per-task virtual
// deadline map: d_i = ⌈x·D_i⌉ for HC tasks, clamped into [1, D_i]. The
// ceiling keeps d_i ≥ x·D_i, preserving the LO-mode density bound of the
// EDF-VD test under integer time (rounding down instead would tighten
// LO-mode deadlines beyond what the test certified). x outside (0,1) yields
// the real deadlines.
func VDFromX(ts mcs.TaskSet, x float64) map[int]mcs.Ticks {
	vd := make(map[int]mcs.Ticks)
	for _, t := range ts {
		if !t.IsHC() {
			continue
		}
		d := t.Deadline
		if x > 0 && x < 1 {
			d = mcs.Ticks(math.Ceil(x * float64(t.Deadline)))
			if d < 1 {
				d = 1
			}
			if d > t.Deadline {
				d = t.Deadline
			}
		}
		vd[t.ID] = d
	}
	return vd
}
