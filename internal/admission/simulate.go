package admission

// Read-only what-if simulation of a live tenant. Simulate snapshots the
// tenant's partition (the only step that takes the system lock), derives
// the runtime configuration the tenant's schedulability test certifies —
// virtual deadlines for the EDF family, fixed priorities for AMC — and
// executes the whole partition in the discrete-event engine. The engine
// run happens entirely outside the lock, so a long simulation never blocks
// admits, probes or releases on the same tenant.

import (
	"errors"
	"fmt"
	"time"

	"mcsched/internal/analysis/amc"
	"mcsched/internal/analysis/ecdf"
	"mcsched/internal/analysis/edfvd"
	"mcsched/internal/analysis/ey"
	"mcsched/internal/core"
	"mcsched/internal/mcs"
	"mcsched/internal/sim"
)

// ErrBadScenario is returned when a simulation spec fails validation. The
// daemon maps it to 400.
var ErrBadScenario = errors.New("admission: invalid simulation scenario")

// SimOutcome is the result of one tenant simulation.
type SimOutcome struct {
	// System and Test identify the simulated tenant and its gating test.
	System string
	Test   string
	// Tasks is the resident task count at the snapshot instant.
	Tasks int
	// Result is the engine's system-level result.
	Result sim.SystemResult
}

// RuntimeForCore derives the runtime configuration one core should execute
// under, given the schedulability test that admitted it. The mapping is the
// analysis-to-runtime contract of the paper: EDF-VD cores run
// virtual-deadline EDF with deadlines scaled by the certified x; EY and
// ECDF cores run it with the per-task virtual deadlines their analysis
// assigns; AMC cores run fixed-priority with the order the test's variant
// and priority policy certify. Every other test — the plain-EDF
// baselines, a test of the caller's own, nil — runs EDF on real
// deadlines, which is exactly what an uncertified core would run.
//
// Each variant degrades safely when the analysis no longer accepts the
// core (possible only for a partition assembled outside admission): the
// runtime falls back to real deadlines or deadline-monotonic priorities
// rather than failing, so the simulation still executes something
// well-defined.
func RuntimeForCore(test core.Test, ts mcs.TaskSet) sim.CoreRuntime {
	switch t := test.(type) {
	case edfvd.Test:
		r := edfvd.Analyze(ts)
		if r.Schedulable && !r.PlainEDF {
			return sim.CoreRuntime{Policy: sim.VirtualDeadlineEDF, VD: sim.VDFromX(ts, r.X)}
		}
	case ey.Test:
		if r := ey.Analyze(ts); r.Schedulable {
			return sim.CoreRuntime{Policy: sim.VirtualDeadlineEDF, VD: r.VD}
		}
	case ecdf.Test:
		if r := ecdf.Analyze(ts); r.Schedulable {
			return sim.CoreRuntime{Policy: sim.VirtualDeadlineEDF, VD: r.VD}
		}
	case amc.Test:
		if r := amc.Analyze(ts, t.Opts); r.Schedulable {
			return sim.CoreRuntime{Policy: sim.FixedPriority, Priorities: r.Priority}
		}
		return sim.CoreRuntime{Policy: sim.FixedPriority, Priorities: amc.DeadlineMonotonicPriorities(ts)}
	}
	return sim.CoreRuntime{Policy: sim.VirtualDeadlineEDF}
}

// RuntimeForPartition derives per-core runtime configurations for a whole
// partition under one test.
func RuntimeForPartition(test core.Test, cores []mcs.TaskSet) []sim.CoreRuntime {
	rt := make([]sim.CoreRuntime, len(cores))
	for k, ts := range cores {
		rt[k] = RuntimeForCore(test, ts)
	}
	return rt
}

// Simulate executes the tenant's current partition under the spec. It is a
// pure read: the tenant lock is held only while snapshotting the partition,
// and no tenant or controller state changes beyond the simulation counters.
// The result is deterministic for a fixed (partition, spec) pair.
func (s *System) Simulate(spec sim.Spec) (SimOutcome, error) {
	if err := spec.Validate(); err != nil {
		return SimOutcome{}, fmt.Errorf("%w: %v", ErrBadScenario, err)
	}
	m := s.metrics.Load()
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	p := s.Snapshot()
	name := s.TestName()
	test, _ := core.TestByName(name)
	res, err := sim.SimulateSystem(p.Cores, RuntimeForPartition(test, p.Cores), spec)
	if err != nil {
		return SimOutcome{}, fmt.Errorf("%w: %v", ErrBadScenario, err)
	}
	s.stats.simulations.Inc()
	if m != nil && m.simulateSeconds != nil {
		m.simulateSeconds.Observe(time.Since(start))
	}
	return SimOutcome{System: s.id, Test: name, Tasks: p.NumTasks(), Result: res}, nil
}

// Simulate resolves the tenant and executes Simulate on it.
func (c *Controller) Simulate(id string, spec sim.Spec) (SimOutcome, error) {
	sys, err := c.System(id)
	if err != nil {
		return SimOutcome{}, err
	}
	return sys.Simulate(spec)
}
