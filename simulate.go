package mcsched

import (
	"fmt"

	"mcsched/internal/admission"
	"mcsched/internal/sim"
)

// ---------------------------------------------------------------------------
// Runtime simulation
// ---------------------------------------------------------------------------

// SimConfig parameterizes a runtime simulation (horizon, policy, virtual
// deadlines or priorities, execution scenario).
type SimConfig = sim.Config

// CoreSimResult is one core's run: deadline misses, mode switches,
// preemption and drop counts.
type CoreSimResult = sim.CoreResult

// DeadlineMiss records one required deadline miss observed in simulation.
type DeadlineMiss = sim.Miss

// Scenario drives per-job execution times and release gaps in simulation.
type Scenario = sim.Scenario

// TraceEvent is one engine occurrence (release, exec chunk, completion,
// preemption, mode switch, reset, drop, miss).
type TraceEvent = sim.Event

// TraceRecorder collects engine events; set it as SimConfig.Tracer and use
// its Gantt method to render an ASCII timeline of the run.
type TraceRecorder = sim.Recorder

// Runtime policies for SimConfig.Policy.
const (
	// PolicyVirtualDeadlineEDF is preemptive EDF on virtual deadlines in LO
	// mode (the EDF-VD/EY/ECDF runtime).
	PolicyVirtualDeadlineEDF = sim.VirtualDeadlineEDF
	// PolicyFixedPriority is preemptive fixed-priority scheduling (the AMC
	// runtime).
	PolicyFixedPriority = sim.FixedPriority
)

// ScenarioLoSteady has every job run for exactly its LO budget: the system
// stays in LO mode forever.
func ScenarioLoSteady() Scenario { return sim.LoSteady{} }

// ScenarioHiStorm has every job run for its HI budget: each core mode-
// switches as early as possible and stays loaded — the HI-mode stress case.
func ScenarioHiStorm() Scenario { return sim.HiStorm{} }

// ScenarioRandom draws per-job execution pseudo-randomly: HC jobs overrun
// their LO budget with the given probability, and sporadic release gaps
// stretch up to (1+jitter)·T. Deterministic per (seed, task, job index).
func ScenarioRandom(seed int64, overrunProb, jitter float64) Scenario {
	return sim.Random{Seed: seed, OverrunProb: overrunProb, Jitter: jitter}
}

// ScenarioSingleOverrun makes exactly one job of one task overrun to its HI
// budget: the minimal mode-switch trigger, used to observe recovery.
func ScenarioSingleOverrun(taskID, jobIdx int) Scenario {
	return sim.SingleOverrun{OverrunTask: taskID, OverrunJob: jobIdx}
}

// SimulateCore runs a single core.
func SimulateCore(ts TaskSet, cfg SimConfig) CoreSimResult {
	return sim.SimulateCore(ts, cfg)
}

// VirtualDeadlinesFromX converts an EDF-VD scaling factor x into the
// per-task virtual deadline map SimConfig.VD expects.
func VirtualDeadlinesFromX(ts TaskSet, x float64) map[int]Ticks {
	return sim.VDFromX(ts, x)
}

// RuntimeForCore derives the runtime configuration one core executes under
// the schedulability test that admitted it: EDF-VD's scaled virtual
// deadlines, EY's and ECDF's per-task virtual deadlines, AMC's certified
// priorities, or plain EDF for any other test. It is the one
// analysis-to-runtime mapping behind SimulateAdmitted,
// ValidatePartitionBySimulation and the daemon's simulations.
func RuntimeForCore(test Test, ts TaskSet) SimCoreRuntime {
	return admission.RuntimeForCore(test, ts)
}

// ValidatePartitionBySimulation simulates the partition under the LO-steady,
// HI-storm and randomized scenarios with the runtime the named test
// certifies, and reports the first deadline miss found (nil when all runs
// are miss-free). It is the library's executable cross-check of an
// analytical acceptance. An unknown test name or a non-positive horizon is
// an error.
func ValidatePartitionBySimulation(p Partition, testName string, horizon Ticks, seed int64) (*DeadlineMiss, error) {
	if _, ok := TestByName(testName); !ok {
		return nil, fmt.Errorf("unknown test %q", testName)
	}
	for _, spec := range []SimSpec{
		{Horizon: horizon, Scenario: SimLoSteady},
		{Horizon: horizon, Scenario: SimHiStorm},
		{Horizon: horizon, Scenario: SimRandom, Seed: seed, OverrunProb: 0.2, Jitter: 1.5},
	} {
		res, err := SimulateAdmitted(testName, p, spec)
		if err != nil {
			return nil, err
		}
		for _, c := range res.Cores {
			if c.FirstMiss != nil {
				return c.FirstMiss, nil
			}
		}
	}
	return nil, nil
}

// ---------------------------------------------------------------------------
// System-level simulation
// ---------------------------------------------------------------------------

// SimSpec is a declarative, seeded scenario for a whole-partition
// simulation: horizon, behaviour-model kind, seed, overrun selection. Two
// runs of the same partition under the same spec are bit-identical.
type SimSpec = sim.Spec

// SimCoreRuntime binds one core's runtime algorithm and certified
// parameters (virtual deadlines or fixed priorities).
type SimCoreRuntime = sim.CoreRuntime

// SystemSimResult aggregates a whole-partition run: per-core summaries,
// cross-core totals, and the first-miss witness when a deadline was missed.
type SystemSimResult = sim.SystemResult

// SimCoreSummary is the compact per-core account of a system run.
type SimCoreSummary = sim.CoreSummary

// SimWitness reconstructs the first deadline miss of a system run: core,
// miss, trailing event window and ASCII timeline.
type SimWitness = sim.Witness

// Scenario kinds for SimSpec.Scenario.
const (
	// SimLoSteady keeps every job at its LO budget (no mode switch).
	SimLoSteady = sim.SpecLoSteady
	// SimHiStorm runs every job to its HI budget (earliest switches).
	SimHiStorm = sim.SpecHiStorm
	// SimRandom draws demands and jitter deterministically from the seed.
	SimRandom = sim.SpecRandom
	// SimSingleOverrun overruns one designated job to C^H.
	SimSingleOverrun = sim.SpecSingleOverrun
	// SimMinimalOverrun overruns one designated job to C^L+1, the
	// criticality-at-boundary case.
	SimMinimalOverrun = sim.SpecMinimalOverrun
)

// SimulateSystem executes every core of the partition under the spec with
// explicit per-core runtime configurations. Cores simulate concurrently and
// the result is deterministic.
func SimulateSystem(p Partition, rt []SimCoreRuntime, spec SimSpec) (SystemSimResult, error) {
	return sim.SimulateSystem(p.Cores, rt, spec)
}

// SimulateAdmitted executes the partition under the runtime configuration
// the named schedulability test certifies — virtual deadlines for the EDF
// family, fixed priorities for AMC — exactly as the admission controller's
// Simulate does for a live tenant; a name TestByName does not resolve runs
// plain EDF. It is the soundness oracle of the fuzzed
// admitted-implies-schedulable suite: a partition admitted under testName
// must yield a miss-free result for every spec.
func SimulateAdmitted(testName string, p Partition, spec SimSpec) (SystemSimResult, error) {
	test, _ := TestByName(testName)
	return sim.SimulateSystem(p.Cores, admission.RuntimeForPartition(test, p.Cores), spec)
}
