package sim

// System-level simulation: a whole admitted partition (all cores of a
// tenant) executed under one declarative, seeded scenario specification.
// This is the runtime counterpart of the admission controller — where the
// analyses certify a partition on paper, SimulateSystem executes it: jobs
// release with sporadic jitter, run for scenario-drawn demands, overrun
// their LO budgets at chosen instants, and every required deadline is
// checked tick-exactly.
//
// Determinism is a contract, not an accident: a Spec is a pure value, every
// scenario draw is a deterministic function of (seed, task ID, job index),
// and the per-core simulations share no state, so a run is bit-reproducible
// across repeats, GOMAXPROCS settings and the concurrent per-core execution
// below. The fuzzed soundness suite and the daemon's /simulate endpoint
// both lean on this: a reported counterexample or a tenant's what-if result
// is replayable from its spec alone.

import (
	"sync"

	"mcsched/internal/mcs"
)

// CoreSummary is the compact per-core account of a system run.
type CoreSummary struct {
	// Core is the core index within the partition; Tasks its resident
	// task count.
	Core  int `json:"core"`
	Tasks int `json:"tasks"`
	// Released through Resets count engine events over the horizon.
	Released    int `json:"released"`
	Completed   int `json:"completed"`
	Dropped     int `json:"dropped"`
	Preemptions int `json:"preemptions"`
	Misses      int `json:"misses"`
	Switches    int `json:"switches"`
	Resets      int `json:"resets"`
	// Busy is the executed tick count; FinishedMode the mode at the
	// horizon.
	Busy         mcs.Ticks `json:"busy"`
	FinishedMode mcs.Level `json:"finished_mode"`
	// FirstMiss is the earliest required-deadline miss, nil on a sound run.
	FirstMiss *Miss `json:"first_miss,omitempty"`
}

// Witness is the reproducible account of the first deadline miss of a
// system run: the missing core, the miss itself, the trailing event window
// that led to it, and an ASCII timeline of that window. It is what turns a
// red soundness verdict into a debuggable trace.
type Witness struct {
	// Core is the index of the first-missing core.
	Core int `json:"core"`
	// Miss is the earliest required-deadline miss of the run.
	Miss Miss `json:"miss"`
	// Events is the bounded engine-event window ending at the miss.
	Events []Event `json:"events"`
	// Gantt renders the window as an ASCII timeline.
	Gantt string `json:"gantt,omitempty"`
}

// SystemResult aggregates a whole-partition run: per-core summaries, the
// cross-core totals, and — when any required deadline was missed — the
// first-miss witness.
type SystemResult struct {
	// Horizon is the simulated duration; the wire form echoes it in its
	// scenario instead.
	Horizon mcs.Ticks     `json:"-"`
	Cores   []CoreSummary `json:"cores"`
	// Totals across cores.
	Released    int `json:"released"`
	Completed   int `json:"completed"`
	Dropped     int `json:"dropped"`
	Preemptions int `json:"preemptions"`
	Misses      int `json:"misses"`
	Switches    int `json:"switches"`
	// Witness reconstructs the first miss; nil on a sound run.
	Witness *Witness `json:"witness,omitempty"`
}

// OK reports a miss-free run across all cores.
func (r SystemResult) OK() bool { return r.Misses == 0 }

// WitnessWindow is the number of engine events retained before the first
// miss when reconstructing a witness trace.
const WitnessWindow = 64

// witnessGanttSpan is the tick window the witness timeline renders, ending
// just after the miss.
const witnessGanttSpan = 64

// SimulateSystem executes every core of the partition under the spec's
// scenario and the per-core runtime configurations (rt may be shorter than
// cores; missing entries run plain EDF on real deadlines). Cores simulate
// concurrently — they share no state, the defining isolation property of
// partitioned scheduling — and the result is nonetheless deterministic:
// per-core results land in index order and every scenario draw is a pure
// function of (seed, task, job).
//
// When any required deadline is missed, the earliest-missing core (ties:
// lowest index) is deterministically re-simulated with a bounded trace
// recorder to reconstruct the first-miss witness.
func SimulateSystem(cores []mcs.TaskSet, rt []CoreRuntime, spec Spec) (SystemResult, error) {
	if err := spec.Validate(); err != nil {
		return SystemResult{}, err
	}
	res := SystemResult{Horizon: spec.Horizon, Cores: make([]CoreSummary, len(cores))}

	cfgOf := func(k int) Config {
		cfg := Config{Spec: spec}
		if k < len(rt) {
			cfg.CoreRuntime = rt[k]
		}
		return cfg
	}

	var wg sync.WaitGroup
	for k := range cores {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cr := SimulateCore(cores[k], cfgOf(k))
			res.Cores[k] = summarize(k, len(cores[k]), cr)
		}(k)
	}
	wg.Wait()

	witnessCore := -1
	var witnessMiss Miss
	for k := range res.Cores {
		c := &res.Cores[k]
		res.Released += c.Released
		res.Completed += c.Completed
		res.Dropped += c.Dropped
		res.Preemptions += c.Preemptions
		res.Misses += c.Misses
		res.Switches += c.Switches
		if c.FirstMiss != nil && (witnessCore < 0 || c.FirstMiss.Deadline < witnessMiss.Deadline) {
			witnessCore = k
			witnessMiss = *c.FirstMiss
		}
	}
	if witnessCore >= 0 {
		res.Witness = buildWitness(cores[witnessCore], cfgOf(witnessCore), witnessCore)
	}
	return res, nil
}

// summarize compacts one core's full result.
func summarize(k, tasks int, cr CoreResult) CoreSummary {
	s := CoreSummary{
		Core:         k,
		Tasks:        tasks,
		Released:     cr.Released,
		Completed:    cr.Completed,
		Dropped:      cr.DroppedJobs,
		Preemptions:  cr.Preemptions,
		Misses:       len(cr.Misses),
		Switches:     len(cr.Switches),
		Resets:       len(cr.Resets),
		Busy:         cr.Busy,
		FinishedMode: cr.FinishedMode,
	}
	if len(cr.Misses) > 0 {
		m := cr.Misses[0]
		s.FirstMiss = &m
	}
	return s
}

// buildWitness re-runs the first-missing core deterministically with a
// bounded ring recorder and StopOnMiss: the retained window ends exactly at
// the first miss, which the full run already proved exists.
func buildWitness(ts mcs.TaskSet, cfg Config, core int) *Witness {
	rec := &Recorder{Cap: WitnessWindow}
	cfg.Tracer = rec
	cfg.StopOnMiss = true
	cr := SimulateCore(ts, cfg)
	if len(cr.Misses) == 0 {
		return nil // unreachable for a deterministic engine; fail soft
	}
	miss := cr.Misses[0]
	w := &Witness{Core: core, Miss: miss, Events: rec.Events}
	from := miss.Deadline - witnessGanttSpan
	if from < 0 {
		from = 0
	}
	w.Gantt = rec.Gantt(ts, from, miss.Deadline+1, witnessGanttSpan)
	return w
}
