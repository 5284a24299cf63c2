package sim

import (
	"math"

	"mcsched/internal/mcs"
)

// job is one released instance of a task.
type job struct {
	taskIdx  int
	id       int // task ID
	num      int // per-task job index (0-based)
	hc       bool
	release  mcs.Ticks
	deadline mcs.Ticks // real absolute deadline
	// key is the EDF scheduling key: the absolute virtual deadline in LO
	// mode, the absolute real deadline in HI mode. Kept in float64 so the
	// EDF-VD scaling factor x applies exactly, without integer rounding.
	key    float64
	prio   int       // fixed priority (FixedPriority policy)
	demand mcs.Ticks // actual execution required by this job
	done   mcs.Ticks
	missed bool
	seq    int // release order tiebreak
}

func (j *job) complete() bool { return j.done >= j.demand }

// SimulateCore runs one core to the horizon. Tasks release synchronously at
// time zero (the critical instant), then per the scenario's gaps.
func SimulateCore(ts mcs.TaskSet, cfg Config) CoreResult {
	var res CoreResult
	if len(ts) == 0 || cfg.Horizon <= 0 {
		return res
	}
	scn := cfg.Scenario
	if scn == nil {
		scn = LoSteady{}
	}
	trace := func(e Event) {
		if cfg.Tracer != nil {
			cfg.Tracer.Record(e)
		}
	}

	// Per-task release machinery.
	n := len(ts)
	nextRel := make([]mcs.Ticks, n) // all zero: synchronous start
	jobIdx := make([]int, n)

	vdOf := func(t mcs.Task) float64 {
		if d, ok := cfg.VD[t.ID]; ok && d >= 1 && d <= t.Deadline {
			return float64(d)
		}
		return float64(t.Deadline)
	}
	prioOf := func(t mcs.Task) int {
		if p, ok := cfg.Priorities[t.ID]; ok {
			return p
		}
		return math.MaxInt32 // undeclared tasks run at the lowest priority
	}

	mode := mcs.LO
	var ready []*job
	var running *job
	now := mcs.Ticks(0)
	seq := 0

	clampDemand := func(t mcs.Task, d mcs.Ticks) mcs.Ticks {
		hi := t.CHi()
		if !t.IsHC() {
			hi = t.CLo()
		}
		if d < 1 {
			return 1
		}
		if d > hi {
			return hi
		}
		return d
	}

	releaseDue := func() {
		for i, t := range ts {
			for nextRel[i] <= now {
				rel := nextRel[i]
				k := jobIdx[i]
				jobIdx[i]++
				gap := scn.Gap(t, k)
				if gap < t.Period {
					gap = t.Period
				}
				nextRel[i] = rel + gap
				if !t.IsHC() && mode == mcs.HI {
					res.DroppedJobs++ // LC releases suppressed in HI mode
					trace(Event{Time: rel, Kind: EvDrop, TaskID: t.ID, Job: k})
					continue
				}
				j := &job{
					taskIdx:  i,
					id:       t.ID,
					num:      k,
					hc:       t.IsHC(),
					release:  rel,
					deadline: rel + t.Deadline,
					prio:     prioOf(t),
					demand:   clampDemand(t, scn.ExecTime(t, k)),
					seq:      seq,
				}
				seq++
				if cfg.Policy == VirtualDeadlineEDF {
					if mode == mcs.LO {
						j.key = float64(rel) + vdOf(t)
					} else {
						j.key = float64(j.deadline)
					}
				}
				ready = append(ready, j)
				res.Released++
				trace(Event{Time: rel, Kind: EvRelease, TaskID: t.ID, Job: k})
			}
		}
	}

	// pick returns the highest-priority incomplete ready job.
	pick := func() *job {
		var best *job
		for _, j := range ready {
			if j.complete() {
				continue
			}
			if best == nil || higher(cfg.Policy, j, best) {
				best = j
			}
		}
		return best
	}

	// switchToHI performs the core-local mode switch.
	switchToHI := func() {
		mode = mcs.HI
		res.Switches = append(res.Switches, now)
		trace(Event{Time: now, Kind: EvSwitch, TaskID: -1, Job: -1})
		kept := ready[:0]
		for _, j := range ready {
			if !j.hc {
				if !j.complete() {
					res.DroppedJobs++
					trace(Event{Time: now, Kind: EvDrop, TaskID: j.id, Job: j.num})
				}
				continue
			}
			j.key = float64(j.deadline) // revert to real deadlines
			kept = append(kept, j)
		}
		ready = kept
	}

	reap := func() {
		kept := ready[:0]
		for _, j := range ready {
			if j.complete() && j != running {
				continue
			}
			kept = append(kept, j)
		}
		ready = kept
	}

	for now < cfg.Horizon {
		releaseDue()
		cand := pick()

		// Next event boundary.
		next := cfg.Horizon
		for i := range ts {
			if nextRel[i] < next {
				next = nextRel[i]
			}
		}
		for _, j := range ready {
			if !j.complete() && !j.missed && j.deadline > now && j.deadline < next {
				next = j.deadline
			}
		}
		var finish, overrun mcs.Ticks = -1, -1
		if cand != nil {
			finish = now + (cand.demand - cand.done)
			if finish < next {
				next = finish
			}
			if mode == mcs.LO && cand.hc && cand.demand > taskOf(ts, cand).CLo() && cand.done < taskOf(ts, cand).CLo() {
				overrun = now + (taskOf(ts, cand).CLo() - cand.done)
				if overrun < next {
					next = overrun
				}
			}
		}

		if cand == nil {
			// Idle: recover LO mode if configured, then jump to the next
			// release (or finish).
			if mode == mcs.HI && cfg.ResetOnIdle {
				mode = mcs.LO
				res.Resets = append(res.Resets, now)
				trace(Event{Time: now, Kind: EvReset, TaskID: -1, Job: -1})
			}
			if next <= now { // no future event
				break
			}
			now = next
			continue
		}

		// Preemption accounting: a different incomplete job was running.
		if running != nil && running != cand && !running.complete() {
			res.Preemptions++
			trace(Event{Time: now, Kind: EvPreempt, TaskID: running.id, Job: running.num})
		}
		running = cand

		// Execute until the boundary (always strictly in the future: all
		// due releases were drained, deadlines at `now` were handled, and
		// completion/overrun points of an incomplete job lie ahead).
		delta := next - now
		cand.done += delta
		res.Busy += delta
		trace(Event{Time: now, Kind: EvExec, TaskID: cand.id, Job: cand.num, Dur: delta})
		now = next

		// Deadline misses at this instant (required jobs only; LC jobs
		// cannot exist in HI mode by construction).
		for _, j := range ready {
			if !j.missed && !j.complete() && j.deadline <= now {
				j.missed = true
				res.Misses = append(res.Misses, Miss{
					TaskID: j.id, Release: j.release, Deadline: j.deadline, Mode: mode,
				})
				trace(Event{Time: now, Kind: EvMiss, TaskID: j.id, Job: j.num})
				if cfg.StopOnMiss {
					res.FinishedMode = mode
					return res
				}
			}
		}

		// Completion.
		if cand.complete() {
			res.Completed++
			trace(Event{Time: now, Kind: EvComplete, TaskID: cand.id, Job: cand.num})
			running = nil
			reap()
			continue
		}

		// Budget overrun ⇒ mode switch (only in LO mode).
		if mode == mcs.LO && cand.hc && cand.done >= taskOf(ts, cand).CLo() && cand.demand > taskOf(ts, cand).CLo() {
			switchToHI()
		}
	}

	res.FinishedMode = mode
	return res
}

func taskOf(ts mcs.TaskSet, j *job) mcs.Task { return ts[j.taskIdx] }

// higher reports whether a should run before b under the policy.
func higher(p PolicyKind, a, b *job) bool {
	if p == FixedPriority {
		if a.prio != b.prio {
			return a.prio < b.prio
		}
	} else {
		if a.key != b.key {
			return a.key < b.key
		}
	}
	if a.release != b.release {
		return a.release < b.release
	}
	return a.seq < b.seq
}
