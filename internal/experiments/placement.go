package experiments

// Multi-criteria evaluation of the online placement heuristics: every
// registered placer (or a chosen subset) is scored on the same generated
// task-set sweep along three axes —
//
//   - acceptance: how many offered tasks (and whole sets) the heuristic
//     admits under the gating schedulability test;
//   - fragmentation: how splintered the leftover capacity is after a
//     deterministic release churn (headroom that exists in total but on no
//     single core);
//   - analysis cost: how many candidate-core schedulability probes the
//     heuristic spent per offered task.
//
// The harness drives the same incremental Assigner the admission
// controller uses, so warm-start and incremental kernels are exercised
// exactly as in production, and the Assigner's own probe counter is the
// analysis cost.

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"mcsched/internal/core"
	"mcsched/internal/mcs"
	"mcsched/internal/taskgen"
)

// PlacementConfig describes one placement-heuristic sweep. The task-set
// grid, seeding and determinism guarantees match Config: every heuristic
// sees the identical task sets in the identical arrival order.
type PlacementConfig struct {
	// M is the number of processors.
	M int
	// PH is the fraction of HC tasks (paper default 0.5).
	PH float64
	// SetsPerUB is the number of task sets per UB bucket.
	SetsPerUB int
	// Constrained selects constrained deadlines; otherwise implicit.
	Constrained bool
	// Seed is the base seed; every task set derives its own RNG from it.
	Seed int64
	// UBMin and UBMax clip the UB buckets swept (0,0 means full grid).
	UBMin, UBMax float64
	// Test is the uniprocessor schedulability test gating every admit;
	// nil selects EDF-VD.
	Test core.Test
	// Placements are the registry names to score; nil scores every
	// registered heuristic. Unknown names fail Validate.
	Placements []string
}

// Validate rejects structurally broken configurations, and constrained
// deadlines paired with a test that covers implicit deadlines only.
func (c PlacementConfig) Validate() error {
	switch {
	case c.M <= 0:
		return fmt.Errorf("experiments: M=%d must be positive", c.M)
	case c.PH < 0 || c.PH > 1:
		return fmt.Errorf("experiments: PH=%g outside [0,1]", c.PH)
	case c.SetsPerUB <= 0:
		return fmt.Errorf("experiments: SetsPerUB=%d must be positive", c.SetsPerUB)
	case c.Constrained && core.ImplicitOnly(c.test()):
		return fmt.Errorf("experiments: %s covers implicit deadlines only, not Constrained", c.test().Name())
	}
	for _, name := range c.Placements {
		if _, ok := core.PlacerByName(name); !ok {
			return fmt.Errorf("experiments: unknown placement heuristic %q", name)
		}
	}
	return nil
}

func (c PlacementConfig) test() core.Test {
	if c.Test != nil {
		return c.Test
	}
	return EDFVDTest()
}

// placements resolves the scored heuristics, defaulting to the full
// registry.
func (c PlacementConfig) placements() []core.Placer {
	if len(c.Placements) == 0 {
		return core.Placers()
	}
	out := make([]core.Placer, 0, len(c.Placements))
	for _, name := range c.Placements {
		p, _ := core.PlacerByName(name)
		out = append(out, p)
	}
	return out
}

// PlacementScore is one heuristic's aggregate over the sweep.
type PlacementScore struct {
	// Name is the heuristic's registry name.
	Name string
	// Offered and Admitted count tasks across every evaluated set.
	Offered, Admitted int
	// FullSets counts sets whose every task was admitted; Sets counts
	// sets evaluated.
	FullSets, Sets int
	// Probes counts candidate-core schedulability probes spent on the
	// admit phase.
	Probes int
	// FragSum accumulates the per-set post-release fragmentation (see
	// Fragmentation).
	FragSum float64
	// Series is the per-UB full-set acceptance curve, comparable to the
	// offline acceptance-ratio figures.
	Series Series
}

// AcceptanceRatio is the task-level acceptance over the whole sweep:
// admitted tasks / offered tasks.
func (s PlacementScore) AcceptanceRatio() float64 {
	if s.Offered == 0 {
		return 0
	}
	return float64(s.Admitted) / float64(s.Offered)
}

// Fragmentation is the mean post-release-churn fragmentation over the
// evaluated sets: (total free utilization − largest single-core free
// utilization) / total free utilization. 0 means all headroom sits on one
// core (a future heavy task fits); values near 1 mean the headroom exists
// only as crumbs spread across cores.
func (s PlacementScore) Fragmentation() float64 {
	if s.Sets == 0 {
		return 0
	}
	return s.FragSum / float64(s.Sets)
}

// AnalysisCost is the mean number of candidate-core schedulability probes
// per offered task — the analysis work the heuristic's candidate order
// costs the admission controller.
func (s PlacementScore) AnalysisCost() float64 {
	if s.Offered == 0 {
		return 0
	}
	return float64(s.Probes) / float64(s.Offered)
}

// PlacementResult is the outcome of one placement sweep.
type PlacementResult struct {
	// Config echoes the sweep parameters.
	Config PlacementConfig
	// Scores holds one entry per heuristic, in registry (or Placements)
	// order.
	Scores []PlacementScore
	// GenFailures counts task-set draws abandoned as infeasible.
	GenFailures int
	// Elapsed is the wall-clock duration of the sweep.
	Elapsed time.Duration
}

// ScoreByName returns the score of the named heuristic, ok=false if
// absent.
func (r PlacementResult) ScoreByName(name string) (PlacementScore, bool) {
	for _, s := range r.Scores {
		if s.Name == name {
			return s, true
		}
	}
	return PlacementScore{}, false
}

// placementTally is one heuristic's outcome on one task set.
type placementTally struct {
	offered, admitted, probes int
	full                      bool
	frag                      float64
}

// evalPlacement plays one task set through one heuristic: tasks arrive in
// generated order and are admitted first-fitting along the placer's
// candidate order (exactly the admission controller's placement step),
// then every second admitted task is released — a deterministic churn —
// and the leftover capacity's fragmentation is measured. asn is the
// worker's Assigner of the placer's slot.
func evalPlacement(p core.Placer, asn *core.Assigner, ts mcs.TaskSet) placementTally {
	t := placementTally{offered: len(ts)}
	asn.Reset()
	var admitted []int
	for _, task := range ts {
		if k := asn.FirstFitting(task, p.Order(asn, task)); k >= 0 {
			asn.Commit(task, k)
			admitted = append(admitted, task.ID)
		}
	}
	t.probes = int(asn.Probes())
	t.admitted = len(admitted)
	t.full = t.admitted == t.offered
	for i, id := range admitted {
		if i%2 == 1 {
			asn.Remove(id)
		}
	}
	t.frag = fragmentation(asn)
	return t
}

// fragmentation measures how splintered the assigner's free capacity is:
// (total free − max single-core free) / total free, with per-core free
// capacity 1 − TotalUtil(k) clamped at 0. A fully packed platform scores
// 0 (no headroom to splinter).
func fragmentation(a *core.Assigner) float64 {
	var total, max float64
	for k := 0; k < a.NumCores(); k++ {
		free := 1 - a.TotalUtil(k)
		if free < 0 {
			free = 0
		}
		total += free
		if free > max {
			max = free
		}
	}
	if total <= 0 {
		return 0
	}
	return (total - max) / total
}

// placementCell is one task set evaluated by every heuristic.
type placementCell struct {
	drawn   bool
	tallies []placementTally
}

// RunPlacement executes the placement sweep. Heuristics are evaluated on
// identical task sets in identical arrival order (paired comparison), and
// task sets fan out over parallelMap, GOMAXPROCS wide: each (bucket, set)
// index is an independent job with a fixed result slot, so scores are
// identical for every worker count.
func RunPlacement(cfg PlacementConfig) (PlacementResult, error) {
	if err := cfg.Validate(); err != nil {
		return PlacementResult{}, err
	}
	start := time.Now()

	buckets := taskgen.BucketByUB(taskgen.DefaultGrid())
	if cfg.UBMin != 0 || cfg.UBMax != 0 {
		buckets = taskgen.FilterBuckets(buckets, cfg.UBMin, cfg.UBMax)
	}
	if len(buckets) == 0 {
		return PlacementResult{}, fmt.Errorf("experiments: UB window [%g,%g] selects no buckets", cfg.UBMin, cfg.UBMax)
	}

	placers := cfg.placements()
	test := cfg.test()
	// drawSet only consumes the generator-relevant fields, so the shim
	// Config reuses the exact seeding scheme of the acceptance sweeps.
	genCfg := Config{M: cfg.M, PH: cfg.PH, Seed: cfg.Seed, Constrained: cfg.Constrained, SetsPerUB: cfg.SetsPerUB}

	scratch := func() *sampler { return newSampler(cfg.M, slices.Repeat([]core.Test{test}, len(placers))...) }
	cells := parallelMap(runtime.GOMAXPROCS(0), len(buckets)*cfg.SetsPerUB, scratch, func(smp *sampler, j int) placementCell {
		bi, si := j/cfg.SetsPerUB, j%cfg.SetsPerUB
		ts, ok := smp.drawSet(genCfg, buckets[bi], bi, si)
		if !ok {
			return placementCell{}
		}
		c := placementCell{drawn: true, tallies: make([]placementTally, len(placers))}
		for pi, p := range placers {
			c.tallies[pi] = evalPlacement(p, smp.asn[pi], ts)
		}
		return c
	})

	scores := make([]PlacementScore, len(placers))
	fullSets := make([][]int, len(placers))
	totals := make([]int, len(buckets))
	for pi, p := range placers {
		scores[pi].Name = p.Name()
		fullSets[pi] = make([]int, len(buckets))
	}
	genFailures := 0
	for j, c := range cells {
		bi := j / cfg.SetsPerUB
		if !c.drawn {
			genFailures++
			continue
		}
		totals[bi]++
		for pi, t := range c.tallies {
			s := &scores[pi]
			s.Offered += t.offered
			s.Admitted += t.admitted
			s.Probes += t.probes
			s.FragSum += t.frag
			s.Sets++
			if t.full {
				s.FullSets++
				fullSets[pi][bi]++
			}
		}
	}

	for pi := range scores {
		s := &scores[pi]
		s.Series = Series{Name: s.Name}
		for bi, b := range buckets {
			s.Series.Points = append(s.Series.Points, Point{
				UB:       b.UB,
				Accepted: fullSets[pi][bi],
				Total:    totals[bi],
			})
		}
	}

	return PlacementResult{
		Config:      cfg,
		Scores:      scores,
		GenFailures: genFailures,
		Elapsed:     time.Since(start),
	}, nil
}

// PlacementSummary formats a placement sweep as a fixed-width text table:
// one row per heuristic with its three criteria and WAR of the full-set
// acceptance curve.
func PlacementSummary(r PlacementResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "m=%d PH=%.2f constrained=%v sets/UB=%d test=%s (gen failures %d, %v)\n",
		r.Config.M, r.Config.PH, r.Config.Constrained, r.Config.SetsPerUB,
		r.Config.test().Name(), r.GenFailures, r.Elapsed.Round(1e6))
	fmt.Fprintf(&b, "%-14s %10s %10s %14s %12s %10s\n",
		"placement", "accept", "full-sets", "fragmentation", "probes/task", "WAR")
	for _, s := range r.Scores {
		full := 0.0
		if s.Sets > 0 {
			full = float64(s.FullSets) / float64(s.Sets)
		}
		fmt.Fprintf(&b, "%-14s %9.1f%% %9.1f%% %14.3f %12.2f %9.1f%%\n",
			s.Name, s.AcceptanceRatio()*100, full*100,
			s.Fragmentation(), s.AnalysisCost(), s.Series.WAR()*100)
	}
	return b.String()
}
