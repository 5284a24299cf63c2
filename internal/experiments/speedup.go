package experiments

import (
	"fmt"
	"math"

	"mcsched/internal/core"
	"mcsched/internal/mcs"
	"mcsched/internal/taskgen"
)

// SpeedScaled returns a copy of the task set as it would appear on a
// processor that is s times faster: execution budgets shrink to ⌈C/s⌉
// (ceiling keeps the transformation conservative in integer time) and the
// utilization fields are rederived from the scaled budgets. Periods and
// deadlines are unchanged. s ≤ 1 returns a plain clone.
func SpeedScaled(ts mcs.TaskSet, s float64) mcs.TaskSet {
	out := ts.Clone()
	if s <= 1 {
		return out
	}
	for i := range out {
		cl := mcs.Ticks(math.Ceil(float64(out[i].WCET[mcs.LO]) / s))
		ch := mcs.Ticks(math.Ceil(float64(out[i].WCET[mcs.HI]) / s))
		if cl < 1 {
			cl = 1
		}
		if ch < cl {
			ch = cl
		}
		out[i].WCET[mcs.LO] = cl
		out[i].WCET[mcs.HI] = ch
		out[i].ULo = float64(cl) / float64(out[i].Period)
		out[i].UHi = float64(ch) / float64(out[i].Period)
		if out[i].Crit == mcs.LO {
			out[i].WCET[mcs.HI] = cl
			out[i].UHi = out[i].ULo
		}
	}
	return out
}

// MinSpeed binary-searches the smallest processor speed s ∈ [1, maxSpeed]
// at which the algorithm accepts the task set on m processors, to within
// tol. It returns (s, true) on success — the returned s was verified by an
// actual acceptance — or (0, false) when even maxSpeed does not suffice.
//
// The search treats acceptance as monotone in s. That holds for the
// utilization- and demand-based tests themselves; the partitioning
// heuristics can in principle flip on reordering ties, so MinSpeed is a
// measurement tool (used by the speed-up survey below), not a certificate.
func MinSpeed(algo core.Algorithm, ts mcs.TaskSet, m int, maxSpeed, tol float64) (float64, bool) {
	if tol <= 0 {
		tol = 1e-3
	}
	if algo.Schedulable(ts, m) {
		return 1, true
	}
	if !algo.Schedulable(SpeedScaled(ts, maxSpeed), m) {
		return 0, false
	}
	lo, hi := 1.0, maxSpeed
	for hi-lo > tol {
		mid := (lo + hi) / 2
		if algo.Schedulable(SpeedScaled(ts, mid), m) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

// SpeedupSample is one task set's measured minimum speed.
type SpeedupSample struct {
	// UB is the task set's realized normalized utilization bound.
	UB float64
	// Speed is the measured minimum acceptance speed.
	Speed float64
}

// SpeedupSurvey measures the minimum-speed distribution of an algorithm
// over generated task sets whose realized UB does not exceed ubCap
// (UB ≤ 1 is the necessary feasibility region the 8/3 bound speaks about).
type SpeedupSurvey struct {
	Algorithm string
	Samples   []SpeedupSample
	// Unresolved counts sets that exceeded the search's maxSpeed.
	Unresolved int
}

// Max returns the largest measured speed (0 for an empty survey).
func (s SpeedupSurvey) Max() float64 {
	var worst float64
	for _, smp := range s.Samples {
		if smp.Speed > worst {
			worst = smp.Speed
		}
	}
	return worst
}

// Mean returns the average measured speed (0 for an empty survey).
func (s SpeedupSurvey) Mean() float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	var sum float64
	for _, smp := range s.Samples {
		sum += smp.Speed
	}
	return sum / float64(len(s.Samples))
}

// String summarizes the survey.
func (s SpeedupSurvey) String() string {
	return fmt.Sprintf("%s: %d sets, mean speed %.3f, max speed %.3f, %d unresolved",
		s.Algorithm, len(s.Samples), s.Mean(), s.Max(), s.Unresolved)
}

// RunSpeedupSurvey generates sets task sets on m processors across the UB
// grid (clipped at ubCap), measures MinSpeed for each, and aggregates. It
// is the empirical companion to the 8/3 speed-up theorem the paper inherits
// for its EDF-VD pairings: for UDP-EDF-VD the observed maximum stays well
// below 8/3 on feasibility-plausible workloads.
func RunSpeedupSurvey(algo core.Algorithm, m, sets int, ubCap float64, seed int64) (SpeedupSurvey, error) {
	if sets <= 0 || m <= 0 {
		return SpeedupSurvey{}, fmt.Errorf("experiments: bad survey shape m=%d sets=%d", m, sets)
	}
	const maxSpeed = 4.0
	out := SpeedupSurvey{Algorithm: algo.Name()}
	buckets := taskgen.BucketByUB(taskgen.DefaultGrid())
	buckets = taskgen.FilterBuckets(buckets, 0, ubCap)
	if len(buckets) == 0 {
		return SpeedupSurvey{}, fmt.Errorf("experiments: ubCap %g selects no buckets", ubCap)
	}
	smp := samplers.Get().(*sampler)
	defer samplers.Put(smp)
	for i := 0; i < sets; i++ {
		b := buckets[i%len(buckets)]
		combo := b.Combos[(i/len(buckets))%len(b.Combos)]
		ts, err := smp.draw(deriveSeed(seed, i, 0), taskgen.DefaultConfig(m, combo.UHH, combo.ULH, combo.ULL))
		if err != nil {
			continue
		}
		if ts.Bound(m) > ubCap+1e-9 {
			continue // ceiling inflation pushed it past the cap
		}
		speed, ok := MinSpeed(algo, ts, m, maxSpeed, 1e-3)
		if !ok {
			out.Unresolved++
			continue
		}
		out.Samples = append(out.Samples, SpeedupSample{UB: ts.Bound(m), Speed: speed})
	}
	if len(out.Samples) == 0 {
		return out, fmt.Errorf("experiments: survey produced no samples")
	}
	return out, nil
}
