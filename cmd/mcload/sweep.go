package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"mcsched"
)

// Sweep sizing: Figure 3 and Figure 5 at m=8, once each. The paper's scale
// is 1000 task sets per utilization bucket; the sets scale with -seconds up
// to that, Figure 3 (2.7 s at paper scale on the reference box) reaching it
// at 6 s and Figure 5 (14 s at paper scale) at 25 s. At the harness's 6 s
// Figure 5 therefore runs 240 sets per bucket: runs are kept short because
// the shared host's speed wanders by a third within minutes, and the less
// time the harness's hundred-odd runs span, the less of that they see (see
// README.md, "Sandbox caveats").
const (
	sweepM       = 8
	sweepSets    = 1000
	fig3SetsPerS = 170
	fig5SetsPerS = 40
	warmupSets   = 20 // per bucket, in the warm-up pass of sweepSetup
	warmupSeed   = 2017
)

// sweepSize is the task sets per bucket of a figure that gains perSecond
// sets for every second of -seconds.
func sweepSize(seconds, perSecond float64) int {
	sets := int(seconds * perSecond)
	if sets > sweepSets {
		sets = sweepSets
	}
	if sets < warmupSets {
		sets = warmupSets
	}
	return sets
}

// figureRun is one timed call of a figure through the facade.
type figureRun struct {
	res   mcsched.ExperimentResult
	sets  int // per bucket
	evals int // task sets × algorithms evaluated
	took  time.Duration
}

func runFigure(fig func(m, sets int, seed int64) (mcsched.ExperimentResult, error), sets int, seed int64) (figureRun, error) {
	t0 := time.Now()
	res, err := fig(sweepM, sets, seed)
	took := time.Since(t0)
	if err != nil {
		return figureRun{}, err
	}
	evals := 0
	for _, s := range res.Series {
		for _, p := range s.Points {
			evals += p.Total
		}
	}
	return figureRun{res: res, sets: sets, evals: evals, took: took}, nil
}

// usPerEval is the wall time of a figure per (task set × algorithm).
func (f figureRun) usPerEval() float64 {
	return ratio(float64(f.took.Nanoseconds())/1000, float64(f.evals))
}

// sweepSetup is what the sweep does before it can measure. Nothing has to
// be built or started, so setup is the warm-up pass: both figures at
// warmupSets, which resolves every algorithm, sizes the analyzers' scratch
// buffers and lets the runtime grow its heap. The warm-up's seed is fixed:
// it is not an input of the measurement, and the same task sets every time
// make setup_s comparable across runs. It returns the acceptance curves, so
// the repeats double as the determinism check.
func sweepSetup() ([]mcsched.ExperimentSeries, error) {
	f3, err := mcsched.Figure3(sweepM, warmupSets, warmupSeed)
	if err != nil {
		return nil, err
	}
	f5, err := mcsched.Figure5(sweepM, warmupSets, warmupSeed)
	if err != nil {
		return nil, err
	}
	return append(f3.Series, f5.Series...), nil
}

// runSweep runs the offline-sweep workload: the paper's own experiment.
//
// The end-to-end names are shared with the serve workloads because the
// acceptance harness wants one metric set for all workloads; here they
// mean: read_p50_us is the wall time per (task set × algorithm) evaluation
// of Figure 3 (EDF-VD utilization tests, the cheap family), write_p50_us
// the same for Figure 5 (ECDF/AMC/EY on constrained deadlines, the
// expensive family); sat_ops_s is evaluations per second over both figures;
// accept_ratio is the mean weighted acceptance ratio of the CA-UDP and
// CU-UDP algorithms.
func runSweep(w workload, seed int64, seconds float64, trace bool) (*result, error) {
	r := newResult(w, seed, seconds)

	var setups []float64
	var curves [][]mcsched.ExperimentSeries
	for round := 0; round < setupRounds; round++ {
		t0 := time.Now()
		c, err := sweepSetup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		curves = append(curves, c)
	}
	r.E2E["setup_s"] = median(setups)

	cpu0 := selfCPU()
	f3, err := runFigure(mcsched.Figure3, sweepSize(seconds, fig3SetsPerS), seed)
	if err != nil {
		return nil, err
	}
	f5, err := runFigure(mcsched.Figure5, sweepSize(seconds, fig5SetsPerS), seed)
	if err != nil {
		return nil, err
	}
	wall := f3.took + f5.took
	cpu := selfCPU() - cpu0
	evals := f3.evals + f5.evals
	r.Attempted = evals
	r.Samples["fig3_sets_per_bucket"], r.Samples["fig5_sets_per_bucket"] = f3.sets, f5.sets

	// Correctness: the sweep is deterministic — every warm-up pass must give
	// the same acceptance counts — no draw may fail, and every algorithm
	// must have judged every task set of every bucket.
	for _, c := range curves[1:] {
		if !reflect.DeepEqual(c, curves[0]) {
			r.Failed++
			r.problem("sweep is not deterministic: two passes over one seed gave different acceptance counts")
		}
	}
	for _, f := range []figureRun{f3, f5} {
		if f.res.GenFailures > 0 {
			r.Failed += f.res.GenFailures
			r.problem("%d task-set draws failed", f.res.GenFailures)
		}
		for _, s := range f.res.Series {
			for _, p := range s.Points {
				if p.Total != f.sets || p.Accepted < 0 || p.Accepted > p.Total {
					r.Failed++
					r.problem("%s at UB %.2f: %d of %d accepted, want %d judged", s.Name, p.UB, p.Accepted, p.Total, f.sets)
				}
			}
		}
	}

	r.E2E["read_p50_us"], r.E2E["write_p50_us"] = f3.usPerEval(), f5.usPerEval()
	r.E2E["sat_ops_s"] = ratio(float64(evals), wall.Seconds())

	var udp []float64
	for _, res := range []mcsched.ExperimentResult{f3.res, f5.res} {
		for _, s := range res.Series {
			war := s.WAR()
			if _, tracked := r.Layer["experiments.war."+s.Name]; tracked {
				r.Layer["experiments.war."+s.Name] = war
				udp = append(udp, war)
			}
		}
	}
	if len(udp) == 0 {
		return nil, fmt.Errorf("no CA-UDP/CU-UDP series in the figures: algorithm names changed")
	}
	var sum float64
	for _, v := range udp {
		sum += v
	}
	r.E2E["accept_ratio"] = sum / float64(len(udp))
	r.Layer["experiments.parallel_efficiency"] = ratio(cpu, wall.Seconds()*float64(runtime.GOMAXPROCS(0)))

	if trace {
		if err := tracedSweep(seed, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}
