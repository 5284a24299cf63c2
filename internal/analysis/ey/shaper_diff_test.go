package ey

import (
	"math/rand"
	"testing"

	"mcsched/internal/analysis/dbf"
	"mcsched/internal/mcs"
	"mcsched/internal/oracle"
	"mcsched/internal/taskgen"
)

// The Shaper resumes each HI-mode walk from what the previous one proved
// (hiFree), walks only the windows a try's deadline move opened while LO
// demand is proved (loProved, dbf.Windows) and resumes each LO-mode walk
// of a binary search from the last failed try; package oracle's stateless
// Engine walks the full horizon every time. These tests run the two side by side, one tuneStep
// at a time, and demand the same witness at every step, the same virtual
// deadlines after it, and the same verdict — from the loosest assignment
// and from every λ-scaled restart ECDF uses, on one Shaper that is never
// reset in between. Underneath, every LO-mode walk's verdict is compared
// with a fresh full walk over the same curves (checkLOWalks).

var restartLambdas = []float64{0.8, 0.6, 0.4, 0.2, 0.05}

// shaperVDs reads the Shaper's assignment back as an ID-keyed map.
func shaperVDs(s *Shaper, ts mcs.TaskSet) oracle.Assignment {
	a := oracle.Assignment{}
	for i, t := range ts {
		if j := s.sawOf[i]; j >= 0 {
			a[t.ID] = s.HCVD(j)
		}
	}
	return a
}

func sameAssignment(a, b oracle.Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for id, d := range a {
		if b[id] != d {
			return false
		}
	}
	return true
}

// loWalkStats counts what checkLOWalks saw.
type loWalkStats struct{ walks, windowed, resumed, windowedFailed int }

// checkLOWalks makes s compare the verdict of every LO-mode walk — each
// LOFeasible, each try of a tuneStep — with a fresh loWalk(dbf.Free{}) from
// the horizon over the curves as walked, counting into st.
func checkLOWalks(t *testing.T, s *Shaper, st *loWalkStats) {
	var hook func(known dbf.Free, rose dbf.Windows, ok bool)
	hook = func(known dbf.Free, rose dbf.Windows, ok bool) {
		s.SetLOWalkHook(nil)
		_, want := s.loWalk(dbf.Free{}, dbf.Windows{})
		s.SetLOWalkHook(hook)
		if ok != want {
			t.Fatalf("LO walk via %+v and %+v says %v, the full walk %v, for steps %+v", known, rose, ok, want, s.steps)
		}
		st.walks++
		if rose != (dbf.Windows{}) {
			st.windowed++
			if !ok {
				st.windowedFailed++
			}
		}
		if known != (dbf.Free{}) {
			st.resumed++
		}
	}
	s.SetLOWalkHook(hook)
}

// stepBoth runs one shaping loop on the oracle's Engine (from a) and on the Shaper
// (from its current curves, which must describe a) in lockstep. It returns
// the verdict and the number of tuneSteps taken.
func stepBoth(t *testing.T, ts mcs.TaskSet, s *Shaper, a oracle.Assignment, maxIter int) (ok bool, steps int) {
	t.Helper()
	e := oracle.NewEngine()
	frozen := map[int]bool{}
	for j := range s.frozen {
		s.frozen[j] = false
	}
	for ; steps < maxIter; steps++ {
		wantW, wantOK := e.HIFeasible(ts, a)
		gotW, demand, gotOK := s.HIFeasible()
		if gotW != wantW || gotOK != wantOK {
			t.Fatalf("step %d: shaper HI (%d,%v), engine (%d,%v) for\n%v under %v", steps, gotW, gotOK, wantW, wantOK, ts, a)
		}
		if gotOK {
			return true, steps
		}
		wantMore := e.TuneStep(ts, a, frozen, wantW)
		gotMore := s.tuneStep(gotW, demand)
		if got := shaperVDs(s, ts); gotMore != wantMore || !sameAssignment(got, a) {
			t.Fatalf("step %d at witness %d: shaper (%v, %v), engine (%v, %v) for\n%v", steps, wantW, gotMore, got, wantMore, a, ts)
		}
		if !gotMore {
			return false, steps
		}
	}
	return false, steps
}

// diffShapingRuns compares every shaping run ECDF can start on ts. It
// reports how many tuneSteps the runs took in total.
func diffShapingRuns(t *testing.T, ts mcs.TaskSet, lo *loWalkStats) (steps int) {
	t.Helper()
	var s Shaper
	checkLOWalks(t, &s, lo)
	s.Reset(ts)
	if oracle.LOFeasible(ts, oracle.InitialAssignment(ts)) != s.LOFeasible() {
		t.Fatalf("loosest LO verdicts differ for\n%v", ts)
	}
	if !s.LOFeasible() {
		return 0
	}
	maxIter := DefaultOptions().maxIter()

	ok, n := stepBoth(t, ts, &s, oracle.InitialAssignment(ts), maxIter)
	steps += n
	// The loops the analyzers actually call must land where the lockstep
	// run did.
	var viaShape, viaResume Shaper
	checkLOWalks(t, &viaShape, lo) // never LO-checked: full walks until a try succeeds
	checkLOWalks(t, &viaResume, lo)
	viaShape.Reset(ts)
	viaResume.Reset(ts)
	w, demand, hiOK := viaResume.HIFeasible()
	if got := viaShape.Shape(maxIter); got != ok {
		t.Fatalf("Shape=%v, lockstep=%v for\n%v", got, ok, ts)
	}
	if got := hiOK || viaResume.ShapeResume(w, demand, maxIter); got != ok {
		t.Fatalf("ShapeResume=%v, lockstep=%v for\n%v", got, ok, ts)
	}
	if want := shaperVDs(&s, ts); !sameAssignment(shaperVDs(&viaShape, ts), want) || !sameAssignment(shaperVDs(&viaResume, ts), want) {
		t.Fatalf("Shape/ShapeResume end on other deadlines than the lockstep run for\n%v", ts)
	}

	for _, lambda := range restartLambdas {
		a := oracle.ScaledAssignment(ts, lambda)
		s.Scale(lambda)
		if !sameAssignment(shaperVDs(&s, ts), a) {
			t.Fatalf("λ=%g: scaled assignments differ for\n%v", lambda, ts)
		}
		if loOK := s.LOFeasible(); loOK != oracle.LOFeasible(ts, a) {
			t.Fatalf("λ=%g: LO verdicts differ for\n%v", lambda, ts)
		} else if !loOK {
			continue // the relaxation is ecdf's; its differential covers it
		}
		_, n := stepBoth(t, ts, &s, a, maxIter)
		steps += n
	}

	// The analyzers' warm path: back to the loosest curves, one task more,
	// that task dropped again. Every run leaves a certificate behind that
	// the next one must not see.
	s.RestoreLoosest()
	_, n = stepBoth(t, ts, &s, oracle.InitialAssignment(ts), maxIter)
	steps += n
	head, last := ts[:len(ts)-1], ts[len(ts)-1]
	s.Reset(head)
	if !s.LOFeasible() {
		return steps
	}
	_, n = stepBoth(t, head, &s, oracle.InitialAssignment(head), maxIter)
	steps += n
	s.RestoreLoosest()
	undo := s.Extend(last)
	_, n = stepBoth(t, ts, &s, oracle.InitialAssignment(ts), maxIter)
	steps += n
	s.Truncate(undo)
	s.RestoreLoosest()
	_, n = stepBoth(t, head, &s, oracle.InitialAssignment(head), maxIter)
	steps += n
	// A cold probe of a larger set after a run that was not restored.
	s.Reset(ts)
	_, n = stepBoth(t, ts, &s, oracle.InitialAssignment(ts), maxIter)
	return steps + n
}

func TestShaperMatchesEngineStepByStep(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	sets, steps := 0, 0
	var lo loWalkStats
	for sets < 300 {
		cfg := taskgen.DefaultConfig(1, 0.3+0.6*rng.Float64(), 0.1+0.3*rng.Float64(), 0.1+0.4*rng.Float64())
		cfg.NMin, cfg.NMax = 3, 10
		cfg.Constrained = true
		ts, err := taskgen.Generate(rng, cfg)
		if err != nil {
			continue
		}
		sets++
		steps += diffShapingRuns(t, ts, &lo)
	}
	if steps < 1000 {
		t.Fatalf("only %d tuneSteps over %d sets: corpus too tame", steps, sets)
	}
	if lo.windowed < 1000 || lo.windowedFailed < 100 || lo.resumed < 100 {
		t.Fatalf("corpus too tame: of %d LO walks %d windowed (%d of them failed), %d resumed", lo.walks, lo.windowed, lo.windowedFailed, lo.resumed)
	}
}

// TestShaperGrowingHorizon runs the shaping differential where shrinking a
// virtual deadline raises the periodic HI horizon and the next witness
// sits above everything the previous walk covered: the two task sets
// behind dbf's TestQPAResumeGrowingHorizon, and one (hyperperiod 1050)
// whose shaping run walks into the trap by itself — at its fourth step a
// walk that trusted its certificate above the old horizon reports 1045
// where the full walk reports 1069.
func TestShaperGrowingHorizon(t *testing.T) {
	for _, ts := range []mcs.TaskSet{
		{mcs.NewHCConstrained(0, 26, 179, 237, 218), mcs.NewHCConstrained(1, 2, 3, 14, 3)},
		{mcs.NewHCConstrained(0, 2, 4, 12, 11), mcs.NewHCConstrained(1, 1, 2, 4, 3), mcs.NewHCConstrained(2, 2, 2, 12, 9)},
		{
			mcs.NewHCConstrained(2, 1, 2, 14, 7), mcs.NewHCConstrained(0, 3, 5, 15, 12), mcs.NewHCConstrained(1, 1, 13, 25, 20),
			mcs.NewLCConstrained(3, 3, 481, 389), mcs.NewLCConstrained(4, 1, 12, 2), mcs.NewLCConstrained(5, 6, 206, 21),
		},
	} {
		if err := ts.Validate(); err != nil {
			t.Fatal(err)
		}
		diffShapingRuns(t, ts, &loWalkStats{})
	}
}
