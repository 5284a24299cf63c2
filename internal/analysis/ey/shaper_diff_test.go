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

// runStats counts what checkLOWalks and stepBoth saw: LO-mode walks, and
// fast-forwarded runs of shaping moves (ffs of them, long with k ≥ 2) by
// the condition that ended each.
type runStats struct {
	walks, windowed, resumed, windowedFailed int
	ffs, long                                int
	stops                                    [numStops]int
}

// Why a fast-forward stopped where it did (Shaper.fastForward's
// conditions, in the order it checks them).
const (
	stopBudget = iota
	stopClamp
	stopValue
	stopHorizon
	stopLO
	numStops
)

var stopNames = [numStops]string{"budget", "clamp", "value change", "horizon", "LO failure"}

// checkLOWalks makes s compare the verdict of every LO-mode walk — each
// LOFeasible, each try of a tuneStep — with a fresh loWalk(dbf.Free{}) from
// the horizon over the curves as walked, counting into st.
func checkLOWalks(t *testing.T, s *Shaper, st *runStats) {
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
// (from its current curves, which must describe a) in lockstep. After
// every tuneStep whose first try moved a deadline it fast-forwards the
// Shaper and advances the Engine as many tuneSteps, each of which must
// start from the same witness and repeat the same move. It returns the
// verdict and the number of iterations taken.
func stepBoth(t *testing.T, ts mcs.TaskSet, s *Shaper, a oracle.Assignment, maxIter int, st *runStats) (ok bool, steps int) {
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
		before := a.Clone()
		wantMore := e.TuneStep(ts, a, frozen, wantW)
		first, gotMore := s.tuneStep(gotW, demand)
		if got := shaperVDs(s, ts); gotMore != wantMore || !sameAssignment(got, a) {
			t.Fatalf("step %d at witness %d: shaper (%v, %v), engine (%v, %v) for\n%v", steps, wantW, gotMore, got, wantMore, a, ts)
		}
		if !gotMore {
			return false, steps
		}
		if first < 0 {
			continue
		}
		id := ts[s.taskOf[first]].ID
		needed := before[id] - a[id]
		budget := maxIter - steps - 1
		k := s.fastForward(first, gotW, demand, budget)
		st.stops[whyStopped(t, ts, a, id, gotW, demand, needed, k, budget)]++
		for i := 0; i < k; i++ {
			steps++
			want := a[id] - needed
			if w, ok := e.HIFeasible(ts, a); ok || w != gotW {
				t.Fatalf("step %d, move %d of %d fast-forwarded from witness %d: the engine's walk says (%d, %v) for\n%v under %v", steps, i+1, k, gotW, w, ok, ts, a)
			}
			if !e.TuneStep(ts, a, frozen, gotW) || a[id] != want {
				t.Fatalf("step %d, move %d of %d fast-forwarded: the engine moved to %v, not task %d to %d, for\n%v", steps, i+1, k, a, id, want, ts)
			}
		}
		if got := shaperVDs(s, ts); !sameAssignment(got, a) {
			t.Fatalf("step %d: %d moves fast-forwarded to %v, the engine's to %v, for\n%v", steps, k, got, a, ts)
		}
		st.ffs++
		if k >= 2 {
			st.long++
		}
	}
	return false, steps
}

// whyStopped names the condition that ended a fast-forward of k moves of
// task id by needed from assignment a (after the first move), witness w
// and demand there W, with budget iterations left, and fails unless the
// conditions held for a (k+1)-th move up to that one. It computes each
// from the oracle's curves and a full horizon fold, not from the Shaper.
func whyStopped(t *testing.T, ts mcs.TaskSet, a oracle.Assignment, id int, w, W, needed mcs.Ticks, k, budget int) int {
	t.Helper()
	if k < 0 || k > budget {
		t.Fatalf("fast-forward of %d moves with %d iterations left", k, budget)
	}
	if k == budget {
		return stopBudget
	}
	var task mcs.Task
	for _, x := range ts {
		if x.ID == id {
			task = x
		}
	}
	vd := a[id] - mcs.Ticks(k)*needed // the deadline the (k+1)-th move starts from
	if vd-needed < task.CLo() {
		return stopClamp
	}
	saw := func(d mcs.Ticks) dbf.Sawtooth {
		return dbf.Sawtooth{CL: task.CLo(), CH: task.CHi(), D: task.Deadline, VD: d, T: task.Period}
	}
	if saw(vd).Value(w) != saw(a[id]+needed).Value(w) {
		return stopValue
	}
	horizon := func(d mcs.Ticks) (mcs.Ticks, bool) {
		b := a.Clone()
		b[id] = d
		var acc dbf.HIAccum
		for _, sw := range oracle.HICurves(ts, b) {
			acc.Add(sw)
		}
		return dbf.Horizon(acc.U, acc.Off, acc.MaxOff, acc.Hyper, acc.HyperOK)
	}
	L0, ok0 := horizon(a[id] + needed)
	if L, ok := horizon(vd); !ok || !ok0 || L < W || L > L0 {
		return stopHorizon
	}
	b := a.Clone()
	b[id] = vd - needed
	if oracle.LOFeasible(ts, b) {
		t.Fatalf("fast-forward stopped after %d of %d moves with every condition holding for the next one, for\n%v", k, budget, ts)
	}
	return stopLO
}

// diffShapingRuns compares every shaping run ECDF can start on ts, under
// an iteration budget of maxIter. It reports how many iterations the runs
// took in total.
func diffShapingRuns(t *testing.T, ts mcs.TaskSet, maxIter int, st *runStats) (steps int) {
	t.Helper()
	var s Shaper
	checkLOWalks(t, &s, st)
	s.Reset(ts)
	if oracle.LOFeasible(ts, oracle.InitialAssignment(ts)) != s.LOFeasible() {
		t.Fatalf("loosest LO verdicts differ for\n%v", ts)
	}
	if !s.LOFeasible() {
		return 0
	}
	ok, n := stepBoth(t, ts, &s, oracle.InitialAssignment(ts), maxIter, st)
	steps += n
	// The loops the analyzers actually call must land where the lockstep
	// run did.
	var viaShape, viaResume Shaper
	checkLOWalks(t, &viaShape, st) // never LO-checked: full walks until a try succeeds
	checkLOWalks(t, &viaResume, st)
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
		_, n := stepBoth(t, ts, &s, a, maxIter, st)
		steps += n
	}

	// The analyzers' warm path: back to the loosest curves, one task more,
	// that task dropped again. Every run leaves a certificate behind that
	// the next one must not see.
	s.RestoreLoosest()
	_, n = stepBoth(t, ts, &s, oracle.InitialAssignment(ts), maxIter, st)
	steps += n
	head, last := ts[:len(ts)-1], ts[len(ts)-1]
	s.Reset(head)
	if !s.LOFeasible() {
		return steps
	}
	_, n = stepBoth(t, head, &s, oracle.InitialAssignment(head), maxIter, st)
	steps += n
	s.RestoreLoosest()
	undo := s.Extend(last)
	_, n = stepBoth(t, ts, &s, oracle.InitialAssignment(ts), maxIter, st)
	steps += n
	s.Truncate(undo)
	s.RestoreLoosest()
	_, n = stepBoth(t, head, &s, oracle.InitialAssignment(head), maxIter, st)
	steps += n
	// A cold probe of a larger set after a run that was not restored.
	s.Reset(ts)
	_, n = stepBoth(t, ts, &s, oracle.InitialAssignment(ts), maxIter, st)
	return steps + n
}

func TestShaperMatchesEngineStepByStep(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	sets, steps := 0, 0
	var st runStats
	for sets < 300 {
		cfg := taskgen.DefaultConfig(1, 0.3+0.6*rng.Float64(), 0.1+0.3*rng.Float64(), 0.1+0.4*rng.Float64())
		cfg.NMin, cfg.NMax = 3, 10
		cfg.Constrained = true
		ts, err := taskgen.Generate(rng, cfg)
		if err != nil {
			continue
		}
		sets++
		steps += diffShapingRuns(t, ts, budget, &st)
	}
	if steps < 1000 {
		t.Fatalf("only %d tuneSteps over %d sets: corpus too tame", steps, sets)
	}
	if st.windowed < 1000 || st.windowedFailed < 100 || st.resumed < 100 {
		t.Fatalf("corpus too tame: of %d LO walks %d windowed (%d of them failed), %d resumed", st.walks, st.windowed, st.windowedFailed, st.resumed)
	}
	if st.long < 1000 {
		t.Fatalf("corpus too tame: %d fast-forwards, only %d of two moves or more", st.ffs, st.long)
	}
	for why, n := range st.stops {
		// TestShaperFastForwardBudget runs out of iterations on purpose.
		if n == 0 && why != stopBudget {
			t.Fatalf("corpus too tame: no fast-forward stopped on %s (stops %v)", stopNames[why], st.stops)
		}
	}
}

// TestShaperFastForwardBudget runs the shaping differential under every
// budget up to 12 iterations on a set whose first move repeats seven
// times, so fast-forwards stop at the budget's edge and Shape and
// ShapeResume must end where the loop runs out.
func TestShaperFastForwardBudget(t *testing.T) {
	ts := mcs.TaskSet{mcs.NewHCConstrained(1, 6, 23, 29, 24), mcs.NewLCConstrained(2, 9, 52, 49), mcs.NewHCConstrained(0, 24, 44, 320, 99)}
	if err := ts.Validate(); err != nil {
		t.Fatal(err)
	}
	var st runStats
	for maxIter := 1; maxIter <= 12; maxIter++ {
		diffShapingRuns(t, ts, maxIter, &st)
	}
	if st.stops[stopBudget] < 5 {
		t.Fatalf("only %d fast-forwards stopped at the budget (stops %v)", st.stops[stopBudget], st.stops)
	}
}

// TestShaperGrowingHorizon runs the shaping differential where shrinking a
// virtual deadline raises the periodic HI horizon and the next witness
// sits above everything the previous walk covered: the two task sets
// behind dbf's TestQPAResumeGrowingHorizon, one (hyperperiod 1050)
// whose shaping run walks into the trap by itself — at its fourth step a
// walk that trusted its certificate above the old horizon reports 1045
// where the full walk reports 1069 — and one where a run of repeated
// moves raises the horizon past the one its witness was found under, so
// the fast-forward must stop on its horizon condition (without it the
// next walk's witness is not the one fast-forwarded from).
func TestShaperGrowingHorizon(t *testing.T) {
	var st runStats
	for _, ts := range []mcs.TaskSet{
		{mcs.NewHCConstrained(0, 26, 179, 237, 218), mcs.NewHCConstrained(1, 2, 3, 14, 3)},
		{mcs.NewHCConstrained(0, 2, 4, 12, 11), mcs.NewHCConstrained(1, 1, 2, 4, 3), mcs.NewHCConstrained(2, 2, 2, 12, 9)},
		{
			mcs.NewHCConstrained(2, 1, 2, 14, 7), mcs.NewHCConstrained(0, 3, 5, 15, 12), mcs.NewHCConstrained(1, 1, 13, 25, 20),
			mcs.NewLCConstrained(3, 3, 481, 389), mcs.NewLCConstrained(4, 1, 12, 2), mcs.NewLCConstrained(5, 6, 206, 21),
		},
		{mcs.NewHCConstrained(0, 20, 44, 91, 90), mcs.NewHCConstrained(1, 1, 7, 14, 9), mcs.NewLCConstrained(2, 8, 43, 36)},
	} {
		if err := ts.Validate(); err != nil {
			t.Fatal(err)
		}
		diffShapingRuns(t, ts, budget, &st)
	}
	if st.stops[stopHorizon] == 0 {
		t.Fatalf("no fast-forward stopped on the horizon (stops %v)", st.stops)
	}
}

// FuzzShaperFastForward checks the shaping loops the analyzers call, fast
// forwards included, against package oracle on small constrained sets
// drawn from the fuzzed generator parameters and iteration budget (0
// means the analyzers' 256, budgetOr): Exact on a fresh Shaper — the
// analyzer's cold run — against oracle.EY, and Shape and
// ShapeResume from the loosest and from a λ-scaled assignment against the
// oracle Engine's loop (the one oracle.ShapeFrom runs) from the same one,
// on the verdict and on the deadlines the run ends on, accepted or not.
// Short periods keep the horizons small and the runs of repeated moves
// long.
func FuzzShaperFastForward(f *testing.F) {
	f.Add(int64(16), uint8(80), uint8(30), uint8(30), uint16(300), uint8(3), uint8(0), uint8(50))
	f.Add(int64(1626), uint8(81), uint8(44), uint8(30), uint16(200), uint8(7), uint8(9), uint8(80))
	f.Add(int64(239), uint8(79), uint8(19), uint8(38), uint16(60), uint8(0), uint8(3), uint8(20))
	f.Add(int64(793), uint8(91), uint8(50), uint8(16), uint16(500), uint8(8), uint8(40), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, uhh, ulh, ull uint8, tmax uint16, n, iters, lambda uint8) {
		hh := float64(uhh%100) / 100
		lh := float64(ulh%100) / 100
		if lh > hh {
			lh = hh
		}
		cfg := taskgen.DefaultConfig(1, hh, lh, float64(ull%100)/100)
		cfg.NMin = 2 + int(n%7)
		cfg.NMax = cfg.NMin + 2
		cfg.TMax = cfg.TMin + mcs.Ticks(tmax%1000)
		cfg.Constrained = true
		ts, err := taskgen.Generate(rand.New(rand.NewSource(seed)), cfg)
		if err != nil {
			return // infeasible generator draw
		}
		maxIter := budgetOr(int(iters))

		var cold Shaper
		cold.Reset(ts)
		got, _ := Exact(&cold, maxIter)
		want := oracle.EY(ts, maxIter)
		if gotVD := cold.VDs(ts); got != want.Schedulable || got && !sameAssignment(gotVD, want.VD) {
			t.Fatalf("Exact=%v %v, oracle.EY=%v %v for\n%v", got, gotVD, want.Schedulable, want.VD, ts)
		}
		for _, a := range []oracle.Assignment{oracle.InitialAssignment(ts), oracle.ScaledAssignment(ts, float64(lambda%101)/100)} {
			wantA := a.Clone()
			_, wantOK := oracle.NewEngine().Shape(ts, wantA, map[int]bool{}, maxIter)
			var viaShape, viaResume Shaper
			for _, s := range []*Shaper{&viaShape, &viaResume} {
				s.Reset(ts)
				for j := range s.saws {
					s.SetHCVD(j, a[ts[s.taskOf[j]].ID])
				}
			}
			shaped := viaShape.Shape(maxIter)
			w, demand, hiOK := viaResume.HIFeasible()
			resumed := hiOK || viaResume.ShapeResume(w, demand, maxIter)
			for _, run := range []struct {
				name string
				s    *Shaper
				ok   bool
			}{{"Shape", &viaShape, shaped}, {"ShapeResume", &viaResume, resumed}} {
				if gotA := shaperVDs(run.s, ts); run.ok != wantOK || !sameAssignment(gotA, wantA) {
					t.Fatalf("%s from %v under budget %d: %v on %v, the oracle %v on %v, for\n%v", run.name, a, maxIter, run.ok, gotA, wantOK, wantA, ts)
				}
			}
		}
	})
}

// budgetOr reads a fuzzed iteration budget: b ≤ 0 means the analyzers'
// fixed budget of 256.
func budgetOr(b int) int {
	if b <= 0 {
		return budget
	}
	return b
}
