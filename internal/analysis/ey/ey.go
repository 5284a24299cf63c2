// Package ey implements a demand-bound-function schedulability test for
// dual-criticality sporadic task systems in the style of Ekberg & Yi,
// "Bounding and shaping the demand of mixed-criticality sporadic tasks"
// (ECRTS 2012): per-task virtual deadlines for HC tasks, a LO-mode EDF
// demand test on the shrunk deadlines, a HI-mode demand test with
// carry-over jobs (the Sawtooth curve in internal/analysis/dbf), and a
// greedy failure-guided shaping loop that trades LO-mode slack for HI-mode
// slack one task at a time.
//
// The demand bounds follow the published worst-case alignment; the shaping
// loop is a documented reconstruction (the original's tuning order is
// heuristic as well).
//
// The test has one search, the Shaper's: the demand curves live in
// positional arrays and are mutated in place as deadlines move. Analyze
// runs it cold on a fresh Shaper; the admission hot path holds one Shaper
// per core through the Analyzer and reuses it across probes. Within a
// run, a move that the greedy would repeat — same witness, same task,
// same shrink — is applied as often as the loop would repeat it, in one
// go (Shaper.fastForward), so the run ends on the loop's deadlines with
// a fraction of its walks. The stateless map-keyed search it replaced is
// package oracle's EY, which the tests check it against move by move.
//
// Package ecdf builds a stronger search on the same machinery, and ECDF is
// this package's Analyzer running that search: NewAnalyzer takes the
// search as its one parameter, and Test's analyzer runs Exact at the
// fixed iteration budget.
package ey

import "mcsched/internal/mcs"

// budget bounds the deadline adjustments of one shaping run.
const budget = 256

// Result reports the verdict and, when schedulable, the virtual-deadline
// assignment (task ID → LO-mode relative deadline for HC tasks).
type Result struct {
	Schedulable bool
	// VD maps HC task IDs to their assigned LO-mode virtual deadlines.
	// LC tasks keep their real deadlines and do not appear.
	VD map[int]mcs.Ticks
}

// Analyze runs the EY test on a fresh Shaper: the loosest assignment must
// pass the LO test (otherwise even plain EDF on LO parameters fails), then
// HI-mode failures are repaired by shrinking one virtual deadline at a
// time, checking that the LO test still holds after each move. It is the
// analyzer's cold exact run; the accepted assignment is read off the
// Shaper's curves.
func Analyze(ts mcs.TaskSet) Result {
	var s Shaper
	s.Reset(ts)
	if ok, _ := exact(&s); !ok {
		return Result{}
	}
	return Result{Schedulable: true, VD: s.VDs(ts)}
}

// Exact decides the curves s holds, which must be at the loosest
// assignment: the initial LO test, iteration zero's HI test, then the
// shaping loop continuing from its witness. shaped reports whether the
// shaping loop ran (vs a zero-iteration decision straight off the
// loosest curves). The Shaper is left at the assignment the run ended
// on.
func Exact(s *Shaper, maxIter int) (ok, shaped bool) {
	if !s.LOFeasible() {
		return false, false
	}
	w, demand, hiOK := s.HIFeasible()
	if hiOK {
		return true, false
	}
	return s.ShapeResume(w, demand, maxIter), true
}

// exact is EY's search: Exact at the fixed budget.
func exact(s *Shaper) (ok, shaped bool) { return Exact(s, budget) }

// Test is the partitioning-test adapter for EY.
type Test struct{}

// Name implements the test interface.
func (Test) Name() string { return "EY" }

// Schedulable implements the test interface.
func (Test) Schedulable(ts mcs.TaskSet) bool { return Analyze(ts).Schedulable }
