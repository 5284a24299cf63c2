package mcsched

import (
	"mcsched/internal/experiments"
	"mcsched/internal/plot"
)

// ---------------------------------------------------------------------------
// Experiments: the paper's evaluation protocol
// ---------------------------------------------------------------------------

// ExperimentPopulation is the task-set population a sweep draws: one
// platform size, deadline model and PH, SetsPerUB sets per UB bucket.
// ExperimentConfig and PlacementExperimentConfig embed it.
type ExperimentPopulation = experiments.Population

// ExperimentConfig describes one acceptance-ratio sweep (Figs. 3–5 of the
// paper): a population and the algorithms evaluated on its task sets.
type ExperimentConfig = experiments.Config

// ExperimentResult holds one acceptance-ratio curve per algorithm.
type ExperimentResult = experiments.Result

// ExperimentSeries is one algorithm's acceptance curve.
type ExperimentSeries = experiments.Series

// WARConfig describes a weighted-acceptance-ratio sweep over PH (Fig. 6).
type WARConfig = experiments.WARConfig

// WARResult holds the acceptance sweep of every (m, PH) point of a WAR
// sweep, whose counts each WAR is read off.
type WARResult = experiments.WARResult

// Improvement summarizes one algorithm's gain over a baseline in the style
// of the paper's headline numbers.
type Improvement = experiments.Improvement

// PlacementExperimentConfig describes a multi-criteria sweep of the online
// placement heuristics: every named (or, by default, every registered)
// placer is scored on a population's task sets along acceptance,
// fragmentation and analysis-cost axes.
type PlacementExperimentConfig = experiments.PlacementConfig

// PlacementExperimentResult holds one PlacementScore per heuristic.
type PlacementExperimentResult = experiments.PlacementResult

// PlacementScore is one heuristic's aggregate: task- and set-level
// acceptance, post-release fragmentation, analysis probes per task, and a
// per-UB acceptance curve.
type PlacementScore = experiments.PlacementScore

// RunExperiment executes an acceptance-ratio sweep over
// runtime.GOMAXPROCS(0) workers (as do the placement and WAR sweeps); the
// curves do not depend on the width.
func RunExperiment(cfg ExperimentConfig) (ExperimentResult, error) {
	return experiments.Run(cfg)
}

// RunPlacementExperiment executes a placement-heuristic sweep.
func RunPlacementExperiment(cfg PlacementExperimentConfig) (PlacementExperimentResult, error) {
	return experiments.RunPlacement(cfg)
}

// PlacementExperimentSummary formats a placement sweep as a fixed-width
// text table, one row per heuristic.
func PlacementExperimentSummary(r PlacementExperimentResult) string {
	return experiments.PlacementSummary(r)
}

// RunWARExperiment executes a weighted-acceptance-ratio sweep.
func RunWARExperiment(cfg WARConfig) (WARResult, error) {
	return experiments.RunWAR(cfg)
}

// Figure3 regenerates one panel of the paper's Fig. 3 (implicit deadlines,
// EDF-VD, PH=0.5) at the given platform size.
func Figure3(m, setsPerUB int, seed int64) (ExperimentResult, error) {
	return experiments.Figure3(m, setsPerUB, seed)
}

// Figure4 regenerates one panel of Fig. 4 (implicit deadlines, ECDF and AMC
// versus the EY baselines).
func Figure4(m, setsPerUB int, seed int64) (ExperimentResult, error) {
	return experiments.Figure4(m, setsPerUB, seed)
}

// Figure5 regenerates one panel of Fig. 5 (constrained deadlines).
func Figure5(m, setsPerUB int, seed int64) (ExperimentResult, error) {
	return experiments.Figure5(m, setsPerUB, seed)
}

// Figure6a regenerates Fig. 6a (implicit deadlines, WAR versus PH).
func Figure6a(setsPerUB int, seed int64) (WARResult, error) {
	return experiments.Figure6a(setsPerUB, seed)
}

// Figure6b regenerates Fig. 6b (constrained deadlines, WAR versus PH).
func Figure6b(setsPerUB int, seed int64) (WARResult, error) {
	return experiments.Figure6b(setsPerUB, seed)
}

// Figure3Algorithms returns the algorithms of Fig. 3.
func Figure3Algorithms() []Algorithm { return experiments.Figure3Algorithms() }

// Figure45Algorithms returns the algorithms of Figs. 4 and 5.
func Figure45Algorithms() []Algorithm { return experiments.Figure45Algorithms() }

// ImprovementsVs compares every series of a result against the named
// baseline.
func ImprovementsVs(r ExperimentResult, baseline string) ([]Improvement, error) {
	return experiments.ImprovementsVs(r, baseline)
}

// SpeedupSurvey is the empirical minimum-speed distribution of an
// algorithm, the companion measurement to the 8/3 speed-up theorem that
// UDP-EDF-VD inherits.
type SpeedupSurvey = experiments.SpeedupSurvey

// SpeedScaled returns the task set as seen by a processor s times faster
// (budgets ⌈C/s⌉, utilizations rederived).
func SpeedScaled(ts TaskSet, s float64) TaskSet { return experiments.SpeedScaled(ts, s) }

// MinSpeed measures the smallest processor speed at which the algorithm
// accepts the task set on m processors (binary search to tol, capped at
// maxSpeed).
func MinSpeed(algo Algorithm, ts TaskSet, m int, maxSpeed, tol float64) (float64, bool) {
	return experiments.MinSpeed(algo, ts, m, maxSpeed, tol)
}

// RunSpeedupSurvey measures MinSpeed over generated task sets with
// realized UB ≤ ubCap.
func RunSpeedupSurvey(algo Algorithm, m, sets int, ubCap float64, seed int64) (SpeedupSurvey, error) {
	return experiments.RunSpeedupSurvey(algo, m, sets, ubCap, seed)
}

// ExperimentSummary renders a result as a fixed-width text table.
func ExperimentSummary(r ExperimentResult) string { return experiments.Summary(r) }

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

// Chart is a plottable collection of named series.
type Chart = plot.Chart

// ChartSeries is one line of a Chart.
type ChartSeries = plot.Series

// ChartFromExperiment converts a sweep into an acceptance-ratio chart.
func ChartFromExperiment(r ExperimentResult, title string) Chart {
	return plot.FromSweep(r.Series, title, "acceptance ratio")
}

// ChartFromWAR converts a WAR sweep into a chart with PH on the x axis.
func ChartFromWAR(r WARResult, title string) Chart { return plot.FromWAR(r, title) }

// ChartFromPlacement converts a placement sweep into a chart of full-set
// acceptance over UB, one series per heuristic.
func ChartFromPlacement(r PlacementExperimentResult, title string) Chart {
	curves := make([]ExperimentSeries, len(r.Scores))
	for i, s := range r.Scores {
		curves[i] = s.Series
	}
	return plot.FromSweep(curves, title, "full-set acceptance ratio")
}

// RenderASCII renders a chart as a width×height text canvas.
func RenderASCII(c Chart, width, height int) (string, error) {
	return plot.ASCII(c, width, height)
}

// RenderCSV renders a chart as a comma-separated table.
func RenderCSV(c Chart) (string, error) { return plot.CSV(c) }

// RenderSVG renders a chart as a standalone SVG document.
func RenderSVG(c Chart, width, height int) (string, error) {
	return plot.SVG(c, width, height)
}
