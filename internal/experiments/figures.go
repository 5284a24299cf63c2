package experiments

import (
	"fmt"

	"mcsched/internal/analysis/amc"
	"mcsched/internal/analysis/ecdf"
	"mcsched/internal/analysis/edfvd"
	"mcsched/internal/analysis/ey"
	"mcsched/internal/core"
)

// EDFVDTest returns the EDF-VD utilization test (implicit deadlines).
func EDFVDTest() core.Test { return edfvd.Test{} }

// ECDFTest returns the demand-bound ECDF test.
func ECDFTest() core.Test { return ecdf.Test{} }

// EYTest returns the Ekberg–Yi demand-bound test used by the baselines.
func EYTest() core.Test { return ey.Test{} }

// AMCTest returns the fixed-priority AMC-max test with Audsley priority
// assignment, the variant the paper evaluates.
func AMCTest() core.Test { return amc.Test{Opts: amc.DefaultOptions()} }

// strategy resolves a built-in strategy by name.
func strategy(name string) core.Strategy {
	s, ok := core.StrategyByName(name)
	if !ok {
		panic("experiments: unknown strategy " + name)
	}
	return s
}

// Figure3Algorithms are the implicit-deadline EDF-VD algorithms of Fig. 3:
// the two UDP strategies versus the speed-up-bound baseline of Baruah et al.
func Figure3Algorithms() []core.Algorithm {
	t := EDFVDTest()
	return []core.Algorithm{
		{Strategy: core.CAUDP(), Test: t},
		{Strategy: core.CUUDP(), Test: t},
		{Strategy: strategy("CA(nosort)-F-F"), Test: t},
	}
}

// Figure45Algorithms are the algorithms of Figs. 4 and 5: UDP paired with
// ECDF and AMC against the published EY-based baselines. The paper plots
// only the CU-UDP variants "for clarity"; the CA-UDP variants are included
// here so the claimed CA≲CU relation can be verified.
func Figure45Algorithms() []core.Algorithm {
	return []core.Algorithm{
		{Strategy: core.CUUDP(), Test: ECDFTest()},
		{Strategy: core.CUUDP(), Test: AMCTest()},
		{Strategy: core.CAUDP(), Test: ECDFTest()},
		{Strategy: core.CAUDP(), Test: AMCTest()},
		{Strategy: strategy("ECA-Wu-F"), Test: EYTest()},
		{Strategy: strategy("CA-F-F"), Test: EYTest()},
	}
}

// Figure6aAlgorithms are the implicit-deadline EDF-VD algorithms of Fig. 6a.
func Figure6aAlgorithms() []core.Algorithm { return Figure3Algorithms() }

// Figure6bAlgorithms are the constrained-deadline algorithms of Fig. 6b.
func Figure6bAlgorithms() []core.Algorithm { return Figure45Algorithms() }

// panel runs one panel of Figs. 3–5: PH=0.5 on m processors.
func panel(m, setsPerUB int, seed int64, constrained bool, algos []core.Algorithm) (Result, error) {
	return Run(Config{
		Population: Population{M: m, PH: 0.5, SetsPerUB: setsPerUB, Constrained: constrained, Seed: seed},
		Algorithms: algos,
	})
}

// Figure3 runs one panel of Fig. 3 (implicit deadlines, PH=0.5) for the
// given processor count.
func Figure3(m, setsPerUB int, seed int64) (Result, error) {
	return panel(m, setsPerUB, seed, false, Figure3Algorithms())
}

// Figure4 runs one panel of Fig. 4 (implicit deadlines, PH=0.5, ECDF/AMC vs
// EY baselines).
func Figure4(m, setsPerUB int, seed int64) (Result, error) {
	return panel(m, setsPerUB, seed, false, Figure45Algorithms())
}

// Figure5 runs one panel of Fig. 5 (constrained deadlines, PH=0.5).
func Figure5(m, setsPerUB int, seed int64) (Result, error) {
	return panel(m, setsPerUB, seed, true, Figure45Algorithms())
}

// PanelMs are the processor counts of the three panels of Figs. 3–5.
var PanelMs = []int{2, 4, 8}

// FigurePHs are the HC-task fractions swept by Fig. 6.
var FigurePHs = []float64{0.1, 0.3, 0.5, 0.7, 0.9}

// Fig6Ms are the processor counts swept by Fig. 6.
var Fig6Ms = []int{2, 4}

// Figure runs the named figure panel: "3", "4" or "5" with the panel's m.
func Figure(fig string, m, setsPerUB int, seed int64) (Result, error) {
	switch fig {
	case "3":
		return Figure3(m, setsPerUB, seed)
	case "4":
		return Figure4(m, setsPerUB, seed)
	case "5":
		return Figure5(m, setsPerUB, seed)
	default:
		return Result{}, fmt.Errorf("experiments: unknown figure %q (want 3, 4 or 5)", fig)
	}
}
