package experiments

import (
	"fmt"
	"time"

	"mcsched/internal/core"
)

// WARPoint is one (PH, WAR) sample of a Fig. 6-style sweep.
type WARPoint struct {
	// PH is the HC-task fraction of the sample.
	PH float64
	// WAR is the weighted acceptance ratio over the full UB grid.
	WAR float64
	// Sets is the number of task sets aggregated into the sample.
	Sets int
}

// WARSeries is the WAR curve of one algorithm on one platform size.
type WARSeries struct {
	// Name is the algorithm name.
	Name string
	// M is the processor count of the platform.
	M int
	// Points are ordered by increasing PH.
	Points []WARPoint
}

// Label renders the plot label "<name> (m=<M>)".
func (s WARSeries) Label() string { return fmt.Sprintf("%s (m=%d)", s.Name, s.M) }

// WARConfig describes a weighted-acceptance-ratio sweep (Fig. 6).
type WARConfig struct {
	// Ms are the platform sizes (paper: {2, 4}).
	Ms []int
	// PHs are the HC-task fractions (paper: {0.1, 0.3, 0.5, 0.7, 0.9}).
	PHs []float64
	// SetsPerUB is the number of task sets per UB bucket per (m, PH).
	SetsPerUB int
	// Constrained selects the deadline model.
	Constrained bool
	// Seed is the base seed.
	Seed int64
	// Algorithms are evaluated on the same task sets.
	Algorithms []core.Algorithm
}

// WARResult is the outcome of a WAR sweep.
type WARResult struct {
	// Config echoes the sweep parameters.
	Config WARConfig
	// Series holds one curve per (algorithm, m), algorithms varying fastest.
	Series []WARSeries
	// GenFailures counts abandoned task-set draws.
	GenFailures int
	// Elapsed is the wall-clock duration.
	Elapsed time.Duration
}

// RunWAR sweeps PH for every platform size, computing the WAR of each
// algorithm at each point. The seed is re-derived per (m, PH) so points are
// independent but reproducible.
func RunWAR(cfg WARConfig) (WARResult, error) {
	if len(cfg.Ms) == 0 || len(cfg.PHs) == 0 {
		return WARResult{}, fmt.Errorf("experiments: WAR sweep needs Ms and PHs")
	}
	if cfg.SetsPerUB <= 0 {
		return WARResult{}, fmt.Errorf("experiments: SetsPerUB=%d must be positive", cfg.SetsPerUB)
	}
	if len(cfg.Algorithms) == 0 {
		return WARResult{}, fmt.Errorf("experiments: no algorithms")
	}
	start := time.Now()

	out := WARResult{Config: cfg}
	series := make(map[string]*WARSeries)
	order := []string{}
	for _, m := range cfg.Ms {
		for _, algo := range cfg.Algorithms {
			key := fmt.Sprintf("%s|%d", algo.Name(), m)
			s := &WARSeries{Name: algo.Name(), M: m}
			series[key] = s
			order = append(order, key)
		}
	}

	for mi, m := range cfg.Ms {
		for pi, ph := range cfg.PHs {
			res, err := Run(Config{
				M:           m,
				PH:          ph,
				SetsPerUB:   cfg.SetsPerUB,
				Constrained: cfg.Constrained,
				Seed:        deriveSeed(cfg.Seed, mi*1000+pi, 0),
				Algorithms:  cfg.Algorithms,
			})
			if err != nil {
				return WARResult{}, fmt.Errorf("experiments: WAR point m=%d PH=%g: %w", m, ph, err)
			}
			out.GenFailures += res.GenFailures
			for _, s := range res.Series {
				key := fmt.Sprintf("%s|%d", s.Name, m)
				sets := 0
				for _, p := range s.Points {
					sets += p.Total
				}
				series[key].Points = append(series[key].Points, WARPoint{
					PH:   ph,
					WAR:  s.WAR(),
					Sets: sets,
				})
			}
		}
	}

	for _, key := range order {
		out.Series = append(out.Series, *series[key])
	}
	out.Elapsed = time.Since(start)
	return out, nil
}

// Figure6a runs the implicit-deadline EDF-VD WAR sweep of Fig. 6a.
func Figure6a(setsPerUB int, seed int64) (WARResult, error) {
	return RunWAR(WARConfig{
		Ms:         Fig6Ms,
		PHs:        FigurePHs,
		SetsPerUB:  setsPerUB,
		Seed:       seed,
		Algorithms: Figure6aAlgorithms(),
	})
}

// Figure6b runs the constrained-deadline AMC/ECDF WAR sweep of Fig. 6b.
func Figure6b(setsPerUB int, seed int64) (WARResult, error) {
	return RunWAR(WARConfig{
		Ms:          Fig6Ms,
		PHs:         FigurePHs,
		SetsPerUB:   setsPerUB,
		Constrained: true,
		Seed:        seed,
		Algorithms:  Figure6bAlgorithms(),
	})
}
