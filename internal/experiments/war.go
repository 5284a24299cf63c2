package experiments

import (
	"fmt"
	"time"

	"mcsched/internal/core"
)

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

// WARResult is the outcome of a WAR sweep: the acceptance sweep of every
// (m, PH) point. The WAR of algorithm ai at Ms[mi], PHs[pi] is
// Runs[mi][pi].Series[ai].WAR(), read off the point's per-bucket counts.
type WARResult struct {
	// Config echoes the sweep parameters.
	Config WARConfig
	// Runs[mi][pi] is the acceptance sweep at Config.Ms[mi] and
	// Config.PHs[pi].
	Runs [][]Result
	// GenFailures counts abandoned task-set draws.
	GenFailures int
	// Elapsed is the wall-clock duration.
	Elapsed time.Duration
}

// RunWAR runs the acceptance sweep of every (m, PH) point and keeps each.
// The seed is re-derived per (m, PH) so points are independent but
// reproducible; each point's Run validates the rest of the configuration.
func RunWAR(cfg WARConfig) (WARResult, error) {
	if len(cfg.Ms) == 0 || len(cfg.PHs) == 0 {
		return WARResult{}, fmt.Errorf("experiments: WAR sweep needs Ms and PHs")
	}
	start := time.Now()
	out := WARResult{Config: cfg, Runs: make([][]Result, len(cfg.Ms))}
	for mi, m := range cfg.Ms {
		for pi, ph := range cfg.PHs {
			res, err := Run(Config{
				Population: Population{
					M:           m,
					PH:          ph,
					SetsPerUB:   cfg.SetsPerUB,
					Constrained: cfg.Constrained,
					Seed:        deriveSeed(cfg.Seed, mi*1000+pi, 0),
				},
				Algorithms: cfg.Algorithms,
			})
			if err != nil {
				return WARResult{}, fmt.Errorf("experiments: WAR point m=%d PH=%g: %w", m, ph, err)
			}
			out.GenFailures += res.GenFailures
			out.Runs[mi] = append(out.Runs[mi], res)
		}
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
