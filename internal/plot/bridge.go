package plot

import (
	"fmt"

	"mcsched/internal/experiments"
)

// FromSweep converts a sweep's acceptance curves into a chart with UB on
// the x axis and the ratio named by yLabel on the y axis, one series per
// curve: the layout of Figs. 3–5 of the paper for an acceptance-ratio
// sweep, and its online analogue for the placement heuristics' full-set
// curves.
func FromSweep(series []experiments.Series, title, yLabel string) Chart {
	c := Chart{
		Title:  title,
		XLabel: "UB (total normalized utilization)",
		YLabel: yLabel,
		YMax:   1,
	}
	for _, s := range series {
		ps := Series{Name: s.Name}
		for _, p := range s.Points {
			ps.X = append(ps.X, p.UB)
			ps.Y = append(ps.Y, p.Ratio())
		}
		c.Series = append(c.Series, ps)
	}
	return c
}

// FromWAR converts a weighted-acceptance-ratio sweep into a chart with PH
// on the x axis, one series per (m, algorithm), algorithms varying
// fastest — the layout of Fig. 6.
func FromWAR(r experiments.WARResult, title string) Chart {
	c := Chart{
		Title:  title,
		XLabel: "PH (fraction of HC tasks)",
		YLabel: "weighted acceptance ratio",
		YMax:   1,
	}
	for mi, m := range r.Config.Ms {
		for ai, algo := range r.Config.Algorithms {
			ps := Series{Name: fmt.Sprintf("%s (m=%d)", algo.Name(), m)}
			for pi, ph := range r.Config.PHs {
				ps.X = append(ps.X, ph)
				ps.Y = append(ps.Y, r.Runs[mi][pi].Series[ai].WAR())
			}
			c.Series = append(c.Series, ps)
		}
	}
	return c
}
