package plot

import "mcsched/internal/experiments"

// FromSweep converts an acceptance-ratio sweep into a chart with UB on the
// x axis and acceptance ratio on the y axis, one series per algorithm —
// the layout of Figs. 3–5 of the paper.
func FromSweep(r experiments.Result, title string) Chart {
	c := Chart{
		Title:  title,
		XLabel: "UB (total normalized utilization)",
		YLabel: "acceptance ratio",
		YMax:   1,
	}
	for _, s := range r.Series {
		ps := Series{Name: s.Name}
		for _, p := range s.Points {
			ps.X = append(ps.X, p.UB)
			ps.Y = append(ps.Y, p.Ratio())
		}
		c.Series = append(c.Series, ps)
	}
	return c
}

// FromPlacement converts a placement-heuristic sweep into a chart with UB
// on the x axis and full-set acceptance ratio on the y axis, one series
// per heuristic — the online analogue of the Figs. 3–5 layout.
func FromPlacement(r experiments.PlacementResult, title string) Chart {
	c := Chart{
		Title:  title,
		XLabel: "UB (total normalized utilization)",
		YLabel: "full-set acceptance ratio",
		YMax:   1,
	}
	for _, s := range r.Scores {
		ps := Series{Name: s.Name}
		for _, p := range s.Series.Points {
			ps.X = append(ps.X, p.UB)
			ps.Y = append(ps.Y, p.Ratio())
		}
		c.Series = append(c.Series, ps)
	}
	return c
}

// FromWAR converts a weighted-acceptance-ratio sweep into a chart with PH
// on the x axis — the layout of Fig. 6.
func FromWAR(r experiments.WARResult, title string) Chart {
	c := Chart{
		Title:  title,
		XLabel: "PH (fraction of HC tasks)",
		YLabel: "weighted acceptance ratio",
		YMax:   1,
	}
	for _, s := range r.Series {
		ps := Series{Name: s.Label()}
		for _, p := range s.Points {
			ps.X = append(ps.X, p.PH)
			ps.Y = append(ps.Y, p.WAR)
		}
		c.Series = append(c.Series, ps)
	}
	return c
}
