package experiments

import (
	"fmt"
	"strings"
)

// Improvement summarizes how much one algorithm improves on a baseline over
// a sweep, in the style of the paper's headline numbers ("improvement ...
// as much as 28.1%"): the maximum acceptance-ratio gain over all UB buckets,
// expressed in percentage points.
type Improvement struct {
	// Algorithm and Baseline are the compared series names.
	Algorithm, Baseline string
	// MaxGainPts is max_UB (AR_alg − AR_base) in percentage points.
	MaxGainPts float64
	// AtUB is the UB value where the maximum gain occurs.
	AtUB float64
	// WARGainPts is the weighted-acceptance-ratio gain in percentage points.
	WARGainPts float64
}

// String renders the improvement like "CU-UDP-EDF-VD vs CA(nosort)-F-F-EDF-VD:
// +23.4pts @ UB=0.75 (WAR +6.2pts)".
func (im Improvement) String() string {
	return fmt.Sprintf("%s vs %s: %+.1fpts @ UB=%.2f (WAR %+.1fpts)",
		im.Algorithm, im.Baseline, im.MaxGainPts, im.AtUB, im.WARGainPts)
}

// Improve compares two series of the same sweep point-by-point.
func Improve(alg, base Series) Improvement {
	im := Improvement{Algorithm: alg.Name, Baseline: base.Name}
	for _, p := range alg.Points {
		b, ok := base.RatioAt(p.UB)
		if !ok {
			continue
		}
		gain := (p.Ratio() - b) * 100
		if gain > im.MaxGainPts {
			im.MaxGainPts = gain
			im.AtUB = p.UB
		}
	}
	im.WARGainPts = (alg.WAR() - base.WAR()) * 100
	return im
}

// ImprovementsVs compares every non-baseline series of the result against
// the named baseline. Unknown baselines yield an error.
func ImprovementsVs(r Result, baseline string) ([]Improvement, error) {
	base, ok := r.SeriesByName(baseline)
	if !ok {
		return nil, fmt.Errorf("experiments: baseline %q not in result", baseline)
	}
	var out []Improvement
	for _, s := range r.Series {
		if s.Name == baseline {
			continue
		}
		out = append(out, Improve(s, base))
	}
	return out, nil
}

// Summary formats a result as a fixed-width text table: one row per UB
// bucket, one column per algorithm, acceptance ratios in percent.
func Summary(r Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "m=%d PH=%.2f constrained=%v sets/UB=%d (gen failures %d, %v)\n",
		r.Config.M, r.Config.PH, r.Config.Constrained, r.Config.SetsPerUB, r.GenFailures, r.Elapsed.Round(1e6))
	fmt.Fprintf(&b, "%-6s", "UB")
	for _, s := range r.Series {
		fmt.Fprintf(&b, " %22s", s.Name)
	}
	b.WriteByte('\n')
	if len(r.Series) == 0 {
		return b.String()
	}
	for i, p := range r.Series[0].Points {
		fmt.Fprintf(&b, "%-6.2f", p.UB)
		for _, s := range r.Series {
			fmt.Fprintf(&b, " %21.1f%%", s.Points[i].Ratio()*100)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-6s", "WAR")
	for _, s := range r.Series {
		fmt.Fprintf(&b, " %21.1f%%", s.WAR()*100)
	}
	b.WriteByte('\n')
	return b.String()
}
