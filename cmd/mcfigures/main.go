// Command mcfigures regenerates the evaluation figures of Ramanathan &
// Easwaran (DATE 2017). Each figure is an acceptance-ratio or weighted-
// acceptance-ratio sweep over the paper's task-set generator grid; the tool
// writes CSV and SVG files per panel, prints ASCII charts and summary
// tables, and reports the headline improvement numbers next to the values
// the paper quotes.
//
//	mcfigures -fig 3 -sets 1000 -out results/        # full Fig. 3 (a,b,c)
//	mcfigures -fig all -sets 200                      # everything, reduced
//	mcfigures -fig 6a -sets 100 -ascii=false          # files only
//
// With -sets 1000 the sweeps match the paper's sample counts; smaller
// values trade precision for time (200 is usually indistinguishable by
// eye).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mcsched"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 3, 4, 5, 6a, 6b, placement or all")
	sets := flag.Int("sets", 200, "task sets per UB bucket (paper: 1000)")
	seed := flag.Int64("seed", 2017, "base RNG seed")
	outDir := flag.String("out", "figures", "output directory for CSV/SVG files")
	ascii := flag.Bool("ascii", true, "print ASCII charts to stdout")
	svg := flag.Bool("svg", true, "write SVG files")
	csv := flag.Bool("csv", true, "write CSV files")
	ms := flag.String("m", "2,4,8", "processor counts for Figs. 3-5")
	speedup := flag.Bool("speedup", false, "also run the empirical minimum-speed survey (8/3 bound companion)")
	flag.Parse()

	if err := run(*fig, *sets, *seed, *outDir, *ascii, *svg, *csv, *ms); err != nil {
		fmt.Fprintf(os.Stderr, "mcfigures: %v\n", err)
		os.Exit(1)
	}
	if *speedup {
		if err := runSpeedup(*sets, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "mcfigures: speedup: %v\n", err)
			os.Exit(1)
		}
	}
}

// runSpeedup prints the minimum-speed survey for both UDP strategies under
// EDF-VD — the empirical companion to the inherited 8/3 speed-up bound.
func runSpeedup(sets int, seed int64) error {
	fmt.Println("empirical speed-up survey (UB ≤ 1, EDF-VD, m=4, theoretical bound 8/3 ≈ 2.667):")
	for _, name := range []string{"CA-UDP", "CU-UDP"} {
		strat, ok := mcsched.StrategyByName(name)
		if !ok {
			return fmt.Errorf("strategy %q missing from the registry", name)
		}
		algo := mcsched.Algorithm{Strategy: strat, Test: mcsched.EDFVD()}
		survey, err := mcsched.RunSpeedupSurvey(algo, 4, sets, 1.0, seed)
		if err != nil {
			return err
		}
		fmt.Printf("  %v\n", survey)
	}
	return nil
}

func run(fig string, sets int, seed int64, outDir string, ascii, svg, csv bool, msFlag string) error {
	if sets <= 0 {
		return fmt.Errorf("-sets must be positive")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	ms, err := parseMs(msFlag)
	if err != nil {
		return err
	}

	want := func(f string) bool { return fig == "all" || fig == f }
	start := time.Now()

	if want("3") {
		if err := panelFigure("3", ms, sets, seed, outDir, ascii, svg, csv, mcsched.Figure3,
			"CA(nosort)-F-F-EDF-VD",
			map[int]float64{2: 13.3, 4: 22.8, 8: 28.1}); err != nil {
			return err
		}
	}
	if want("4") {
		if err := panelFigure("4", ms, sets, seed, outDir, ascii, svg, csv, mcsched.Figure4,
			"CA-F-F-EY",
			map[int]float64{2: 9.8, 4: 15.2, 8: 15.7}); err != nil {
			return err
		}
	}
	if want("5") {
		if err := panelFigure("5", ms, sets, seed, outDir, ascii, svg, csv, mcsched.Figure5,
			"CA-F-F-EY",
			map[int]float64{2: 12.6, 4: 20.8, 8: 36.2}); err != nil {
			return err
		}
	}
	if want("6a") {
		if err := warFigure("6a", sets, seed, outDir, ascii, svg, csv, mcsched.Figure6a, false); err != nil {
			return err
		}
	}
	if want("6b") {
		if err := warFigure("6b", sets, seed, outDir, ascii, svg, csv, mcsched.Figure6b, true); err != nil {
			return err
		}
	}
	if want("placement") {
		for _, m := range ms {
			if err := placementFigure(m, sets, seed, outDir, ascii, svg, csv); err != nil {
				return err
			}
		}
	}
	fmt.Printf("done in %v; outputs in %s\n", time.Since(start).Round(time.Millisecond), outDir)
	return nil
}

// placementFigure scores every registered online placement heuristic on
// the acceptance / fragmentation / analysis-cost axes at one platform
// size, printing the multi-criteria table and emitting the full-set
// acceptance chart.
func placementFigure(m, sets int, seed int64, outDir string, ascii, svg, csv bool) error {
	res, err := mcsched.RunPlacementExperiment(mcsched.PlacementExperimentConfig{
		Population: mcsched.ExperimentPopulation{M: m, PH: 0.5, SetsPerUB: sets, Seed: seed},
	})
	if err != nil {
		return fmt.Errorf("placement m=%d: %w", m, err)
	}
	title := fmt.Sprintf("Placement heuristics — full-set acceptance, m=%d (%d sets/UB)", m, sets)
	chart := mcsched.ChartFromPlacement(res, title)
	base := filepath.Join(outDir, fmt.Sprintf("placement_m%d", m))
	if err := emit(chart, base, ascii, svg, csv); err != nil {
		return err
	}
	fmt.Println(mcsched.PlacementExperimentSummary(res))
	return nil
}

func parseMs(s string) ([]int, error) {
	var ms []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var m int
		if _, err := fmt.Sscanf(part, "%d", &m); err != nil || m <= 0 {
			return nil, fmt.Errorf("bad -m entry %q", part)
		}
		ms = append(ms, m)
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("-m selects no processor counts")
	}
	return ms, nil
}

// panelFigure runs one of Figs. 3-5: one panel per processor count.
func panelFigure(fig string, ms []int, sets int, seed int64, outDir string,
	ascii, svg, csv bool,
	runner func(m, sets int, seed int64) (mcsched.ExperimentResult, error),
	baseline string, paperGain map[int]float64) error {

	panels := "abc"
	for i, m := range ms {
		res, err := runner(m, sets, seed)
		if err != nil {
			return fmt.Errorf("figure %s m=%d: %w", fig, m, err)
		}
		panel := ""
		if i < len(panels) {
			panel = string(panels[i])
		}
		title := fmt.Sprintf("Fig. %s%s — m=%d (%d sets/UB)", fig, panel, m, sets)
		chart := mcsched.ChartFromExperiment(res, title)
		base := filepath.Join(outDir, fmt.Sprintf("fig%s%s_m%d", fig, panel, m))

		if err := emit(chart, base, ascii, svg, csv); err != nil {
			return err
		}
		fmt.Println(mcsched.ExperimentSummary(res))
		ims, err := mcsched.ImprovementsVs(res, baseline)
		if err == nil {
			for _, im := range ims {
				note := ""
				if g, ok := paperGain[m]; ok && strings.HasPrefix(im.Algorithm, "C") && strings.Contains(im.Algorithm, "UDP") {
					note = fmt.Sprintf("   [paper's max gain at m=%d: %.1f pts]", m, g)
				}
				fmt.Printf("  %v%s\n", im, note)
			}
		}
		fmt.Println()
	}
	return nil
}

// warFigure runs Fig. 6a or 6b.
func warFigure(fig string, sets int, seed int64, outDir string,
	ascii, svg, csv bool,
	runner func(sets int, seed int64) (mcsched.WARResult, error), constrained bool) error {

	res, err := runner(sets, seed)
	if err != nil {
		return fmt.Errorf("figure %s: %w", fig, err)
	}
	dl := "implicit"
	if constrained {
		dl = "constrained"
	}
	title := fmt.Sprintf("Fig. %s — WAR vs PH, %s deadlines (%d sets/UB)", fig, dl, sets)
	chart := mcsched.ChartFromWAR(res, title)
	base := filepath.Join(outDir, "fig"+fig)
	if err := emit(chart, base, ascii, svg, csv); err != nil {
		return err
	}
	for _, s := range chart.Series {
		fmt.Printf("%-28s", s.Name)
		for i, ph := range s.X {
			fmt.Printf("  PH=%.1f:%5.1f%%", ph, s.Y[i]*100)
		}
		fmt.Println()
	}
	fmt.Println()
	return nil
}

// emit renders a chart into the requested formats.
func emit(chart mcsched.Chart, base string, ascii, svg, csv bool) error {
	if ascii {
		s, err := mcsched.RenderASCII(chart, 72, 18)
		if err != nil {
			return err
		}
		fmt.Println(s)
	}
	if csv {
		s, err := mcsched.RenderCSV(chart)
		if err != nil {
			return err
		}
		if err := os.WriteFile(base+".csv", []byte(s), 0o644); err != nil {
			return err
		}
	}
	if svg {
		s, err := mcsched.RenderSVG(chart, 640, 420)
		if err != nil {
			return err
		}
		if err := os.WriteFile(base+".svg", []byte(s), 0o644); err != nil {
			return err
		}
	}
	return nil
}
