package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// benchmarkDoc is the part of BENCHMARK.json the comparison needs.
type benchmarkDoc struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadBenchmark() (*benchmarkDoc, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &doc, nil
}

func loadDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// runs groups a document's results by workload.
func runs(doc *document) map[string][]*result {
	out := map[string][]*result{}
	for _, r := range doc.Results {
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out
}

// values lists one end-to-end metric over runs.
func values(rs []*result, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if x, ok := r.E2E[name]; ok {
			v = append(v, x)
		}
	}
	return v
}

// verdict applies one bound to two samples of one metric on one workload.
// a is the baseline. "regress" means b's median is worse than a's by more
// than the bound; "unresolved" means the runs of either side scatter more
// than the bound, so neither pass nor regress can be claimed — unless
// every run of b beats every run of a.
func verdict(a, b []float64, bound float64, higher bool) (string, float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "unresolved", 0
	}
	worse := (mb - ma) / ma // positive = b is worse, for lower-is-better
	if higher {
		worse = -worse
	}
	if worse > bound {
		return "regress", worse
	}
	if len(a) >= 4 && len(b) >= 4 && (spread(a) > bound || spread(b) > bound) {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				if (higher && x <= y) || (!higher && x >= y) {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved", worse
		}
	}
	return "pass", worse
}

// exactVerdict judges a metric that is a function of the seed and the code
// (an acceptance ratio): a changed value means changed science. Per seed it
// must repeat to the last digit within each document, and b may not be
// worse than a by anything at all. Runs of seeds the other document does
// not have cannot be judged.
func exactVerdict(a, b []*result, name string, higher bool) (string, float64) {
	bySeed := func(rs []*result) (map[int64]float64, bool) {
		m := map[int64]float64{}
		for _, r := range rs {
			if v, seen := m[r.Seed]; seen && v != r.E2E[name] {
				return nil, false
			}
			m[r.Seed] = r.E2E[name]
		}
		return m, true
	}
	ma, okA := bySeed(a)
	mb, okB := bySeed(b)
	if !okA || !okB {
		return "regress (differs between runs of one seed)", 0
	}
	if len(ma) != len(mb) {
		return "unresolved (seeds differ)", 0
	}
	var worst float64
	for seed, va := range ma {
		vb, shared := mb[seed]
		if !shared || va == 0 {
			return "unresolved (seeds differ)", 0
		}
		worse := (vb - va) / va
		if higher {
			worse = -worse
		}
		if worse > worst {
			worst = worse
		}
	}
	if worst > 0 {
		return "regress (exact metric)", worst
	}
	return "pass", worst
}

// compareFiles prints pass / regress / unresolved for every end-to-end
// metric on every workload the two documents share, and exits non-zero on
// any regression.
func compareFiles(pathA, pathB string) int {
	bench, err := loadBenchmark()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcload:", err)
		return 1
	}
	a, err := loadDocument(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcload:", err)
		return 1
	}
	b, err := loadDocument(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcload:", err)
		return 1
	}
	ha, hb := a.Header, b.Header
	if ha.NProc != hb.NProc || ha.Kernel != hb.Kernel || ha.GoVersion != hb.GoVersion || ha.Seconds != hb.Seconds || ha.Seed != hb.Seed {
		fmt.Printf("WARNING: the documents come from different set-ups (nproc %d/%d, kernel %s/%s, %s/%s, seconds %g/%g, seed %d/%d); timings are not comparable\n",
			ha.NProc, hb.NProc, ha.Kernel, hb.Kernel, ha.GoVersion, hb.GoVersion, ha.Seconds, hb.Seconds, ha.Seed, hb.Seed)
	}
	exact := map[string]bool{}
	for _, m := range endToEnd {
		exact[m.name] = m.exact
	}
	ra, rb := runs(a), runs(b)
	regressed := 0
	fmt.Printf("%-22s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "median a", "median b", "worse by", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range bench.EndToEnd {
			va, vb := values(ra[w.name], m.Name), values(rb[w.name], m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			bound, higher := m.Bound, m.Better == "higher"
			var v string
			var worse float64
			if exact[m.Name] {
				// BENCHMARK.json's bound for this metric covers runs of
				// different seeds, which is what the acceptance harness
				// compares; between runs of one seed the bound is 0.
				bound = 0
				v, worse = exactVerdict(ra[w.name], rb[w.name], m.Name, higher)
			} else {
				v, worse = verdict(va, vb, bound, higher)
			}
			if strings.HasPrefix(v, "regress") {
				regressed++
			}
			fmt.Printf("%-22s %-14s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n", w.name, m.Name, median(va), median(vb), 100*worse, 100*bound, v)
		}
	}
	if regressed > 0 {
		fmt.Printf("%d regression(s)\n", regressed)
		return 1
	}
	return 0
}

// printSpreads summarizes repeated sets: per workload and end-to-end
// metric, the median, quartiles and spread over the runs.
func printSpreads(results []*result) {
	byWorkload := runs(&document{Results: results})
	fmt.Printf("\n%-22s %-14s %5s %14s %14s %14s %8s\n", "workload", "metric", "runs", "q1", "median", "q3", "spread")
	for _, w := range workloads {
		for _, m := range endToEnd {
			v := values(byWorkload[w.name], m.name)
			if len(v) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			fmt.Printf("%-22s %-14s %5d %14.4f %14.4f %14.4f %7.2f%%\n", w.name, m.name, len(v), q1, q2, q3, 100*spread(v))
		}
	}
}
