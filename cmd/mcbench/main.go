// Command mcbench runs the repository's tracked performance benchmarks —
// the admission hot path (single admits warm/cold, 64-task batches, a
// 16-task batch into a full ECDF tenant), probe traffic, two cold EY/ECDF
// shaping runs on fixed sets, the offline partitioning strategies, task-set generation, the capped discard loop and
// a Figure 3 sweep — and writes the results as JSON: ns/op, bytes/op,
// allocs/op per benchmark plus the analyzer fast-path counters (fast
// accepts/rejects, incremental decisions, warm-started fixed points)
// observed while the benchmark ran.
//
//	mcbench -short -out BENCH_4.json
//	mcbench -baseline BENCH_4.json -max-regress 2
//	mcbench -short -run 'warm-e|ecdf'   # only the rows the pattern matches
//
// With -baseline the run compares itself against a previously written file
// and exits non-zero when any benchmark regresses by more than -max-regress
// in ns/op — the CI bench-smoke job runs exactly that against the committed
// baseline, so hot-path regressions fail the build instead of landing
// silently. Each result also carries the PR 3 (pre-analyzer, commit
// 2a5a637) reference numbers measured on the original development machine,
// making the speedup of the allocation-free incremental analysis layer part
// of the tracked artifact; on other machines those speedups are indicative,
// while the -baseline gate compares like with like.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mcsched"
	"mcsched/internal/analysis/kernel"
	"mcsched/internal/mcsio"
	"mcsched/internal/replication"
	"mcsched/internal/taskgen"
)

// reference holds the PR 3 hot-path numbers (commit 2a5a637, `go test
// -bench -benchmem -benchtime 2s`, Intel Xeon @ 2.10GHz) keyed by the
// mcbench benchmark that measures the same workload today.
var reference = map[string]Reference{
	"admit/single/cold":        {NsPerOp: 5109, AllocsPerOp: 12},
	"admit/single/warm":        {NsPerOp: 17049, AllocsPerOp: 12},
	"admit/batch64/edfvd-cold": {NsPerOp: 136989, AllocsPerOp: 444},
	"admit/batch64/amc-cold":   {NsPerOp: 750552, AllocsPerOp: 2276},
	"partition/cuudp-amc":      {NsPerOp: 25965, AllocsPerOp: 322},
}

// Reference is a PR 3 baseline data point.
type Reference struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Counters mirrors the admission controller's analyzer counters accumulated
// over one benchmark run.
type Counters struct {
	TestsRun        uint64 `json:"tests_run"`
	FastAccepts     uint64 `json:"fast_accepts"`
	FastRejects     uint64 `json:"fast_rejects"`
	IncrementalHits uint64 `json:"incremental_hits"`
	ExactRuns       uint64 `json:"exact_runs"`
	WarmStarts      uint64 `json:"warm_starts"`
}

// Result is one benchmark's record. GOMAXPROCS is recorded per entry (not
// just per file) so baselines generated on machines with different core
// counts can be compared entry by entry — the sweep and group-commit
// benches are meaningless without it.
type Result struct {
	Name         string     `json:"name"`
	Iterations   int        `json:"iterations"`
	NsPerOp      float64    `json:"ns_per_op"`
	BytesPerOp   int64      `json:"bytes_per_op"`
	AllocsPerOp  int64      `json:"allocs_per_op"`
	GOMAXPROCS   int        `json:"gomaxprocs"`
	Counters     *Counters  `json:"counters,omitempty"`
	ReferencePR3 *Reference `json:"reference_pr3,omitempty"`
	SpeedupVsPR3 float64    `json:"speedup_vs_pr3,omitempty"`
}

// File is the BENCH_4.json schema.
type File struct {
	Schema     string   `json:"schema"`
	Generated  string   `json:"generated"`
	GoVersion  string   `json:"go"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Short      bool     `json:"short"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	testing.Init() // register test.* flags so test.benchtime is settable
	short := flag.Bool("short", false, "reduced benchtime for smoke runs")
	out := flag.String("out", "", "write results JSON to this file (default stdout)")
	md := flag.String("md", "",
		"additionally write the results as a Markdown table to this file (CI appends it to $GITHUB_STEP_SUMMARY)")
	baseline := flag.String("baseline", "", "compare against this results file and fail on regressions")
	maxRegress := flag.Float64("max-regress", 2.0, "maximum allowed ns/op ratio versus -baseline")
	maxAllocRegress := flag.Float64("max-alloc-regress", 1.5,
		"maximum allowed allocs/op ratio versus -baseline (allocs are machine-independent; 0 disables)")
	runPattern := flag.String("run", "", "run only the benchmarks whose name matches this regular expression")
	flag.Parse()
	only, err := regexp.Compile(*runPattern)
	if err != nil {
		fatal("-run: %v", err)
	}

	benchtime := time.Second
	if *short {
		benchtime = 200 * time.Millisecond
	}
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fatal("set benchtime: %v", err)
	}

	f := File{
		Schema:     "mcsched-bench/v1",
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Short:      *short,
	}
	for _, b := range benches() {
		if !only.MatchString(b.name) {
			continue
		}
		res := runOne(b)
		if ref, ok := reference[b.name]; ok {
			r := ref
			res.ReferencePR3 = &r
			if res.NsPerOp > 0 {
				res.SpeedupVsPR3 = round2(ref.NsPerOp / res.NsPerOp)
			}
		}
		f.Benchmarks = append(f.Benchmarks, res)
		fmt.Fprintf(os.Stderr, "%-28s %12.0f ns/op %8d B/op %6d allocs/op\n",
			b.name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	}

	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fatal("encode: %v", err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal("write %s: %v", *out, err)
	}

	if *md != "" {
		if err := os.WriteFile(*md, markdownTable(f, *baseline), 0o644); err != nil {
			fatal("write %s: %v", *md, err)
		}
	}

	if *baseline != "" {
		if failed := compare(f, *baseline, *maxRegress, *maxAllocRegress); failed {
			os.Exit(1)
		}
	}
}

// markdownTable renders the run as a GitHub-flavored Markdown table —
// the per-PR perf trend surface ($GITHUB_STEP_SUMMARY). When a baseline
// file is readable its ns/op and the resulting ratio are included, so a
// reviewer sees drift without downloading artifacts.
func markdownTable(f File, baselinePath string) []byte {
	byName := map[string]Result{}
	haveBase := false
	if baselinePath != "" {
		if raw, err := os.ReadFile(baselinePath); err == nil {
			var base File
			if json.Unmarshal(raw, &base) == nil {
				for _, r := range base.Benchmarks {
					byName[r.Name] = r
				}
				haveBase = len(byName) > 0
			}
		}
	}
	var b strings.Builder
	mode := "full"
	if f.Short {
		mode = "short"
	}
	fmt.Fprintf(&b, "### mcbench (%s, %s, GOMAXPROCS=%d)\n\n", mode, f.GoVersion, f.GOMAXPROCS)
	if haveBase {
		b.WriteString("| benchmark | ns/op | allocs/op | baseline ns/op | ratio |\n")
		b.WriteString("|---|---:|---:|---:|---:|\n")
	} else {
		b.WriteString("| benchmark | ns/op | allocs/op |\n")
		b.WriteString("|---|---:|---:|\n")
	}
	for _, r := range f.Benchmarks {
		if haveBase {
			if base, ok := byName[r.Name]; ok && base.NsPerOp > 0 {
				fmt.Fprintf(&b, "| %s | %.0f | %d | %.0f | %.2fx |\n",
					r.Name, r.NsPerOp, r.AllocsPerOp, base.NsPerOp, r.NsPerOp/base.NsPerOp)
			} else {
				fmt.Fprintf(&b, "| %s | %.0f | %d | — | — |\n", r.Name, r.NsPerOp, r.AllocsPerOp)
			}
			continue
		}
		fmt.Fprintf(&b, "| %s | %.0f | %d |\n", r.Name, r.NsPerOp, r.AllocsPerOp)
	}
	return []byte(b.String())
}

// compare checks the run against a baseline file; true means regression.
// ns/op is gated by maxRegress (loose: absorbs machine variance while
// catching order-of-magnitude mistakes); allocs/op is gated by
// maxAllocRegress, which is machine-independent and therefore tight.
func compare(f File, path string, maxRegress, maxAllocRegress float64) bool {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal("baseline: %v", err)
	}
	var base File
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal("baseline %s: %v", path, err)
	}
	byName := map[string]Result{}
	for _, r := range base.Benchmarks {
		byName[r.Name] = r
	}
	failed := false
	for _, r := range f.Benchmarks {
		b, ok := byName[r.Name]
		if !ok || b.NsPerOp <= 0 {
			fmt.Fprintf(os.Stderr, "mcbench: %s: no baseline, skipping\n", r.Name)
			continue
		}
		ratio := r.NsPerOp / b.NsPerOp
		if ratio > maxRegress {
			fmt.Fprintf(os.Stderr, "mcbench: REGRESSION %s: %.0f ns/op vs baseline %.0f (%.2fx > %.2fx)\n",
				r.Name, r.NsPerOp, b.NsPerOp, ratio, maxRegress)
			failed = true
		}
		if maxAllocRegress > 0 {
			// A zero-alloc baseline allows a slack of 1 alloc/op before
			// failing (ratios are undefined at zero).
			limit := float64(b.AllocsPerOp) * maxAllocRegress
			if b.AllocsPerOp == 0 {
				limit = 1
			}
			if float64(r.AllocsPerOp) > limit {
				fmt.Fprintf(os.Stderr, "mcbench: ALLOC REGRESSION %s: %d allocs/op vs baseline %d (limit %.1f)\n",
					r.Name, r.AllocsPerOp, b.AllocsPerOp, limit)
				failed = true
			}
		}
	}
	return failed
}

type bench struct {
	name string
	// run executes the workload b.N times; stats, when non-nil, is called
	// once after timing to collect controller counters.
	run func(b *testing.B, c *Counters)
}

func runOne(bm bench) Result {
	var c Counters
	r := testing.Benchmark(func(b *testing.B) {
		// testing.Benchmark probes with growing b.N until the benchtime is
		// filled; only the final (longest) run's counters survive.
		c = Counters{}
		bm.run(b, &c)
	})
	res := Result{
		Name:        bm.name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
	if c != (Counters{}) {
		cc := c
		res.Counters = &cc
	}
	return res
}

func round2(v float64) float64 { return float64(int(v*100+0.5)) / 100 }

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mcbench: "+format+"\n", args...)
	os.Exit(1)
}

// ---------------------------------------------------------------------------
// Workloads (mirroring bench_test.go on the public facade)
// ---------------------------------------------------------------------------

// admitTasks draws the same deterministic task stream as the in-repo admit
// benchmarks.
func admitTasks(n int) mcsched.TaskSet {
	rng := rand.New(rand.NewSource(2024))
	out := make(mcsched.TaskSet, 0, n)
	for i := 0; i < n; i++ {
		t := mcsched.Ticks(10 + rng.Intn(490))
		cl := 1 + mcsched.Ticks(rng.Intn(int(t/10+1)))
		if rng.Intn(2) == 0 {
			ch := cl + mcsched.Ticks(rng.Intn(int(t/5+1)))
			if ch > t {
				ch = t
			}
			out = append(out, mcsched.NewHCTask(i, cl, ch, t))
		} else {
			out = append(out, mcsched.NewLCTask(i, cl, t))
		}
	}
	return out
}

func collect(ctrl *mcsched.AdmissionController, c *Counters) {
	st := ctrl.Stats()
	c.TestsRun = st.TestsRun
	c.FastAccepts = st.FastAccepts
	c.FastRejects = st.FastRejects
	c.IncrementalHits = st.IncrementalHits
	c.ExactRuns = st.ExactRuns
	c.WarmStarts = st.WarmStarts
}

// admitSingle is one admit(+release) cycle against a loaded 8-core tenant
// under the given test. warm runs the measured cycle once before the timer
// starts, so the per-core analyzers have seen every candidate set; cold
// starts the timer on the freshly loaded tenant. With instrumented the controller carries a live
// metrics registry (EnableMetrics), so the number proves the observability
// layer keeps the warm path allocation-free — the CI bench gate asserts
// allocs/op == 0.
func admitSingle(test mcsched.Test, warm, probeOnly, instrumented bool) func(*testing.B, *Counters) {
	return func(b *testing.B, c *Counters) {
		ctrl := mcsched.NewAdmissionController(mcsched.DefaultAdmissionConfig())
		if instrumented {
			ctrl.EnableMetrics(mcsched.NewMetricsRegistry())
		}
		sys, err := ctrl.CreateSystem("bench", 8, test)
		if err != nil {
			b.Fatal(err)
		}
		stream := admitTasks(256)
		for _, t := range stream[:128] {
			if _, err := sys.Admit(t); err != nil {
				b.Fatal(err)
			}
		}
		cycle := func(task mcsched.Task) {
			if probeOnly {
				if _, err := sys.Probe(task); err != nil {
					b.Fatal(err)
				}
				return
			}
			res, err := sys.Admit(task)
			if err != nil {
				b.Fatal(err)
			}
			if res.Admitted {
				if _, err := sys.Release(task.ID); err != nil {
					b.Fatal(err)
				}
			}
		}
		if warm {
			for _, task := range stream[128:] {
				cycle(task)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle(stream[128+i%128])
		}
		b.StopTimer()
		collect(ctrl, c)
	}
}

// admitBatch64 is the all-or-nothing 64-task batch admit (+ release) under
// a named placement heuristic ("" is the default UDP rule) — with the
// non-default rows, the tracked per-heuristic cost of the placement
// registry.
func admitBatch64(test mcsched.Test, placement string) func(*testing.B, *Counters) {
	return func(b *testing.B, c *Counters) {
		ctrl := mcsched.NewAdmissionController(mcsched.DefaultAdmissionConfig())
		sys, err := ctrl.CreateSystemWithPlacement("bench", 8, test, placement)
		if err != nil {
			b.Fatal(err)
		}
		batch := admitTasks(64)
		ids := make([]int, len(batch))
		for i, t := range batch {
			ids[i] = t.ID
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := sys.AdmitBatch(batch)
			if err != nil {
				b.Fatal(err)
			}
			if res.Admitted {
				if _, err := sys.Release(ids...); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		collect(ctrl, c)
	}
}

// admitBatch16Full mirrors mcload's serve-analysis-batch write: a 16-task
// all-or-nothing batch (one generated set of about one core's load,
// constrained deadlines) offered to an 8-core tenant that was filled with
// such batches until it refused three, so every core holds about a dozen
// tasks and the exact analysis runs on most probes. An admitted batch is
// released again; the measured cycle has run once before the timer starts.
func admitBatch16Full(test mcsched.Test) func(*testing.B, *Counters) {
	return func(b *testing.B, c *Counters) {
		rng := rand.New(rand.NewSource(2017))
		cfg := taskgen.DefaultConfig(1, 0.55, 0.25, 0.35)
		cfg.NMin, cfg.NMax = 16, 16
		cfg.Constrained = true
		nextID := 0
		draw := func() (mcsched.TaskSet, []int) {
			for {
				ts, err := taskgen.Generate(rng, cfg)
				if err != nil {
					continue // infeasible draw; the rng has advanced
				}
				ids := make([]int, len(ts))
				for i := range ts {
					ts[i].ID, ids[i] = nextID, nextID
					nextID++
				}
				return ts, ids
			}
		}
		ctrl := mcsched.NewAdmissionController(mcsched.DefaultAdmissionConfig())
		sys, err := ctrl.CreateSystem("bench", 8, test)
		if err != nil {
			b.Fatal(err)
		}
		for refused := 0; refused < 3; {
			batch, _ := draw()
			res, err := sys.AdmitBatch(batch)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Admitted {
				refused++
			}
		}
		const pool = 32
		batches, ids := make([]mcsched.TaskSet, pool), make([][]int, pool)
		for i := range batches {
			batches[i], ids[i] = draw()
		}
		cycle := func(i int) {
			res, err := sys.AdmitBatch(batches[i%pool])
			if err != nil {
				b.Fatal(err)
			}
			if res.Admitted {
				if _, err := sys.Release(ids[i%pool]...); err != nil {
					b.Fatal(err)
				}
			}
		}
		for i := 0; i < pool; i++ {
			cycle(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle(i)
		}
		b.StopTimer()
		collect(ctrl, c)
	}
}

// partition is one full offline partitioning run on an 8-core load.
func partition(strategy mcsched.Strategy, test mcsched.Test) func(*testing.B, *Counters) {
	return func(b *testing.B, _ *Counters) {
		rng := rand.New(rand.NewSource(1234))
		cfg := mcsched.DefaultGenConfig(8, 0.5, 0.3, 0.3)
		cfg.Constrained = test.Name() != "EDF-VD"
		ts, err := mcsched.Generate(rng, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = strategy.Partition(ts, 8, test)
		}
	}
}

// Two fixed single-core sets of the size the m = 8 constrained sweep puts on
// a core, each at the 90th percentile of its kind's cost among 4000 drawn:
// eyShapeSet passes EY after 58 shaping steps, ecdfRejectSet passes the LO
// test at d = D and fails the EY pass and all five ECDF restarts.
var (
	eyShapeSet = mcsched.TaskSet{
		mcsched.NewLCTaskD(3, 5, 33, 23), mcsched.NewHCTaskD(2, 1, 4, 11, 9), mcsched.NewLCTaskD(5, 1, 10, 4),
		mcsched.NewHCTaskD(0, 37, 57, 294, 259), mcsched.NewLCTaskD(4, 4, 13, 5), mcsched.NewHCTaskD(1, 23, 63, 438, 395),
	}
	ecdfRejectSet = mcsched.TaskSet{
		mcsched.NewHCTaskD(0, 32, 157, 218, 182), mcsched.NewLCTaskD(3, 3, 11, 5), mcsched.NewHCTaskD(1, 1, 2, 29, 20),
		mcsched.NewHCTaskD(2, 1, 2, 15, 6), mcsched.NewLCTaskD(4, 2, 33, 32), mcsched.NewLCTaskD(5, 1, 24, 22),
	}
)

// analyzeCold is one cold exact analysis of ts per op on the family's
// per-core analyzer, its memo dropped before every op: a whole shaping run
// with no admission or placement around it.
func analyzeCold(test mcsched.Test, ts mcsched.TaskSet, want bool) func(*testing.B, *Counters) {
	return func(b *testing.B, c *Counters) {
		an := test.(kernel.Incremental).NewAnalyzer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			an.Invalidate()
			if an.Schedulable(ts) != want {
				b.Fatalf("%s verdict is not %v", test.Name(), want)
			}
		}
		c.TestsRun, c.ExactRuns = an.Counters().Total(), an.Counters().ExactRuns
	}
}

// generate is one task-set draw at m = 8 per op through the facade, the
// ops cycling through the paper's utilization grid so the figure is the
// sweeps' per-set generation cost, not one combo's.
func generate(constrained bool) func(*testing.B, *Counters) {
	return func(b *testing.B, _ *Counters) {
		rng := rand.New(rand.NewSource(77))
		grid := taskgen.DefaultGrid()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			combo := grid[i%len(grid)]
			cfg := mcsched.DefaultGenConfig(8, combo.UHH, combo.ULH, combo.ULL)
			cfg.Constrained = constrained
			if _, err := mcsched.Generate(rng, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// cappedDraw is one BoundedSumCapped call per op on a continuing stream: the
// LO-mode utilizations of twelve HC tasks under their HI-mode caps, summing
// to share·Σcap. At 0.95 no UUniFast try fits under the caps, so every op is
// the discard loop run to exhaustion plus the proportional fallback — what
// 43.8 % of the generator's capped draws on the paper's grid are; at 0.45 an
// op accepts after some 90 tries, as the grid's other capped draws do.
func cappedDraw(share float64, exhausted bool) func(*testing.B, *Counters) {
	caps := []float64{0.62, 0.18, 0.41, 0.09, 0.77, 0.25, 0.33, 0.52, 0.14, 0.47, 0.29, 0.71}
	var capSum float64
	for _, c := range caps {
		capSum += c
	}
	total := share * capSum
	return func(b *testing.B, _ *Counters) {
		rng := rand.New(rand.NewSource(77))
		fell := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			u, err := taskgen.BoundedSumCapped(rng, len(caps), total, 0.001, caps)
			if err != nil {
				b.Fatal(err)
			}
			if u[0] == total*caps[0]/capSum { // the proportional fallback
				fell++
			}
		}
		if exhausted && fell != b.N || !exhausted && fell*100 > b.N {
			b.Fatalf("%d of %d ops fell back, want exhausted=%v", fell, b.N, exhausted)
		}
	}
}

// sweepFig3 is one Figure 3 panel (m = 8, EDF-VD, three algorithms) at 100
// task sets per UB bucket: generation, partitioning and the parallel map at
// a tenth of the paper's scale.
func sweepFig3(b *testing.B, _ *Counters) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mcsched.Figure3(8, 100, 2017); err != nil {
			b.Fatal(err)
		}
	}
}

// simulateSystem is one whole-tenant runtime simulation over exactly one
// hyperperiod of a low-utilization partition (periods drawn from a divisor
// chain with hyperperiod 2000), mirroring BenchmarkSimulateHyperperiod* in
// bench_test.go — the cost of one POST /v1/systems/{id}/simulate at the
// interactive (2×5) and full-system (64×16) scale.
func simulateSystem(cores, perCore int) func(*testing.B, *Counters) {
	return func(b *testing.B, _ *Counters) {
		periods := []mcsched.Ticks{40, 50, 80, 100, 200, 400, 500, 1000}
		p := mcsched.Partition{Cores: make([]mcsched.TaskSet, cores)}
		id := 0
		for k := range p.Cores {
			ts := make(mcsched.TaskSet, 0, perCore)
			for i := 0; i < perCore; i++ {
				t := periods[(k+i)%len(periods)]
				if i%2 == 0 {
					ts = append(ts, mcsched.NewHCTask(id, 1, 2, t))
				} else {
					ts = append(ts, mcsched.NewLCTask(id, 1, t))
				}
				id++
			}
			p.Cores[k] = ts
		}
		spec := mcsched.SimSpec{Horizon: 2000, Scenario: mcsched.SimRandom, Seed: 2017, OverrunProb: 0.1, Jitter: 0.2}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := mcsched.SimulateSystem(p, nil, spec)
			if err != nil {
				b.Fatal(err)
			}
			if res.Released == 0 {
				b.Fatal("simulation released no jobs")
			}
		}
	}
}

// journalAdmitWriters is the group-commit workload: fsync-durable
// admit+release cycles from `writers` concurrent goroutines against one
// single-core tenant, each worker cycling its own task so every iteration
// is two durable journal records. The rows at 1, 16 and 64 writers track
// the coalescing factor.
func journalAdmitWriters(writers int) func(*testing.B, *Counters) {
	return func(b *testing.B, _ *Counters) {
		dir, err := os.MkdirTemp("", "mcbench-journal-*")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		cfg := mcsched.DefaultAdmissionConfig()
		cfg.SnapshotEvery = -1
		cfg.DataDir = dir
		cfg.Fsync = true
		ctrl := mcsched.NewAdmissionController(cfg)
		defer ctrl.Close()
		sys, err := ctrl.CreateSystem("bench", 1, mcsched.EDFVD())
		if err != nil {
			b.Fatal(err)
		}
		errs := make([]error, writers)
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			n := b.N / writers
			if w < b.N%writers {
				n++
			}
			wg.Add(1)
			go func(w, n int) {
				defer wg.Done()
				task := mcsched.NewLCTask(w+1, 1, 1_000_000)
				for i := 0; i < n; i++ {
					res, err := sys.Admit(task)
					if err != nil {
						errs[w] = err
						return
					}
					if !res.Admitted {
						errs[w] = fmt.Errorf("writer %d: admit rejected", w)
						return
					}
					if _, err := sys.Release(task.ID); err != nil {
						errs[w] = err
						return
					}
				}
			}(w, n)
		}
		wg.Wait()
		b.StopTimer()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// journalEncode measures encoding one representative admit event as the
// journal writes it, in the binary codec — the per-record serialization
// cost on the hot path.
func journalEncode() func(*testing.B, *Counters) {
	return func(b *testing.B, _ *Counters) {
		task := mcsio.TaskToJSON(mcsched.NewHCTask(7, 3, 6, 100))
		ev := mcsio.EventJSON{Version: 1, Seq: 42, Kind: mcsio.EventAdmit, Task: &task, Core: 3}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mcsio.EncodeEventBinary(ev); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// replStreamBatch64 is one 64-task batch admit's full replication round
// trip (leader decide → journal → persistent stream → follower verify →
// append → ack) — the tracked number of the replication transport.
func replStreamBatch64() func(*testing.B, *Counters) {
	return func(b *testing.B, _ *Counters) {
		dir, err := os.MkdirTemp("", "mcbench-repl-*")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		lcfg := mcsched.DefaultAdmissionConfig()
		lcfg.DataDir = dir + "/leader"
		lcfg.SnapshotEvery = -1
		leader := mcsched.NewAdmissionController(lcfg)
		defer leader.Close()
		fcfg := mcsched.DefaultAdmissionConfig()
		fcfg.DataDir = dir + "/follower"
		fcfg.SnapshotEvery = -1
		fcfg.Follower = true
		fctrl := mcsched.NewAdmissionController(fcfg)
		srv := httptest.NewServer(replication.NewReceiver(fctrl).Mux())
		ship, err := replication.NewShipper(leader, []string{srv.URL}, replication.ShipperConfig{})
		if err != nil {
			b.Fatal(err)
		}
		leader.SetHooks(ship.Hooks())
		ship.Start()
		// Teardown order: stop the shipper (closing its stream) before the
		// server and follower go away.
		defer fctrl.Close()
		defer srv.Close()
		defer ship.Stop()

		sys, err := leader.CreateSystem("bench", 8, mcsched.EDFVD())
		if err != nil {
			b.Fatal(err)
		}
		flush := func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := ship.Flush(ctx); err != nil {
				b.Fatal(err)
			}
		}
		flush()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch := make(mcsched.TaskSet, 64)
			ids := make([]int, 64)
			for j := range batch {
				id := i*64 + j
				batch[j] = mcsched.NewLCTask(id, 1, 1_000_000)
				ids[j] = id
			}
			br, err := sys.AdmitBatch(batch)
			if err != nil || !br.Admitted {
				b.Fatalf("batch rejected: %+v, %v", br, err)
			}
			flush()
			if _, err := sys.Release(ids...); err != nil {
				b.Fatal(err)
			}
			flush()
		}
	}
}

// strategyByName resolves a registry strategy; the bench table names are
// fixed, so a miss is a programming error.
func strategyByName(name string) mcsched.Strategy {
	s, ok := mcsched.StrategyByName(name)
	if !ok {
		panic("unknown strategy " + name)
	}
	return s
}

func benches() []bench {
	return []bench{
		{"admit/single/cold", admitSingle(mcsched.EDFVD(), false, false, false)},
		{"admit/single/warm", admitSingle(mcsched.EDFVD(), true, false, false)},
		{"admit/single/warm-instrumented", admitSingle(mcsched.EDFVD(), true, false, true)},
		{"admit/single/warm-ey", admitSingle(mcsched.EY(), true, false, false)},
		{"admit/single/warm-ecdf", admitSingle(mcsched.ECDF(), true, false, false)},
		{"probe/single/warm", admitSingle(mcsched.EDFVD(), true, true, false)},
		{"admit/batch64/edfvd-cold", admitBatch64(mcsched.EDFVD(), "")},
		{"admit/batch64/ey-cold", admitBatch64(mcsched.EY(), "")},
		{"admit/batch64/ecdf-cold", admitBatch64(mcsched.ECDF(), "")},
		{"admit/batch64/edf-cold", admitBatch64(mcsched.PlainEDF(true), "")},
		{"admit/batch64/amc-cold", admitBatch64(mcsched.AMC(), "")},
		{"admit/batch64/edfvd-ff", admitBatch64(mcsched.EDFVD(), "ff")},
		{"admit/batch64/edfvd-nf", admitBatch64(mcsched.EDFVD(), "nf")},
		{"admit/batch64/edfvd-bf-total", admitBatch64(mcsched.EDFVD(), "bf-total")},
		{"admit/batch64/edfvd-wf-total", admitBatch64(mcsched.EDFVD(), "wf-total")},
		{"admit/batch64/edfvd-prm-ll", admitBatch64(mcsched.EDFVD(), "prm-ll")},
		{"admit/batch16/ecdf-full-tenant", admitBatch16Full(mcsched.ECDF())},
		{"analysis/ey-shape-m8", analyzeCold(mcsched.EY(), eyShapeSet, true)},
		{"analysis/ecdf-exact-reject", analyzeCold(mcsched.ECDF(), ecdfRejectSet, false)},
		{"partition/cuudp-amc", partition(strategyByName("CU-UDP"), mcsched.AMC())},
		{"partition/cuudp-edfvd", partition(strategyByName("CU-UDP"), mcsched.EDFVD())},
		{"taskgen/generate-m8", generate(false)},
		{"taskgen/generate-m8-constrained", generate(true)},
		{"taskgen/capped-exhausted", cappedDraw(0.95, true)},
		{"taskgen/capped-accepted", cappedDraw(0.45, false)},
		{"sweep/fig3-m8-100", sweepFig3},
		{"simulate/hyperperiod-small", simulateSystem(2, 5)},
		{"simulate/hyperperiod-1k", simulateSystem(64, 16)},
		{"journal/admit-groupcommit-1w", journalAdmitWriters(1)},
		{"journal/admit-groupcommit-16w", journalAdmitWriters(16)},
		{"journal/admit-groupcommit-64w", journalAdmitWriters(64)},
		{"journal/encode-binary", journalEncode()},
		{"repl/stream-batch64", replStreamBatch64()},
	}
}
