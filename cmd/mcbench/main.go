// Command mcbench records the repository's tracked benchmarks. Each row of
// its table is a `go test` benchmark: the admission hot path, cold EY/ECDF
// shaping runs, offline partitioning, task-set generation, Figure 3 and
// Figure 5 sweeps, simulation, the journal and replication. mcbench builds
// each package's test binary once, runs every selected row alone at
// -test.cpu equal to its own GOMAXPROCS, and writes JSON: ns/op, bytes/op,
// allocs/op
// and the analyzer counters (fast accepts/rejects, incremental decisions,
// warm-started fixed points) the benchmark reports as custom metrics. It
// resolves packages by import path, so it runs anywhere inside the module,
// with `go` on the PATH.
//
//	mcbench -short -out BENCH_4.json
//	mcbench -baseline BENCH_4.json -max-regress 2
//	mcbench -short -run 'warm-e|ecdf'   # only the rows the pattern matches
//	go test -run '^$' -bench '^BenchmarkAdmitSingle$/^warm$' -benchmem -cpu 1 .   # one row by hand
//
// With -baseline the run exits non-zero when a row regresses by more than
// -max-regress in ns/op or -max-alloc-regress in allocs/op, or when a
// baseline row the -run pattern selects produced no result; the CI
// bench-smoke job runs exactly that against the committed baseline. Five
// rows also carry the PR 3 (pre-analyzer, commit 2a5a637) reference numbers
// measured on the original development machine, so the speedup of the
// incremental analysis layer is part of the tracked artifact; on other
// machines those speedups are indicative, while the -baseline gate compares
// like with like.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The packages that declare the tracked benchmarks.
const (
	root = "mcsched"
	repl = "mcsched/internal/replication"
)

// row is one tracked benchmark: the name it is recorded under, the import
// path of the package that declares it, its `go test` name (sub-benchmark
// levels separated by '/') and, on five rows, the PR 3 reference (commit
// 2a5a637, `go test -bench -benchmem -benchtime 2s`, Intel Xeon @ 2.10GHz).
type row struct {
	name, pkg, bench string
	ref              *Reference
}

// rows are the tracked benchmarks in recording order.
var rows = []row{
	{"admit/single/cold", root, "BenchmarkAdmitSingle/cold", &Reference{NsPerOp: 5109, AllocsPerOp: 12}},
	{"admit/single/warm", root, "BenchmarkAdmitSingle/warm", &Reference{NsPerOp: 17049, AllocsPerOp: 12}},
	{"admit/single/warm-instrumented", root, "BenchmarkAdmitSingle/warm-instrumented", nil},
	{"admit/single/warm-ey", root, "BenchmarkAdmitSingle/warm-ey", nil},
	{"admit/single/warm-ecdf", root, "BenchmarkAdmitSingle/warm-ecdf", nil},
	{"probe/single/warm", root, "BenchmarkAdmitSingle/probe-warm", nil},
	{"admit/batch64/edfvd-cold", root, "BenchmarkAdmitBatch64/edfvd-cold", &Reference{NsPerOp: 136989, AllocsPerOp: 444}},
	{"admit/batch64/ey-cold", root, "BenchmarkAdmitBatch64/ey-cold", nil},
	{"admit/batch64/ecdf-cold", root, "BenchmarkAdmitBatch64/ecdf-cold", nil},
	{"admit/batch64/edf-cold", root, "BenchmarkAdmitBatch64/edf-cold", nil},
	{"admit/batch64/amc-cold", root, "BenchmarkAdmitBatch64/amc-cold", &Reference{NsPerOp: 750552, AllocsPerOp: 2276}},
	{"admit/batch64/edfvd-ff", root, "BenchmarkAdmitBatch64/edfvd-ff", nil},
	{"admit/batch64/edfvd-nf", root, "BenchmarkAdmitBatch64/edfvd-nf", nil},
	{"admit/batch64/edfvd-bf-total", root, "BenchmarkAdmitBatch64/edfvd-bf-total", nil},
	{"admit/batch64/edfvd-wf-total", root, "BenchmarkAdmitBatch64/edfvd-wf-total", nil},
	{"admit/batch64/edfvd-prm-ll", root, "BenchmarkAdmitBatch64/edfvd-prm-ll", nil},
	{"admit/batch16/ecdf-full-tenant", root, "BenchmarkAdmitBatch16FullTenant", nil},
	{"analysis/ey-shape-m8", root, "BenchmarkAnalysisCold/ey-shape-m8", nil},
	{"analysis/ecdf-exact-reject", root, "BenchmarkAnalysisCold/ecdf-exact-reject", nil},
	{"partition/cuudp-amc", root, "BenchmarkPartitionAMC", &Reference{NsPerOp: 25965, AllocsPerOp: 322}},
	{"partition/cuudp-edfvd", root, "BenchmarkPartition/CU-UDP", nil},
	{"taskgen/generate-m8", root, "BenchmarkGenerateGrid/implicit", nil},
	{"taskgen/generate-m8-constrained", root, "BenchmarkGenerateGrid/constrained", nil},
	{"taskgen/capped-exhausted", root, "BenchmarkCappedDraw/exhausted", nil},
	{"taskgen/capped-accepted", root, "BenchmarkCappedDraw/accepted", nil},
	{"sweep/fig3-m8-100", root, "BenchmarkSweepFig3/m8-100", nil},
	{"sweep/fig5-m8-40", root, "BenchmarkSweepFig5/m8-40", nil},
	{"simulate/hyperperiod-small", root, "BenchmarkSimulateHyperperiodSmall", nil},
	{"simulate/hyperperiod-1k", root, "BenchmarkSimulateHyperperiod1k", nil},
	{"journal/admit-groupcommit-1w", root, "BenchmarkJournalAdmitGroupCommit/1w/group", nil},
	{"journal/admit-groupcommit-16w", root, "BenchmarkJournalAdmitGroupCommit/16w/group", nil},
	{"journal/admit-groupcommit-64w", root, "BenchmarkJournalAdmitGroupCommit/64w/group", nil},
	{"journal/encode-binary", root, "BenchmarkJournalEncode/binary", nil},
	{"repl/stream-batch64", repl, "BenchmarkReplicationStreamBatch64", nil},
}

// Reference is a PR 3 baseline data point.
type Reference struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Counters are the admission controller's analyzer counters accumulated
// over one benchmark run; a benchmark reports each as a custom metric whose
// unit is its JSON key.
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
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "mcbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
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
		return fmt.Errorf("-run: %v", err)
	}
	var base *File
	if *baseline != "" {
		if base, err = readFile(*baseline); err != nil {
			return fmt.Errorf("baseline: %v", err)
		}
	}

	benchtime := time.Second
	if *short {
		benchtime = 200 * time.Millisecond
	}
	procs := runtime.GOMAXPROCS(0)
	tmp, err := os.MkdirTemp("", "mcbench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	bins := map[string]testBinary{}

	f := File{
		Schema:     "mcsched-bench/v1",
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: procs,
		Short:      *short,
	}
	for _, r := range rows {
		if !only.MatchString(r.name) {
			continue
		}
		bin, ok := bins[r.pkg]
		if !ok {
			if bin, err = buildTest(r.pkg, tmp); err != nil {
				return err
			}
			bins[r.pkg] = bin
		}
		res, err := bin.run(r.bench, benchtime, procs)
		if err != nil {
			return fmt.Errorf("%s: %v", r.name, err)
		}
		res.Name = r.name
		if r.ref != nil {
			res.ReferencePR3 = r.ref
			if res.NsPerOp > 0 {
				res.SpeedupVsPR3 = round2(r.ref.NsPerOp / res.NsPerOp)
			}
		}
		f.Benchmarks = append(f.Benchmarks, res)
		fmt.Fprintf(os.Stderr, "%-28s %12.0f ns/op %8d B/op %6d allocs/op\n",
			r.name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	}

	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("encode: %v", err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	if *md != "" {
		if err := os.WriteFile(*md, markdownTable(f, base), 0o644); err != nil {
			return err
		}
	}
	if base != nil && compare(os.Stderr, f, *base, only, *maxRegress, *maxAllocRegress) {
		return errors.New("the run fails the baseline gate")
	}
	return nil
}

// testBinary is one package's compiled test binary and the package
// directory it runs in (tests and benchmarks open paths relative to it).
type testBinary struct{ path, dir string }

// buildTest compiles pkg's test binary into tmp.
func buildTest(pkg, tmp string) (testBinary, error) {
	dir, err := exec.Command("go", "list", "-f", "{{.Dir}}", pkg).Output()
	if err != nil {
		return testBinary{}, fmt.Errorf("go list %s: %v", pkg, err)
	}
	bin := testBinary{
		path: filepath.Join(tmp, strings.ReplaceAll(pkg, "/", "_")+".test"),
		dir:  strings.TrimSpace(string(dir)),
	}
	cmd := exec.Command("go", "test", "-c", "-o", bin.path, pkg)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return testBinary{}, fmt.Errorf("go test -c %s: %v", pkg, err)
	}
	return bin, nil
}

// run runs the one benchmark bench at procs and parses its result. The
// timeout is `go test`'s default, so a hung benchmark fails the run.
func (t testBinary) run(bench string, benchtime time.Duration, procs int) (Result, error) {
	cmd := exec.Command(t.path, "-test.run=^$", "-test.bench="+benchPattern(bench), "-test.benchmem",
		"-test.benchtime="+benchtime.String(), "-test.cpu="+strconv.Itoa(procs), "-test.timeout=10m")
	cmd.Dir = t.dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return Result{}, fmt.Errorf("%s: %v\n%s", bench, err, out)
	}
	res, err := parseResult(string(out), bench, procs)
	res.GOMAXPROCS = procs
	return res, err
}

// benchPattern selects exactly bench: every level anchored and quoted.
func benchPattern(bench string) string {
	levels := strings.Split(bench, "/")
	for i, l := range levels {
		levels[i] = "^" + regexp.QuoteMeta(l) + "$"
	}
	return strings.Join(levels, "/")
}

// parseResult reads bench's result line from `go test -bench -benchmem`
// output. The testing package appends "-<procs>" to the name unless procs
// is 1; exactly that suffix is expected, since a benchmark's own name may
// end in "-<digits>". Custom metrics named after a Counters JSON key fill
// Counters; other custom metrics are ignored.
func parseResult(out, bench string, procs int) (Result, error) {
	want := bench
	if procs != 1 {
		want = fmt.Sprintf("%s-%d", bench, procs)
	}
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 || fields[0] != want {
			continue
		}
		var res Result
		var c Counters
		counters := map[string]*uint64{
			"tests_run": &c.TestsRun, "fast_accepts": &c.FastAccepts, "fast_rejects": &c.FastRejects,
			"incremental_hits": &c.IncrementalHits, "exact_runs": &c.ExactRuns, "warm_starts": &c.WarmStarts,
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || len(fields)%2 != 0 {
			return Result{}, fmt.Errorf("malformed result line %q", line)
		}
		res.Iterations = n
		seen := 0
		for i := 2; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return Result{}, fmt.Errorf("malformed result line %q", line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp, seen = v, seen+1
			case "B/op":
				res.BytesPerOp, seen = int64(v), seen+1
			case "allocs/op":
				res.AllocsPerOp, seen = int64(v), seen+1
			default:
				if p, ok := counters[unit]; ok {
					*p = uint64(math.Round(v))
				}
			}
		}
		if seen != 3 {
			return Result{}, fmt.Errorf("result line %q lacks ns/op, B/op or allocs/op", line)
		}
		if c != (Counters{}) {
			res.Counters = &c
		}
		return res, nil
	}
	return Result{}, fmt.Errorf("no result line for %s in:\n%s", want, out)
}

func readFile(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &f, nil
}

// markdownTable renders the run as a GitHub-flavored Markdown table —
// the per-PR perf trend surface ($GITHUB_STEP_SUMMARY). With a baseline
// its ns/op and the resulting ratio are included, so a reviewer sees drift
// without downloading artifacts.
func markdownTable(f File, base *File) []byte {
	byName := map[string]Result{}
	if base != nil {
		byName = baselineRows(*base, f.GOMAXPROCS)
	}
	haveBase := len(byName) > 0
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

// compare checks the run against a baseline and reports to w; true means
// the gate fails. ns/op is gated by maxRegress (loose: absorbs machine
// variance while catching order-of-magnitude mistakes); allocs/op is gated
// by maxAllocRegress, which is machine-independent and therefore tight. A
// baseline row that -run matches but the run lacks fails as well, so a
// deleted or renamed row cannot pass unnoticed.
func compare(w io.Writer, f, base File, only *regexp.Regexp, maxRegress, maxAllocRegress float64) bool {
	byName := baselineRows(base, f.GOMAXPROCS)
	failed := false
	ran := map[string]bool{}
	for _, r := range f.Benchmarks {
		ran[r.Name] = true
		b, ok := byName[r.Name]
		if !ok || b.NsPerOp <= 0 {
			fmt.Fprintf(w, "mcbench: %s: no baseline, skipping\n", r.Name)
			continue
		}
		ratio := r.NsPerOp / b.NsPerOp
		if ratio > maxRegress {
			fmt.Fprintf(w, "mcbench: REGRESSION %s: %.0f ns/op vs baseline %.0f (%.2fx > %.2fx)\n",
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
				fmt.Fprintf(w, "mcbench: ALLOC REGRESSION %s: %d allocs/op vs baseline %d (limit %.1f)\n",
					r.Name, r.AllocsPerOp, b.AllocsPerOp, limit)
				failed = true
			}
		}
	}
	for _, b := range base.Benchmarks {
		if only.MatchString(b.Name) && !ran[b.Name] {
			fmt.Fprintf(w, "mcbench: MISSING %s: in the baseline but not in this run\n", b.Name)
			failed = true
		}
	}
	return failed
}

// baselineRows maps each row name to its baseline entry. A row recorded at
// several GOMAXPROCS values (the sweep's scaling pair) maps to the entry
// recorded at procs, or to its first entry when none was.
func baselineRows(base File, procs int) map[string]Result {
	byName := map[string]Result{}
	for _, r := range base.Benchmarks {
		if prev, ok := byName[r.Name]; !ok || r.GOMAXPROCS == procs && prev.GOMAXPROCS != procs {
			byName[r.Name] = r
		}
	}
	return byName
}

func round2(v float64) float64 { return float64(int(v*100+0.5)) / 100 }
