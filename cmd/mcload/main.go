// Command mcload is the repository's end-to-end, per-layer benchmark. It
// builds cmd/mcschedd from the checkout it runs in, launches it as a child
// process on a loopback port, generates all load itself from a seed, checks
// every reply against an in-process shadow controller, and prints every
// metric by name and unit. The offline-sweep workload runs the paper's
// acceptance-ratio experiment through the facade instead of a daemon.
//
//	go run -C cmd/mcload . -out result.json           # everything, traced
//	go run -C cmd/mcload . -workload serve-durable    # one workload
//	go run -C cmd/mcload . -repeat 5 -out a.json      # five sets, with spreads
//	go run -C cmd/mcload . -compare a.json b.json     # apply BENCHMARK.json's bounds
//
// The acceptance harness calls it as
//
//	go run -C cmd/mcload . --workload W --seed N --seconds S --trace 0|1
//
// and reads the last line of standard output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all five)")
		seed         = flag.Int64("seed", 2017, "seed of every generated input")
		seconds      = flag.Float64("seconds", 6, "measuring time per workload")
		traceFlag    = flag.Int("trace", -1, "1: also run the traced in-process replay and report per-layer metrics; 0: end-to-end only (default: 0 with -workload, 1 without)")
		out          = flag.String("out", "", "write the full result document to this file")
		repeat       = flag.Int("repeat", 1, "run this many full sets and print per-metric median, quartiles and spread")
		compare      = flag.Bool("compare", false, "compare two result documents (arguments: a.json b.json) under BENCHMARK.json's bounds")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "mcload: -compare needs two result files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "mcload: -seconds must be at least 1")
		return 2
	}

	// One process, at most two Ps: the loader must not crowd the daemon off
	// a 2-core box, and a bigger box must not change what is measured.
	if runtime.NumCPU() < 2 {
		runtime.GOMAXPROCS(1)
	} else {
		runtime.GOMAXPROCS(2)
	}

	selected := workloads
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "mcload: unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []workload{w}
	}
	trace := *traceFlag == 1 || (*traceFlag < 0 && *workloadName == "")

	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcload:", err)
		return 1
	}
	// Children, ports and temp dirs go on every exit path: normal return,
	// error return, and the two signals a user or harness sends.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.cleanup()
		os.Exit(130)
	}()
	code := 0
	doc := document{Header: header(e, *seed, *seconds)}
	for set := 0; set < *repeat; set++ {
		for _, w := range selected {
			r, err := runWorkload(e, w, *seed, *seconds, trace)
			if err != nil {
				e.cleanup()
				fmt.Fprintf(os.Stderr, "mcload: %s: %v\n", w.name, err)
				return 1
			}
			if !r.Correct {
				code = 1
			}
			doc.Results = append(doc.Results, r)
			printResult(r, trace)
		}
	}
	if leaked := e.cleanup(); leaked > 0 {
		fmt.Fprintf(os.Stderr, "mcload: %d child process(es) were still running at exit\n", leaked)
		code = 1
	}
	if len(doc.Results) > 0 {
		// The calibration metrics belong in the header so documents from
		// different machines are recognizably different.
		for _, r := range doc.Results {
			if v := r.Layer["journal.device_fsync_p50_us"]; v > 0 && doc.Header.FsyncP50US == 0 {
				doc.Header.FsyncP50US = v
			}
			if v := r.Layer["mcschedd.http_floor_p50_us"]; v > 0 && doc.Header.HTTPFloorP50US == 0 {
				doc.Header.HTTPFloorP50US = v
			}
		}
	}
	if *repeat > 1 {
		printSpreads(doc.Results)
	}
	if *out != "" {
		b, _ := json.MarshalIndent(doc, "", "  ")
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "mcload:", err)
			return 1
		}
	}
	if *workloadName != "" && *repeat == 1 {
		// The harness contract: the last line is one JSON object.
		fmt.Println(lastLine(doc.Results[0], trace))
	}
	return code
}

func runWorkload(e *env, w workload, seed int64, seconds float64, trace bool) (*result, error) {
	if w.serve {
		return runServe(e, w, seed, seconds, trace)
	}
	return runSweep(w, seed, seconds, trace)
}

// document is what -out writes and -compare reads.
type document struct {
	Header  headerDoc `json:"header"`
	Results []*result `json:"results"`
}

// headerDoc pins down where numbers came from, so results of different
// machines, seeds or commits are never compared by accident.
type headerDoc struct {
	NProc            int     `json:"nproc"`
	LoaderGOMAXPROCS int     `json:"loader_gomaxprocs"`
	DaemonGOMAXPROCS int     `json:"daemon_gomaxprocs"`
	GoVersion        string  `json:"go_version"`
	Kernel           string  `json:"kernel"`
	DataDirFS        string  `json:"data_dir_fs"`
	Seed             int64   `json:"seed"`
	Seconds          float64 `json:"seconds"`
	Commit           string  `json:"commit"`
	Time             string  `json:"time"`
	FsyncP50US       float64 `json:"journal.device_fsync_p50_us"`
	HTTPFloorP50US   float64 `json:"mcschedd.http_floor_p50_us"`
}

func header(e *env, seed int64, seconds float64) headerDoc {
	h := headerDoc{
		NProc:            runtime.NumCPU(),
		LoaderGOMAXPROCS: runtime.GOMAXPROCS(0),
		// The daemon is started without GOMAXPROCS in its environment, so it
		// takes the runtime default: every CPU.
		DaemonGOMAXPROCS: runtime.NumCPU(),
		GoVersion:        runtime.Version(),
		DataDirFS:        fsType(e.work),
		Seed:             seed,
		Seconds:          seconds,
		Commit:           "unknown",
		Time:             time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = e.root
	if b, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(b))
	}
	fmt.Printf("# mcload  nproc=%d  loader GOMAXPROCS=%d  daemon GOMAXPROCS=%d  %s  kernel %s  fs %s  seed %d  seconds %g  commit %s\n",
		h.NProc, h.LoaderGOMAXPROCS, h.DaemonGOMAXPROCS, h.GoVersion, h.Kernel, h.DataDirFS, seed, seconds, h.Commit)
	return h
}

// printResult prints every metric of a run by name and unit.
func printResult(r *result, trace bool) {
	fmt.Printf("\n== %s  seed=%d  attempted=%d failed=%d correct=%v\n", r.Workload, r.Seed, r.Attempted, r.Failed, r.Correct)
	for _, p := range r.Problems {
		fmt.Printf("   PROBLEM: %s\n", p)
	}
	if fsync, floor := r.Layer["journal.device_fsync_p50_us"], r.Layer["mcschedd.http_floor_p50_us"]; floor > 0 {
		fmt.Printf("   calibration: journal.device_fsync_p50_us=%.1f  mcschedd.http_floor_p50_us=%.1f\n", fsync, floor)
	}
	fmt.Println("   end to end:")
	for _, m := range endToEnd {
		fmt.Printf("     %-36s %14.4f %s\n", m.name, r.E2E[m.name], m.unit)
	}
	if len(r.Samples) > 0 {
		keys := make([]string, 0, len(r.Samples))
		for k := range r.Samples {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Print("   samples:")
		for _, k := range keys {
			fmt.Printf(" %s=%d", k, r.Samples[k])
		}
		fmt.Println()
	}
	fmt.Println("   per layer:")
	for _, m := range perLayer {
		v := r.Layer[m.name]
		if v == 0 {
			continue // a layer this workload (or an untraced run) does not exercise
		}
		fmt.Printf("     %-36s %14.4f %s\n", m.name, v, m.unit)
	}
	if trace && len(r.Budget) > 0 {
		printBudget(r)
	}
}

// lastLine renders the harness's result object: end-to-end metrics for an
// untraced run, per-layer metrics for a traced one.
func lastLine(r *result, trace bool) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, r.E2E
	if trace {
		defs, vals = perLayer, r.Layer
	}
	metrics := make(map[string]metric, len(defs))
	for _, m := range defs {
		metrics[m.name] = metric{vals[m.name], m.unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	b, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, attempted, r.Failed, metrics})
	return string(b)
}
