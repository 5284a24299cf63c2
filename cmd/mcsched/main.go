// Command mcsched is the Swiss-army tool of the library: it generates
// dual-criticality task sets, runs uniprocessor schedulability tests,
// partitions task systems onto multiprocessors with any strategy × test
// combination, and simulates partitioned runtimes. Subcommands compose via
// JSON on stdin/stdout:
//
//	mcsched gen -m 4 -uhh 0.5 -ulh 0.3 -ull 0.4 > ts.json
//	mcsched analyze < ts.json
//	mcsched partition -m 4 -strategy CU-UDP -test ECDF < ts.json > part.json
//	mcsched simulate -test ECDF -horizon 100000 -scenario random < part.json
//
// Run "mcsched help" for the full flag reference.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"

	"mcsched"
	"mcsched/internal/analysis/edfvd"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "partition":
		err = cmdPartition(os.Args[2:])
	case "simulate":
		err = cmdSimulate(os.Args[2:])
	case "list":
		err = cmdList(os.Args[2:])
	case "help", "-h", "--help":
		usage(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "mcsched: unknown command %q\n\n", os.Args[1])
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcsched: %v\n", err)
		os.Exit(1)
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `mcsched — partitioned mixed-criticality scheduling toolkit

Commands:
  gen        generate a dual-criticality task set (JSON to stdout)
  analyze    run uniprocessor MC schedulability tests on a task set
  partition  assign a task set to processors with a strategy × test pair
  simulate   run the discrete-event runtime on a partition
  list       list available strategies and tests
  help       show this message

Use "mcsched <command> -h" for per-command flags.
`)
}

// openInput returns the file named by path, or stdin for "" and "-".
func openInput(path string) (io.ReadCloser, error) {
	if path == "" || path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

// openOutput returns a writer to path, or stdout for "" and "-".
func openOutput(path string) (io.WriteCloser, error) {
	if path == "" || path == "-" {
		return nopWriteCloser{os.Stdout}, nil
	}
	return os.Create(path)
}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	m := fs.Int("m", 2, "number of processors")
	uhh := fs.Float64("uhh", 0.5, "normalized HI utilization of HC tasks")
	ulh := fs.Float64("ulh", 0.3, "normalized LO utilization of HC tasks")
	ull := fs.Float64("ull", 0.3, "normalized LO utilization of LC tasks")
	ph := fs.Float64("ph", 0.5, "fraction of HC tasks")
	constrained := fs.Bool("constrained", false, "constrained deadlines (D uniform in [C^H, T])")
	seed := fs.Int64("seed", 1, "RNG seed")
	count := fs.Int("n", 1, "number of task sets to emit (concatenated JSON documents)")
	out := fs.String("o", "-", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	w, err := openOutput(*out)
	if err != nil {
		return err
	}
	defer w.Close()

	rng := rand.New(rand.NewSource(*seed))
	cfg := mcsched.DefaultGenConfig(*m, *uhh, *ulh, *ull)
	cfg.PH = *ph
	cfg.Constrained = *constrained
	for i := 0; i < *count; i++ {
		ts, err := mcsched.Generate(rng, cfg)
		if err != nil {
			return err
		}
		if err := mcsched.WriteTaskSet(w, ts); err != nil {
			return err
		}
	}
	return nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	in := fs.String("i", "-", "task set JSON (default stdin)")
	testName := fs.String("test", "", "run only the named test (default: all)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	r, err := openInput(*in)
	if err != nil {
		return err
	}
	defer r.Close()
	ts, err := mcsched.ReadTaskSet(r)
	if err != nil {
		return err
	}

	fmt.Printf("tasks: %d (HC %d, LC %d)  ULL=%.3f ULH=%.3f UHH=%.3f  implicit=%v\n",
		len(ts), len(ts.HC()), len(ts.LC()), ts.ULL(), ts.ULH(), ts.UHH(), ts.Implicit())

	tests := mcsched.Tests()
	if *testName != "" {
		t, ok := mcsched.TestByName(*testName)
		if !ok {
			return fmt.Errorf("unknown test %q (see \"mcsched list\")", *testName)
		}
		tests = []mcsched.Test{t}
	}
	for _, t := range tests {
		if mcsched.ImplicitOnly(t) && !ts.Implicit() {
			fmt.Printf("  %-8s n/a (implicit deadlines only)\n", t.Name())
			continue
		}
		verdict := "NOT schedulable"
		if t.Schedulable(ts) {
			verdict = "schedulable"
		}
		extra := ""
		if _, ok := t.(edfvd.Test); ok {
			if res := mcsched.AnalyzeEDFVD(ts); res.Schedulable {
				extra = fmt.Sprintf("  (x=%.4f, plainEDF=%v)", res.X, res.PlainEDF)
			}
		}
		fmt.Printf("  %-8s %s%s\n", t.Name(), verdict, extra)
	}
	return nil
}

func cmdPartition(args []string) error {
	fs := flag.NewFlagSet("partition", flag.ExitOnError)
	in := fs.String("i", "-", "task set JSON (default stdin)")
	out := fs.String("o", "-", "partition JSON output (default stdout)")
	m := fs.Int("m", 2, "number of processors")
	strategyName := fs.String("strategy", "CU-UDP", "partitioning strategy")
	testName := fs.String("test", "EDF-VD", "uniprocessor schedulability test")
	quiet := fs.Bool("q", false, "suppress the human-readable summary on stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}

	strategy, ok := mcsched.StrategyByName(*strategyName)
	if !ok {
		return fmt.Errorf("unknown strategy %q (see \"mcsched list\")", *strategyName)
	}
	test, ok := mcsched.TestByName(*testName)
	if !ok {
		return fmt.Errorf("unknown test %q (see \"mcsched list\")", *testName)
	}

	r, err := openInput(*in)
	if err != nil {
		return err
	}
	defer r.Close()
	ts, err := mcsched.ReadTaskSet(r)
	if err != nil {
		return err
	}

	algo := mcsched.Algorithm{Strategy: strategy, Test: test}
	p, err := algo.Partition(ts, *m)
	if err != nil {
		return fmt.Errorf("%s on m=%d: %w", algo.Name(), *m, err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "%s: partitioned %d tasks onto %d cores (max util-diff %.3f)\n",
			algo.Name(), p.NumTasks(), *m, p.MaxUtilDiff())
		for k, c := range p.Cores {
			ids := make([]int, 0, len(c))
			for _, t := range c {
				ids = append(ids, t.ID)
			}
			sort.Ints(ids)
			fmt.Fprintf(os.Stderr, "  core %d: tasks %v  ULL=%.3f ULH=%.3f UHH=%.3f\n",
				k, ids, c.ULL(), c.ULH(), c.UHH())
		}
	}

	w, err := openOutput(*out)
	if err != nil {
		return err
	}
	defer w.Close()
	return mcsched.WritePartition(w, p)
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	in := fs.String("i", "-", "partition JSON (default stdin)")
	horizon := fs.Int64("horizon", 100000, "simulation horizon in ticks")
	testName := fs.String("test", "EDF-VD", "schedulability test whose certified runtime to simulate (see \"mcsched list\")")
	scenario := fs.String("scenario", "historm", "scenario: losteady, historm, random, overrun")
	seed := fs.Int64("seed", 1, "seed for the random scenario")
	overrunProb := fs.Float64("overrun-prob", 0.2, "overrun probability of the random scenario")
	jitter := fs.Float64("jitter", 0.5, "release jitter fraction of the random scenario")
	trace := fs.Int64("trace", 0, "render an ASCII Gantt chart of the first N ticks per core (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	r, err := openInput(*in)
	if err != nil {
		return err
	}
	defer r.Close()
	p, err := mcsched.ReadPartition(r)
	if err != nil {
		return err
	}

	// Only the random kind reads the seed, probability and jitter; the
	// overrun spelling overruns job 0 of task 0.
	kind, ok := map[string]string{
		"losteady": mcsched.SimLoSteady,
		"historm":  mcsched.SimHiStorm,
		"random":   mcsched.SimRandom,
		"overrun":  mcsched.SimSingleOverrun,
	}[strings.ToLower(*scenario)]
	if !ok {
		return fmt.Errorf("unknown scenario %q", *scenario)
	}
	spec := mcsched.SimSpec{Horizon: mcsched.Ticks(*horizon), Scenario: kind,
		Seed: *seed, OverrunProb: *overrunProb, Jitter: *jitter}

	miss, err := mcsched.ValidatePartitionBySimulation(p, *testName, mcsched.Ticks(*horizon), *seed)
	if err != nil {
		return err
	}

	// Also run the requested scenario per core for detailed counters. The
	// validation above already rejected an unknown test name.
	test, _ := mcsched.TestByName(*testName)
	window := min(mcsched.Ticks(*trace), mcsched.Ticks(*horizon))
	for k, ts := range p.Cores {
		cfg := mcsched.SimConfig{Spec: spec, CoreRuntime: mcsched.RuntimeForCore(test, ts)}
		var rec *mcsched.TraceRecorder
		if *trace > 0 {
			rec = &mcsched.TraceRecorder{}
			cfg.Tracer = rec
		}
		c := mcsched.SimulateCore(ts, cfg)
		fmt.Printf("core %d: released=%d completed=%d switches=%d dropped=%d preemptions=%d misses=%d\n",
			k, c.Released, c.Completed, len(c.Switches), c.DroppedJobs, c.Preemptions, len(c.Misses))
		for _, ms := range c.Misses {
			fmt.Printf("  MISS %v\n", ms)
		}
		if rec != nil {
			fmt.Print(rec.Gantt(ts, 0, window, 100))
		}
	}
	if miss != nil {
		return fmt.Errorf("validation sweep found a deadline miss: %v", *miss)
	}
	fmt.Println("validation sweep (losteady + historm + random): no required deadline missed")
	return nil
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Println("strategies:")
	for _, s := range mcsched.Strategies() {
		fmt.Printf("  %s\n", s.Name())
	}
	fmt.Println("tests:")
	for _, name := range mcsched.TestNames() {
		fmt.Printf("  %s\n", name)
	}
	return nil
}
