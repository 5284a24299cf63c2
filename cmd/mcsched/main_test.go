package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcsched"
)

// genFile writes a generated task set to a temp file and returns its path.
func genFile(t *testing.T, dir string, extra ...string) string {
	t.Helper()
	path := filepath.Join(dir, "ts.json")
	args := append([]string{"-m", "2", "-seed", "9", "-o", path}, extra...)
	if err := cmdGen(args); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCmdGenProducesValidJSON(t *testing.T) {
	dir := t.TempDir()
	path := genFile(t, dir, "-uhh", "0.4", "-ulh", "0.2", "-ull", "0.3")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ts, err := mcsched.ReadTaskSet(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) < 3 {
		t.Fatalf("only %d tasks", len(ts))
	}
}

func TestCmdGenConstrained(t *testing.T) {
	dir := t.TempDir()
	path := genFile(t, dir, "-constrained", "-uhh", "0.5", "-ulh", "0.3", "-ull", "0.2")
	f, _ := os.Open(path)
	defer f.Close()
	ts, err := mcsched.ReadTaskSet(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range ts {
		if task.Deadline > task.Period {
			t.Fatalf("bad deadline in %v", task)
		}
	}
}

func TestCmdGenRejectsInfeasible(t *testing.T) {
	// ULH > UHH is structurally impossible.
	err := cmdGen([]string{"-m", "2", "-uhh", "0.2", "-ulh", "0.5", "-o", filepath.Join(t.TempDir(), "x.json")})
	if err == nil {
		t.Fatal("infeasible config accepted")
	}
}

func TestCmdAnalyze(t *testing.T) {
	dir := t.TempDir()
	path := genFile(t, dir, "-uhh", "0.3", "-ulh", "0.2", "-ull", "0.2")
	if err := cmdAnalyze([]string{"-i", path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAnalyze([]string{"-i", path, "-test", "EDF-VD"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAnalyze([]string{"-i", path, "-test", "bogus"}); err == nil {
		t.Fatal("bogus test name accepted")
	}
	if err := cmdAnalyze([]string{"-i", filepath.Join(dir, "missing.json")}); err == nil {
		t.Fatal("missing input accepted")
	}
}

// TestCmdAnalyzeCoverage: analyze prints "n/a" for a test that does not
// cover the set's deadline model, decides it under every other test, and
// prints EDF-VD's x for an implicit set; partition refuses the constrained
// set under an implicit-only test with an UncoveredError.
func TestCmdAnalyzeCoverage(t *testing.T) {
	dir := t.TempDir()
	implicit := genFile(t, dir, "-uhh", "0.3", "-ulh", "0.15", "-ull", "0.2")
	if out := stdoutOf(t, func() error { return cmdAnalyze([]string{"-i", implicit, "-test", "EDF-VD"}) }); !strings.Contains(out, "EDF-VD   schedulable  (x=") {
		t.Errorf("implicit set under EDF-VD:\n%s", out)
	}
	constrained := filepath.Join(dir, "c.json")
	if err := cmdGen([]string{"-m", "2", "-seed", "9", "-constrained", "-uhh", "0.3", "-ulh", "0.15", "-ull", "0.2", "-o", constrained}); err != nil {
		t.Fatal(err)
	}
	for _, name := range mcsched.TestNames() {
		test, _ := mcsched.TestByName(name)
		out := stdoutOf(t, func() error { return cmdAnalyze([]string{"-i", constrained, "-test", name}) })
		if na := strings.Contains(out, "n/a (implicit deadlines only)"); na != mcsched.ImplicitOnly(test) {
			t.Errorf("constrained set under %s:\n%s", name, out)
		}
	}
	err := cmdPartition([]string{"-i", constrained, "-o", filepath.Join(dir, "p.json"), "-test", "EDF-util", "-q"})
	var uerr mcsched.UncoveredError
	if !errors.As(err, &uerr) || uerr.Test != "EDF-util" {
		t.Fatalf("partition of a constrained set under EDF-util: %v", err)
	}
}

func TestCmdPartitionAndSimulate(t *testing.T) {
	dir := t.TempDir()
	tsPath := genFile(t, dir, "-uhh", "0.4", "-ulh", "0.2", "-ull", "0.3")
	partPath := filepath.Join(dir, "part.json")
	if err := cmdPartition([]string{
		"-i", tsPath, "-o", partPath, "-m", "2",
		"-strategy", "CU-UDP", "-test", "EDF-VD", "-q",
	}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(partPath)
	if err != nil {
		t.Fatal(err)
	}
	p, err := mcsched.ReadPartition(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Cores) != 2 {
		t.Fatalf("%d cores", len(p.Cores))
	}

	for _, args := range [][]string{
		{"-i", partPath, "-horizon", "20000", "-scenario", "losteady"},
		{"-i", partPath, "-horizon", "20000", "-scenario", "historm"},
		{"-i", partPath, "-horizon", "20000", "-scenario", "random", "-seed", "3"},
		{"-i", partPath, "-horizon", "20000", "-scenario", "overrun"},
		{"-i", partPath, "-horizon", "20000", "-test", "AMC-max"},
	} {
		if err := cmdSimulate(args); err != nil {
			t.Fatalf("simulate %v: %v", args, err)
		}
	}
	if err := cmdSimulate([]string{"-i", partPath, "-test", "warp-drive"}); err == nil {
		t.Fatal("unknown test accepted")
	}
	if err := cmdSimulate([]string{"-i", partPath, "-scenario", "surprise"}); err == nil {
		t.Fatal("bad scenario accepted")
	}
}

func TestCmdPartitionErrors(t *testing.T) {
	dir := t.TempDir()
	tsPath := genFile(t, dir)
	out := filepath.Join(dir, "p.json")
	if err := cmdPartition([]string{"-i", tsPath, "-o", out, "-strategy", "nope", "-q"}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if err := cmdPartition([]string{"-i", tsPath, "-o", out, "-test", "nope", "-q"}); err == nil {
		t.Fatal("unknown test accepted")
	}
	// Overload: everything on one core with a heavy set fails.
	heavy := filepath.Join(dir, "heavy.json")
	if err := cmdGen([]string{"-m", "4", "-uhh", "0.9", "-ulh", "0.5", "-ull", "0.4", "-seed", "2", "-o", heavy}); err != nil {
		t.Fatal(err)
	}
	if err := cmdPartition([]string{"-i", heavy, "-o", out, "-m", "1", "-q"}); err == nil {
		t.Fatal("overload partition accepted")
	}
}

func TestCmdList(t *testing.T) {
	if err := cmdList(nil); err != nil {
		t.Fatal(err)
	}
}

// stdoutOf runs f with os.Stdout redirected to a pipe and returns what it
// printed.
func stdoutOf(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	stdout := os.Stdout
	os.Stdout = w
	ferr := f()
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if ferr != nil {
		t.Fatal(ferr)
	}
	return string(out)
}

// TestEveryTestNameListed: every name the test registry resolves is printed
// by "mcsched list", and partition and simulate accept it with -test.
func TestEveryTestNameListed(t *testing.T) {
	_, listed, ok := strings.Cut(stdoutOf(t, func() error { return cmdList(nil) }), "tests:\n")
	if !ok {
		t.Fatal(`"mcsched list" prints no "tests:" section`)
	}
	dir := t.TempDir()
	tsPath := genFile(t, dir, "-uhh", "0.3", "-ulh", "0.15", "-ull", "0.2")
	for _, name := range mcsched.TestNames() {
		if !strings.Contains(listed, "  "+name+"\n") {
			t.Errorf("list does not print test %q:\n%s", name, listed)
		}
		partPath := filepath.Join(dir, "p.json")
		if err := cmdPartition([]string{"-i", tsPath, "-o", partPath, "-m", "2", "-test", name, "-q"}); err != nil {
			t.Fatalf("partition -test %s: %v", name, err)
		}
		if err := cmdSimulate([]string{"-i", partPath, "-horizon", "5000", "-test", name}); err != nil {
			t.Fatalf("simulate -test %s: %v", name, err)
		}
	}
}

func TestUsagePrints(t *testing.T) {
	var sb strings.Builder
	usage(&sb)
	for _, want := range []string{"gen", "analyze", "partition", "simulate", "list"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("usage missing %q", want)
		}
	}
}

// TestCmdSimulateUsesCertifyingTest: simulate runs each partition under the
// runtime its own test certified. Seed 7's set, partitioned by ECDF or EY,
// misses a LO-mode deadline when its HC tasks run with EDF-VD's scaling
// factor instead of the test's per-task virtual deadlines.
func TestCmdSimulateUsesCertifyingTest(t *testing.T) {
	dir := t.TempDir()
	tsPath := filepath.Join(dir, "ts.json")
	if err := cmdGen([]string{"-m", "2", "-constrained", "-uhh", "0.55", "-ulh", "0.3", "-ull", "0.3",
		"-seed", "7", "-o", tsPath}); err != nil {
		t.Fatal(err)
	}
	for _, test := range []string{"ECDF", "EY"} {
		partPath := filepath.Join(dir, test+".json")
		if err := cmdPartition([]string{"-i", tsPath, "-o", partPath, "-m", "2", "-test", test, "-q"}); err != nil {
			t.Fatalf("partition -test %s: %v", test, err)
		}
		if err := cmdSimulate([]string{"-i", partPath, "-test", test}); err != nil {
			t.Errorf("simulate -test %s: %v", test, err)
		}
	}
}
