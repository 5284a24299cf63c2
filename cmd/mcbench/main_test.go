package main

import (
	"regexp"
	"strings"
	"testing"
)

// benchOutput is `go test -bench -benchmem` output as the testing package
// prints it: custom metrics sorted by unit, before B/op.
const benchOutput = `goos: linux
goarch: amd64
pkg: mcsched
cpu: Intel(R) Xeon(R) Processor
BenchmarkAdmitSingle/warm       	  319266	       877.5 ns/op	         0 exact_runs	         8.000 fast_accepts	         0 fast_rejects	   2503239 incremental_hits	   2503247 tests_run	   2503239 warm_starts	       0 B/op	       0 allocs/op
BenchmarkAdmitSingle/warm-2     	  300000	       901.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkSweepFig3/m8-100       	       2	 175436508 ns/op	 6490200 B/op	    4939 allocs/op
BenchmarkJournalAdmitGroupCommit/64w/group-2         	    2912	    412345 ns/op	        31.50 records/flush	    1021 B/op	      17 allocs/op
BenchmarkNoAllocs               	     100	      1000 ns/op
PASS
ok  	mcsched	3.1s
`

func TestParseResult(t *testing.T) {
	for _, c := range []struct {
		name, bench string
		procs       int
		want        Result
		counters    *Counters
	}{
		{"no suffix at GOMAXPROCS 1", "BenchmarkAdmitSingle/warm", 1,
			Result{Iterations: 319266, NsPerOp: 877.5},
			&Counters{TestsRun: 2503247, FastAccepts: 8, IncrementalHits: 2503239, WarmStarts: 2503239}},
		{"-2 at GOMAXPROCS 2", "BenchmarkAdmitSingle/warm", 2,
			Result{Iterations: 300000, NsPerOp: 901}, nil},
		{"own name ends in -digits", "BenchmarkSweepFig3/m8-100", 1,
			Result{Iterations: 2, NsPerOp: 175436508, BytesPerOp: 6490200, AllocsPerOp: 4939}, nil},
		{"other custom metric before B/op", "BenchmarkJournalAdmitGroupCommit/64w/group", 2,
			Result{Iterations: 2912, NsPerOp: 412345, BytesPerOp: 1021, AllocsPerOp: 17}, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, err := parseResult(benchOutput, c.bench, c.procs)
			if err != nil {
				t.Fatal(err)
			}
			counters := got.Counters
			got.Counters = nil
			if got != c.want {
				t.Errorf("got %+v, want %+v", got, c.want)
			}
			if (counters == nil) != (c.counters == nil) || counters != nil && *counters != *c.counters {
				t.Errorf("counters %+v, want %+v", counters, c.counters)
			}
		})
	}
	for _, c := range []struct {
		name, bench string
		procs       int
	}{
		{"missing result line", "BenchmarkAdmitSingle/cold", 1},
		{"no -procs result line", "BenchmarkSweepFig3/m8-100", 2},
		{"generic -digits not stripped", "BenchmarkSweepFig3/m8", 1},
		{"no B/op or allocs/op", "BenchmarkNoAllocs", 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			if res, err := parseResult(benchOutput, c.bench, c.procs); err == nil {
				t.Errorf("parsed %+v, want an error", res)
			}
		})
	}
}

func TestBenchPattern(t *testing.T) {
	if got, want := benchPattern("BenchmarkPartition/CA(nosort)-F-F"),
		`^BenchmarkPartition$/^CA\(nosort\)-F-F$`; got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}

func TestCompare(t *testing.T) {
	base := File{Benchmarks: []Result{
		{Name: "a", NsPerOp: 100, AllocsPerOp: 10},
		{Name: "zero", NsPerOp: 100, AllocsPerOp: 0},
		{Name: "gone", NsPerOp: 100},
	}}
	all := regexp.MustCompile("")
	for _, c := range []struct {
		name string
		run  []Result
		only *regexp.Regexp
		fail string // "" when the gate passes
	}{
		{"within both gates", []Result{{Name: "a", NsPerOp: 200, AllocsPerOp: 15}, {Name: "zero", NsPerOp: 50, AllocsPerOp: 1}, {Name: "gone", NsPerOp: 1}}, all, ""},
		{"ns/op ratio", []Result{{Name: "a", NsPerOp: 201, AllocsPerOp: 10}}, regexp.MustCompile("^a$"), "REGRESSION a"},
		{"alloc ratio", []Result{{Name: "a", NsPerOp: 100, AllocsPerOp: 16}}, regexp.MustCompile("^a$"), "ALLOC REGRESSION a"},
		{"zero-alloc slack", []Result{{Name: "zero", NsPerOp: 100, AllocsPerOp: 2}}, regexp.MustCompile("^zero$"), "ALLOC REGRESSION zero"},
		{"missing row", []Result{{Name: "a", NsPerOp: 100, AllocsPerOp: 10}, {Name: "zero", NsPerOp: 100}}, all, "MISSING gone"},
		{"row -run does not select", []Result{{Name: "a", NsPerOp: 100, AllocsPerOp: 10}}, regexp.MustCompile("^a$"), ""},
		{"new row has no baseline", []Result{{Name: "new", NsPerOp: 1e9, AllocsPerOp: 1e6}}, regexp.MustCompile("^new$"), ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			var w strings.Builder
			failed := compare(&w, File{Benchmarks: c.run}, base, c.only, 2, 1.5)
			if failed != (c.fail != "") || !strings.Contains(w.String(), c.fail) {
				t.Errorf("failed=%v with report:\n%s\nwant failure %q", failed, w.String(), c.fail)
			}
		})
	}
}

// TestCompareMatchesGOMAXPROCS: a row recorded at GOMAXPROCS 1 and 2 is
// gated against the entry of the run's GOMAXPROCS, and against its first
// entry at any other.
func TestCompareMatchesGOMAXPROCS(t *testing.T) {
	base := File{Benchmarks: []Result{
		{Name: "sweep", NsPerOp: 100, GOMAXPROCS: 1},
		{Name: "sweep", NsPerOp: 60, GOMAXPROCS: 2},
	}}
	all := regexp.MustCompile("")
	for _, c := range []struct {
		procs int
		ns    float64
		fail  bool
	}{{1, 150, false}, {2, 150, true}, {2, 110, false}, {4, 150, false}, {4, 201, true}} {
		var w strings.Builder
		run := File{GOMAXPROCS: c.procs, Benchmarks: []Result{{Name: "sweep", NsPerOp: c.ns, GOMAXPROCS: c.procs}}}
		if failed := compare(&w, run, base, all, 2, 0); failed != c.fail {
			t.Errorf("GOMAXPROCS %d at %g ns/op: failed=%v, want %v; report:\n%s", c.procs, c.ns, failed, c.fail, w.String())
		}
	}
}
