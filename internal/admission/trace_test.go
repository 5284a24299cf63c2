package admission

import (
	"strconv"
	"strings"
	"testing"

	"mcsched/internal/mcs"
	"mcsched/internal/obs"
)

// validVias is the closed set of classifications a trace may carry.
var validVias = map[string]bool{
	ViaFastReject: true, ViaFastAccept: true, ViaIncremental: true, ViaExact: true, ViaUnknown: true,
}

func TestAdmitExplainTracesAcceptedDecision(t *testing.T) {
	c := newTestController()
	sys := mustSystem(t, c, "t", 2)

	res, trace, err := sys.AdmitExplain(hc(1, 1, 4, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Admitted || trace == nil {
		t.Fatalf("res %+v trace %v", res, trace)
	}
	if trace.TaskID != 1 || trace.Test != "EDF-VD" || !trace.Admitted || trace.Core != res.Core {
		t.Errorf("trace header %+v", trace)
	}
	if trace.Policy != "worst-fit by utilization difference" {
		t.Errorf("HC policy %q", trace.Policy)
	}
	if len(trace.Cores) == 0 {
		t.Fatal("no core probes recorded")
	}
	last := trace.Cores[len(trace.Cores)-1]
	if !last.Fits || last.Core != res.Core {
		t.Errorf("last probe %+v does not match accepting core %d", last, res.Core)
	}
	for _, ct := range trace.Cores {
		if !validVias[ct.Via] {
			t.Errorf("core %d: unknown via %q", ct.Core, ct.Via)
		}
		if ct.Via == ViaUnknown {
			t.Errorf("core %d: probe unclassified", ct.Core)
		}
	}
	// The explained admit committed, exactly like Admit.
	if sys.NumTasks() != 1 {
		t.Errorf("tasks = %d after explained admit", sys.NumTasks())
	}

	// An LC task uses the first-fit policy name.
	_, trace, err = sys.AdmitExplain(lc(2, 1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if trace.Policy != "first-fit" {
		t.Errorf("LC policy %q", trace.Policy)
	}
}

func TestProbeExplainDoesNotCommit(t *testing.T) {
	c := newTestController()
	sys := mustSystem(t, c, "t", 2)
	task := hc(1, 1, 4, 10)

	first, trace1, err := sys.ProbeExplain(task)
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumTasks() != 0 {
		t.Fatal("explained probe committed")
	}
	// The repeat probe asks the identical questions of unchanged cores and
	// gets the identical scan; each recorded probe is one analysis.
	second, trace2, err := sys.ProbeExplain(task)
	if err != nil {
		t.Fatal(err)
	}
	if first.Core != second.Core || len(trace1.Cores) != len(trace2.Cores) {
		t.Fatalf("repeat probe diverged: %+v then %+v", first, second)
	}
	for i, ct := range trace2.Cores {
		if prev := trace1.Cores[i]; ct.Core != prev.Core || ct.Fits != prev.Fits {
			t.Errorf("probe %d: %+v, first time %+v", i, ct, prev)
		}
	}
	if second.Tests != len(trace2.Cores) {
		t.Errorf("tests = %d for a scan of %d probes", second.Tests, len(trace2.Cores))
	}
}

func TestExplainTracesRejection(t *testing.T) {
	c := newTestController()
	sys := mustSystem(t, c, "t", 2)
	// Saturate both cores, then ask for more than either can hold.
	if _, err := sys.Admit(lc(1, 9, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Admit(lc(2, 9, 10)); err != nil {
		t.Fatal(err)
	}
	res, trace, err := sys.AdmitExplain(lc(3, 9, 10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted || trace.Admitted {
		t.Fatalf("overload admitted: %+v", res)
	}
	if len(trace.Cores) != 2 {
		t.Fatalf("rejected trace covers %d cores, want 2", len(trace.Cores))
	}
	for _, ct := range trace.Cores {
		if ct.Fits {
			t.Errorf("core %d reported fit on a rejection", ct.Core)
		}
	}
	if trace.Reason == "" || trace.Reason != res.Reason {
		t.Errorf("reason %q vs result %q", trace.Reason, res.Reason)
	}
}

func TestExplainValidationErrorYieldsNilTrace(t *testing.T) {
	c := newTestController()
	sys := mustSystem(t, c, "t", 2)
	bad := lc(1, 20, 10) // utilization > 1 fails validation
	if _, trace, err := sys.AdmitExplain(bad); err == nil || trace != nil {
		t.Errorf("err %v trace %v", err, trace)
	}
}

// TestExplainMatchesPlainDecision cross-checks that tracing changes nothing
// about the verdict: the same stream admitted through AdmitExplain lands
// exactly where Admit puts it.
func TestExplainMatchesPlainDecision(t *testing.T) {
	plain := newTestController()
	traced := newTestController()
	ps := mustSystem(t, plain, "t", 4)
	ts := mustSystem(t, traced, "t", 4)
	for i := 0; i < 32; i++ {
		n := mcs.Ticks(i)
		task := hc(i, 1+n%3, 2+n%3+n%5, 10+n)
		pr, err := ps.Admit(task)
		if err != nil {
			t.Fatal(err)
		}
		tr, trace, err := ts.AdmitExplain(task)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Admitted != tr.Admitted || pr.Core != tr.Core {
			t.Fatalf("task %d: plain %+v traced %+v", i, pr, tr)
		}
		if trace == nil {
			t.Fatalf("task %d: nil trace", i)
		}
	}
}

// TestStatsMatchMetricsExposition proves the one-source-of-truth property:
// after traffic, the counters in Stats() and the series rendered on
// /metrics are the same numbers. The controller journals, so the journal
// instruments register too.
func TestStatsMatchMetricsExposition(t *testing.T) {
	c := NewController(Config{DataDir: t.TempDir()})
	reg := obs.NewRegistry()
	c.EnableMetrics(reg)
	sys := mustSystem(t, c, "t", 2)
	if _, err := sys.Admit(hc(1, 1, 4, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Probe(hc(2, 1, 4, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Release(1); err != nil {
		t.Fatal(err)
	}

	st := c.Stats()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exposition := b.String()
	for _, want := range []struct {
		series string
		value  uint64
	}{
		{"mcsched_admission_admits_total", st.Admits},
		{"mcsched_admission_probes_total", st.Probes},
		{"mcsched_admission_releases_total", st.Releases},
		{"mcsched_admission_tests_run_total", st.TestsRun},
		{"mcsched_analyzer_exact_runs_total", st.ExactRuns},
		{"mcsched_admission_follower", 0}, // a leader
	} {
		line := fmtSeries(want.series, want.value)
		if !strings.Contains(exposition, line) {
			t.Errorf("exposition missing %q:\n%s", line, exposition)
		}
	}
	// Each latency histogram observed exactly its own operation.
	if !strings.Contains(exposition, "mcsched_admission_admit_duration_seconds_count 1") {
		t.Errorf("admit histogram did not observe:\n%s", exposition)
	}
	if !strings.Contains(exposition, "mcsched_admission_probe_duration_seconds_count 1") {
		t.Errorf("probe histogram did not observe:\n%s", exposition)
	}
	if !strings.Contains(exposition, "mcsched_admission_release_duration_seconds_count 1") {
		t.Errorf("release histogram did not observe:\n%s", exposition)
	}
	// The admit's clock started at the admit: its duration is far below a
	// minute.
	_, sum, _ := strings.Cut(exposition, "mcsched_admission_admit_duration_seconds_sum ")
	if secs, err := strconv.ParseFloat(strings.Fields(sum)[0], 64); err != nil || secs >= 60 {
		t.Errorf("admit histogram sum %q: %v", strings.Fields(sum)[0], err)
	}
}

// TestAdmitWarmInstrumentedZeroAlloc is the allocation gate behind the
// tentpole claim: a fully instrumented controller (EnableMetrics attached,
// latency histograms live) still serves the warm admit+release cycle
// without a single heap allocation.
func TestAdmitWarmInstrumentedZeroAlloc(t *testing.T) {
	c := newTestController()
	c.EnableMetrics(obs.NewRegistry())
	sys := mustSystem(t, c, "t", 8)
	for i := 0; i < 64; i++ {
		if _, err := sys.Admit(hc(i, 1, 2, 100)); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the cycle once so lazily built state exists.
	probe := hc(1000, 1, 2, 100)
	cycle := func() {
		res, err := sys.Admit(probe)
		if err != nil {
			t.Fatal(err)
		}
		if res.Admitted {
			if _, err := sys.Release(probe.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("instrumented warm admit: %v allocs/op, want 0", allocs)
	}
}

func fmtSeries(name string, v uint64) string {
	return name + " " + strconv.FormatUint(v, 10) + "\n"
}
