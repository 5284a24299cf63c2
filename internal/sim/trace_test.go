package sim

import (
	"strings"
	"testing"

	"mcsched/internal/mcs"
)

func tracedRun(t *testing.T, ts mcs.TaskSet, cfg Config) (*Recorder, CoreResult) {
	t.Helper()
	rec := &Recorder{}
	cfg.Tracer = rec
	res := SimulateCore(ts, cfg)
	return rec, res
}

func TestTraceTimeOrdered(t *testing.T) {
	ts := mcs.TaskSet{
		mcs.NewHC(0, 2, 4, 10),
		mcs.NewLC(1, 3, 12),
	}
	rec, _ := tracedRun(t, ts, Config{Spec: Spec{Horizon: 500, Scenario: SpecHiStorm, ResetOnIdle: true}})
	if len(rec.Events) == 0 {
		t.Fatal("no events recorded")
	}
	last := mcs.Ticks(-1)
	for _, e := range rec.Events {
		if e.Time < last {
			t.Fatalf("events out of order at %v", e)
		}
		last = e.Time
	}
}

func TestTraceExecMatchesBusy(t *testing.T) {
	ts := mcs.TaskSet{
		mcs.NewHC(0, 2, 5, 11),
		mcs.NewLC(1, 4, 17),
	}
	rec, res := tracedRun(t, ts, Config{Spec: Spec{Horizon: 2000, Scenario: SpecRandom, Seed: 5, OverrunProb: 0.4, Jitter: 0.4, ResetOnIdle: true}})
	var total mcs.Ticks
	for _, d := range rec.ExecTotal() {
		total += d
	}
	if total != res.Busy {
		t.Fatalf("trace exec %d != busy %d", total, res.Busy)
	}
}

func TestTraceCountsMatchResult(t *testing.T) {
	ts := mcs.TaskSet{
		mcs.NewHC(0, 2, 4, 10),
		mcs.NewLC(1, 2, 10),
	}
	rec, res := tracedRun(t, ts, Config{Spec: Spec{Horizon: 1000, Scenario: SpecSingleOverrun, OverrunTask: 0, OverrunJob: 1, ResetOnIdle: true}})
	count := func(k EventKind) int {
		n := 0
		for _, e := range rec.Events {
			if e.Kind == k {
				n++
			}
		}
		return n
	}
	if got := count(EvRelease); got != res.Released {
		t.Errorf("release events %d vs Released %d", got, res.Released)
	}
	if got := count(EvComplete); got != res.Completed {
		t.Errorf("complete events %d vs Completed %d", got, res.Completed)
	}
	if got := count(EvSwitch); got != len(res.Switches) {
		t.Errorf("switch events %d vs Switches %d", got, len(res.Switches))
	}
	if got := count(EvReset); got != len(res.Resets) {
		t.Errorf("reset events %d vs Resets %d", got, len(res.Resets))
	}
	if got := count(EvDrop); got != res.DroppedJobs {
		t.Errorf("drop events %d vs DroppedJobs %d", got, res.DroppedJobs)
	}
	if got := count(EvMiss); got != len(res.Misses) {
		t.Errorf("miss events %d vs Misses %d", got, len(res.Misses))
	}
	if got := count(EvPreempt); got != res.Preemptions {
		t.Errorf("preempt events %d vs Preemptions %d", got, res.Preemptions)
	}
}

func TestRecorderCap(t *testing.T) {
	rec := &Recorder{Cap: 5}
	for i := 0; i < 20; i++ {
		rec.Record(Event{Time: mcs.Ticks(i), Kind: EvRelease})
	}
	if len(rec.Events) != 5 {
		t.Fatalf("cap not enforced: %d events", len(rec.Events))
	}
	if rec.Events[0].Time != 15 {
		t.Fatalf("oldest retained event at t=%d, want 15", rec.Events[0].Time)
	}
}

func TestGanttRenders(t *testing.T) {
	ts := mcs.TaskSet{
		mcs.NewHC(0, 2, 4, 10),
		mcs.NewLC(1, 3, 12),
	}
	rec, _ := tracedRun(t, ts, Config{Spec: Spec{Horizon: 60, Scenario: SpecSingleOverrun, OverrunTask: 0, OverrunJob: 1, ResetOnIdle: true}})
	g := rec.Gantt(ts, 0, 60, 60)
	if g == "" {
		t.Fatal("empty gantt")
	}
	for _, want := range []string{"mode", "τ0", "τ1", "#", "H"} {
		if !strings.Contains(g, want) {
			t.Errorf("gantt missing %q:\n%s", want, g)
		}
	}
	// Degenerate windows return nothing.
	if rec.Gantt(ts, 10, 10, 60) != "" {
		t.Error("empty window rendered")
	}
	if rec.Gantt(ts, 0, 60, 2) != "" {
		t.Error("tiny width rendered")
	}
}

func TestGanttWideWindowBuckets(t *testing.T) {
	ts := mcs.TaskSet{mcs.NewLC(0, 3, 10)}
	rec, _ := tracedRun(t, ts, Config{Spec: Spec{Horizon: 1000, Scenario: SpecLoSteady}})
	g := rec.Gantt(ts, 0, 1000, 50)
	if !strings.Contains(g, "tick(s)/column") || !strings.Contains(g, "#") {
		t.Fatalf("bucketed gantt malformed:\n%s", g)
	}
	lines := strings.Split(g, "\n")
	for _, ln := range lines {
		if strings.Contains(ln, "|") && len(ln) > 120 {
			t.Fatalf("row wider than requested: %q", ln)
		}
	}
}

func TestEventStrings(t *testing.T) {
	cases := []Event{
		{Time: 5, Kind: EvSwitch, TaskID: -1, Job: -1},
		{Time: 7, Kind: EvExec, TaskID: 2, Job: 1, Dur: 3},
		{Time: 9, Kind: EvMiss, TaskID: 0, Job: 4},
	}
	for _, e := range cases {
		if e.String() == "" {
			t.Errorf("empty String for %+v", e)
		}
	}
	for k := EvRelease; k <= EvMiss; k++ {
		if k.String() == "" || strings.HasPrefix(k.String(), "EventKind") {
			t.Errorf("kind %d unnamed", k)
		}
	}
	if EventKind(99).String() == "" {
		t.Error("unknown kind unnamed")
	}
}

// TestEventKindText: every kind encodes and decodes as its String name,
// and any other value or name is refused.
func TestEventKindText(t *testing.T) {
	for k := EvRelease; k <= EvMiss; k++ {
		b, err := k.MarshalText()
		if err != nil || string(b) != k.String() {
			t.Errorf("%v: MarshalText = %q, %v", k, b, err)
		}
		var got EventKind
		if err := got.UnmarshalText(b); err != nil || got != k {
			t.Errorf("%q: UnmarshalText = %v, %v", b, got, err)
		}
	}
	for _, k := range []EventKind{-1, EvMiss + 1} {
		if _, err := k.MarshalText(); err == nil {
			t.Errorf("kind %d encoded", int(k))
		}
	}
	for _, name := range []string{"", "Miss", "explode", "EventKind(9)"} {
		var k EventKind
		if err := k.UnmarshalText([]byte(name)); err == nil {
			t.Errorf("%q decoded", name)
		}
	}
}

// TestTracerNilSafe: a nil tracer must not change behaviour (the default
// path) — compare counters with and without tracing.
func TestTracerNilSafe(t *testing.T) {
	ts := mcs.TaskSet{
		mcs.NewHC(0, 2, 5, 13),
		mcs.NewLC(1, 3, 14),
	}
	cfg := Config{Spec: Spec{Horizon: 3000, Scenario: SpecRandom, Seed: 11, OverrunProb: 0.3, Jitter: 0.5, ResetOnIdle: true}}
	plain := SimulateCore(ts, cfg)
	rec := &Recorder{}
	cfg.Tracer = rec
	traced := SimulateCore(ts, cfg)
	if plain.Released != traced.Released || plain.Busy != traced.Busy ||
		len(plain.Switches) != len(traced.Switches) || plain.Completed != traced.Completed {
		t.Fatalf("tracing changed the run: %+v vs %+v", plain, traced)
	}
}
