package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	w, _ := workloadByName(nameMem)
	a, err := generate(w, 7, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(w, 7, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	c, err := generate(w, 8, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.fingerprint() != b.fingerprint() {
		t.Error("same seed, different request bytes")
	}
	if a.fingerprint() == c.fingerprint() {
		t.Error("different seeds, same request bytes")
	}
	if len(a.ops) != len(c.ops)-c.prefill+a.prefill {
		t.Errorf("steady op count depends on the seed: %d vs %d", len(a.ops)-a.prefill, len(c.ops)-c.prefill)
	}
	// The expected outcomes must repeat too: they are what the daemon is
	// judged against.
	for i := range a.ops {
		if a.ops[i].admitted != b.ops[i].admitted || fmt.Sprint(a.ops[i].cores) != fmt.Sprint(b.ops[i].cores) {
			t.Fatalf("op %d: shadow verdicts differ between two generations of one seed", i)
		}
	}
	if ratio := float64(a.admitAccepted) / float64(a.admitAttempts); ratio < 0.5 || ratio > 0.99 {
		t.Errorf("accept ratio %.2f: tenants are not hovering near capacity", ratio)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	if _, err := percentile(sample(100), 0.99); err == nil {
		t.Error("p99 of 100 samples leaves 1 beyond it and must be refused")
	}
	if _, err := percentile(sample(99), 0.90); err == nil {
		t.Error("p90 of 99 samples leaves 9 beyond it and must be refused")
	}
	if v, err := percentile(sample(100), 0.90); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if v, err := percentile(sample(1100), 0.99); err != nil || v != 1089 {
		t.Errorf("p99 of 1..1100 = %v, %v; want 1089", v, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of nothing must be refused")
	}
	var l latencies
	for i := 0; i < 15; i++ {
		l.add(time.Millisecond)
	}
	if l.pct(0.5) != 0 {
		t.Error("p50 of 15 samples leaves 7 beyond it; pct must report 0, not a number")
	}
}

// The harness computes spreads with Python's statistics.quantiles(v, n=4);
// the printed ones must agree.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 30, 20})
	if q1 != 10 || q2 != 20 || q3 != 30 {
		t.Errorf("quartiles(10,20,30) = %v %v %v", q1, q2, q3)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
}

// fakeDaemon answers every request with body after an optional stall on the
// first one.
func fakeDaemon(t *testing.T, body string, stallFirst time.Duration) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var served atomic.Int64
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 1 {
			time.Sleep(stallFirst)
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, body)
	})}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String()
}

func TestOpenLoopChargesLatencyFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	addr := fakeDaemon(t, `{"tasks":0}`, stall)
	c, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	const n = 20
	ops := make([]*op, n)
	due := make([]time.Duration, n)
	for i := range ops {
		ops[i] = &op{kind: opGet, req: buildRequest("GET", "/v1/systems/x", nil)}
		due[i] = time.Duration(i+1) * time.Millisecond
	}
	rec := openLoop(c, ops, due, time.Now(), 10*time.Millisecond)
	if rec.failed != 0 || rec.attempted != n {
		t.Fatalf("attempted %d failed %d: %s", rec.attempted, rec.failed, rec.firstFail)
	}
	// The first request stalls for 60 ms; requests 2..20 were due 2..20 ms
	// in and could only be sent after it. Measured from the send time they
	// would all look instant; measured from the due time every one of them
	// carries the wait.
	lat := rec.lat[opGet].sorted()
	slow := sort.SearchFloat64s(lat, 35_000) // µs
	if waited := len(lat) - slow; waited != n {
		t.Errorf("%d of %d requests were charged the stall; coordinated omission hides the rest (latencies µs: %v)", waited, n, lat)
	}
	if rec.sloMiss != n {
		t.Errorf("%d requests missed the 10 ms limit, want all %d", rec.sloMiss, n)
	}
	// None of it is the generator's fault: it was never idle and late.
	if len(rec.late.us) > 1 {
		t.Errorf("generator lateness recorded for %d requests that were queued, not late", len(rec.late.us))
	}
}

func TestTamperedReplyIsCaught(t *testing.T) {
	admit := &op{kind: opAdmit, admitted: true, cores: []int{3}}
	good := `{"task_id":9,"admitted":true,"core":3,"tests":1,"cache_hits":0}`
	for body, wantOK := range map[string]bool{
		good: true,
		`{"task_id":9,"admitted":true,"core":2,"tests":1,"cache_hits":0}`:                              false, // wrong core
		`{"task_id":9,"admitted":false,"core":-1,"tests":1,"cache_hits":0,"reason":"fits on no core"}`: false, // wrong verdict
		`{"task_id":9,"tests":1}`: false, // no verdict at all
		`{"trace":{"admitted":true,"core":3},"admitted":false,"core":-1}`: false, // the verdict is the top-level one
		good + `{`: false, // not JSON
	} {
		if why := verify(admit, 200, []byte(body)); (why == "") != wantOK {
			t.Errorf("verify(%s) = %q, want ok=%v", body, why, wantOK)
		}
	}
	if why := verify(admit, 503, []byte(good)); why == "" {
		t.Error("a 503 with a plausible body passed")
	}
	batch := &op{kind: opAdmit, admitted: true, cores: []int{0, 5}}
	if why := verify(batch, 200, []byte(`{"admitted":true,"results":[{"task_id":1,"admitted":true,"core":0},{"task_id":2,"admitted":true,"core":5}],"tests":4}`)); why != "" {
		t.Errorf("correct batch reply rejected: %s", why)
	}
	if why := verify(batch, 200, []byte(`{"admitted":true,"results":[{"task_id":1,"admitted":true,"core":0},{"task_id":2,"admitted":true,"core":4}],"tests":4}`)); why == "" {
		t.Error("batch reply with one task on the wrong core passed")
	}
	if why := verify(batch, 200, []byte(`{"admitted":true,"results":[{"task_id":1,"admitted":true,"core":0}],"tests":4}`)); why == "" {
		t.Error("batch reply missing a result passed")
	}
	if why := verify(&op{kind: opRelease, count: 16}, 200, []byte(`{"released":15}`)); why == "" {
		t.Error("short release passed")
	}

	// And through the wire: a daemon that lies about the core fails the op.
	addr := fakeDaemon(t, `{"task_id":9,"admitted":true,"core":2,"tests":1,"cache_hits":0}`, 0)
	c, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	admit.req = buildRequest("POST", "/v1/systems/x/admit", []byte(`{}`))
	rec := closedLoop(c, []*op{admit})
	if rec.failed != 1 || rec.firstFail == "" {
		t.Errorf("tampered reply over the wire: failed=%d %q", rec.failed, rec.firstFail)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name   string
		b      []float64
		higher bool
		want   string
	}{
		{"same", []float64{100, 100, 101, 99, 100}, false, "pass"},
		{"slower beyond the bound", []float64{115, 116, 114, 115, 117}, false, "regress"},
		{"faster", []float64{80, 81, 79, 80, 82}, false, "pass"},
		{"throughput fell", []float64{85, 86, 84, 85, 87}, true, "regress"},
		{"too noisy to tell", []float64{70, 130, 100, 60, 140}, false, "unresolved"},
	} {
		if got, _ := verdict(base, tc.b, 0.10, tc.higher); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestExactMetricsMustRepeat(t *testing.T) {
	run := func(seed int64, ratio float64) *result {
		return &result{Seed: seed, E2E: map[string]float64{"accept_ratio": ratio}}
	}
	base := []*result{run(1, 0.84), run(1, 0.84), run(2, 0.80)}
	for _, tc := range []struct {
		name string
		b    []*result
		want string
	}{
		{"repeats", []*result{run(1, 0.84), run(2, 0.80)}, "pass"},
		{"packs better", []*result{run(1, 0.85), run(2, 0.80)}, "pass"},
		{"a thousandth worse on one seed", []*result{run(1, 0.84), run(2, 0.7992)}, "regress (exact metric)"},
		{"differs between runs of one seed", []*result{run(1, 0.84), run(1, 0.83), run(2, 0.80)}, "regress (differs between runs of one seed)"},
		{"other seeds", []*result{run(3, 0.84), run(4, 0.80)}, "unresolved (seeds differ)"},
	} {
		if got, _ := exactVerdict(base, tc.b, "accept_ratio", true); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the figures")
	}
	w, _ := workloadByName(nameSweep)
	r, err := runSweep(w, 3, 0.5, false)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 {
		t.Fatalf("sweep incorrect: %v", r.Problems)
	}
	for _, m := range endToEnd {
		if r.E2E[m.name] <= 0 {
			t.Errorf("%s = %v, want a positive measurement", m.name, r.E2E[m.name])
		}
	}
	if sweepSize(6, fig3SetsPerS) != sweepSets || sweepSize(25, fig5SetsPerS) != sweepSets {
		t.Error("Figure 3 at 6 s and Figure 5 at 25 s must be at paper scale")
	}
}

func processGone(pid int) bool {
	return syscall.Kill(pid, 0) == syscall.ESRCH
}

func portFree(addr string) bool {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return false
	}
	l.Close()
	return true
}

// A daemon that dies during start-up is the error path: nothing may be left
// behind. /bin/false stands in for a daemon that cannot boot.
func TestFailedStartLeavesNothingBehind(t *testing.T) {
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	e.bin = "/bin/false"
	if _, err := e.start(""); err == nil {
		t.Fatal("a daemon that exits at once was reported as started")
	}
	if leaked := e.cleanup(); leaked != 0 {
		t.Errorf("%d children leaked by a failed start", leaked)
	}
	if _, err := os.Stat(e.work); !os.IsNotExist(err) {
		t.Errorf("scratch directory %s survived cleanup", e.work)
	}
}

// The smoke test drives the real daemon: a miniature serve-mem run must be
// correct, and children, ports and temp dirs must be gone afterwards —
// after an orderly stop and after cleanup alone (the signal/error path).
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs mcschedd")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	w, _ := workloadByName(nameMem)
	r, err := runServe(e, w, 3, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("run incorrect: attempted %d failed %d %v", r.Attempted, r.Failed, r.Problems)
	}
	for _, m := range endToEnd {
		if r.E2E[m.name] <= 0 {
			t.Errorf("%s = %v, want a positive measurement", m.name, r.E2E[m.name])
		}
	}
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lastLine(r, false)), &line); err != nil {
		t.Fatal(err)
	}
	if len(line.Metrics) != len(endToEnd) || !line.Correct || line.Attempted != r.Attempted {
		t.Errorf("last line does not carry exactly the end-to-end metrics: %+v", line)
	}
	e.mu.Lock()
	children := append([]*daemon(nil), e.children...)
	e.mu.Unlock()
	for _, d := range children {
		if !processGone(d.pid()) || !portFree(d.addr) || !portFree(d.opsAddr) {
			t.Errorf("daemon %d outlived its run (addr %s)", d.pid(), d.addr)
		}
	}

	// The exit path of a signal or an error: nobody calls stop, cleanup has
	// to find the child, report it as leaked and take it down.
	d, err := e.start("")
	if err != nil {
		t.Fatal(err)
	}
	if leaked := e.cleanup(); leaked != 1 {
		t.Errorf("cleanup reported %d leaked children, want 1", leaked)
	}
	if !processGone(d.pid()) || !portFree(d.addr) {
		t.Errorf("daemon %d survived cleanup", d.pid())
	}
	if _, err := os.Stat(e.work); !os.IsNotExist(err) {
		t.Errorf("scratch directory %s survived cleanup", e.work)
	}
}

// BENCHMARK.json is the contract the acceptance harness reads; the tables in
// spec.go are what the program reports. They must name the same things.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	same := func(what string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", what, len(got), len(want))
		}
		for i, m := range want {
			better := "lower"
			if m.higher {
				better = "higher"
			}
			if got[i] != (metric{m.name, m.unit, better}) {
				t.Errorf("%s %d: BENCHMARK.json has %v, spec.go %v", what, i, got[i], m)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
