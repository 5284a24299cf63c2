package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mcsched"
	"mcsched/internal/mcsio"
)

// setupRounds is the number of daemon instances a serve run brings up from
// scratch and measures. setup_s takes the median bring-up, so one slow build
// or page-cache miss does not decide it; the measured phases pool all of
// them (see runServe).
const setupRounds = 3

// restartCycles is the number of SIGKILL → restart → first-200 cycles of
// serve-durable.
const restartCycles = 5

// result is the outcome of one run of one workload.
type result struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	E2E      map[string]float64 `json:"end_to_end"`
	Layer    map[string]float64 `json:"per_layer"`
	// Samples holds the sample count behind each percentile metric.
	Samples   map[string]int `json:"samples,omitempty"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Correct   bool           `json:"correct"`
	// Problems lists what made the run incorrect, first few only.
	Problems []string `json:"problems,omitempty"`
	// Budget is the per-layer self-time table of a traced run.
	Budget []budgetRow `json:"budget,omitempty"`
}

func newResult(w workload, seed int64, seconds float64) *result {
	r := &result{Workload: w.name, Seed: seed, Seconds: seconds, Correct: true,
		E2E: map[string]float64{}, Layer: map[string]float64{}, Samples: map[string]int{}}
	for _, m := range perLayer {
		r.Layer[m.name] = 0
	}
	return r
}

// problem records a correctness failure; the run ends incorrect.
func (r *result) problem(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < 8 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// cluster is the set of daemons one serve workload runs against.
type cluster struct {
	leader, follower *daemon
	leaderFlags      []string
	dataDir          string   // leader's data dir ("" in memory)
	dirs             []string // every data dir of the cluster
	conns            [clients]*conn
}

func (c *cluster) stop() {
	for _, cn := range c.conns {
		if cn != nil {
			cn.close()
		}
	}
	if c.leader != nil {
		c.leader.stop()
	}
	if c.follower != nil {
		c.follower.stop()
	}
}

// discard stops the cluster and deletes what it journaled.
func (c *cluster) discard() {
	c.stop()
	for _, dir := range c.dirs {
		os.RemoveAll(dir)
	}
}

// journalFlags are the daemon flags of the durable workloads.
func journalFlags(dir string) []string {
	return []string{"-data-dir", dir, "-fsync", "-group-commit", "-group-commit-delay", "200us", "-journal-codec", "binary"}
}

// startCluster launches the daemons a workload needs.
func startCluster(e *env, w workload) (*cluster, error) {
	c := &cluster{}
	if w.replicated {
		fdir, err := e.tempDir("follower")
		if err != nil {
			return nil, err
		}
		c.dirs = append(c.dirs, fdir)
		c.follower, err = e.start("", append(journalFlags(fdir), "-follow")...)
		if err != nil {
			return nil, err
		}
	}
	if w.durable {
		dir, err := e.tempDir("data")
		if err != nil {
			return nil, err
		}
		c.dataDir = dir
		c.dirs = append(c.dirs, dir)
		c.leaderFlags = journalFlags(dir)
		if w.replicated {
			c.leaderFlags = append(c.leaderFlags, "-replicate-to", "http://"+c.follower.addr, "-repl-stream")
		}
	}
	var err error
	if c.leader, err = e.start("", c.leaderFlags...); err != nil {
		c.stop()
		return nil, err
	}
	for i := range c.conns {
		if c.conns[i], err = dial(c.leader.addr); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

// split hands each client the ops of its tenants, in generated order, and
// each op's position in ops.
func split(ops []op) (parts [clients][]*op, at [clients][]int) {
	for i := range ops {
		c := ops[i].tenant % clients
		parts[c] = append(parts[c], &ops[i])
		at[c] = append(at[c], i)
	}
	return parts, at
}

// runClients runs one phase on both connections at once and merges what
// the clients recorded.
func runClients(phase func(client int) *phaseRec) *phaseRec {
	recs := make([]*phaseRec, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = phase(i)
		}(i)
	}
	wg.Wait()
	total := &phaseRec{}
	for _, r := range recs {
		total.merge(r)
	}
	return total
}

// runClosed sends ops through both clients back to back.
func (c *cluster) runClosed(ops []op) *phaseRec {
	parts, _ := split(ops)
	return runClients(func(i int) *phaseRec { return closedLoop(c.conns[i], parts[i]) })
}

// runOpen sends ops on a fixed schedule of the given rate: op k is due k/rate
// after the start, whichever client it belongs to and however long earlier
// replies took.
//
// The gaps are uniform, not exponential. On the 2-core reference box two
// requests in flight at once contend with the loader's own threads for the
// two CPUs, and the kernel's wake-up placement then adds milliseconds at
// random; evenly spaced arrivals below the service rate keep requests from
// overlapping, which is what makes the cruise percentiles repeat. The queue
// still grows, and is still charged, whenever the daemon falls behind.
func (c *cluster) runOpen(ops []op, rate float64, limit time.Duration) *phaseRec {
	parts, at := split(ops)
	var dues [clients][]time.Duration
	for cl := range at {
		for _, k := range at[cl] {
			dues[cl] = append(dues[cl], time.Duration(float64(k+1)/rate*float64(time.Second)))
		}
	}
	start := time.Now().Add(time.Millisecond)
	return runClients(func(i int) *phaseRec { return openLoop(c.conns[i], parts[i], dues[i], start, limit) })
}

// bringUp is the repeatable part of setup: build the daemon (a no-op after
// the first time, as for any user), start it, create the tenants and send
// the prefill.
func bringUp(e *env, st *stream) (*cluster, error) {
	if err := e.build(); err != nil {
		return nil, err
	}
	cl, err := startCluster(e, st.w)
	if err != nil {
		return nil, err
	}
	for i := range st.creates {
		status, body, err := cl.conns[i%clients].do(st.creates[i])
		if err != nil || status != 201 {
			cl.stop()
			return nil, fmt.Errorf("create tenant %s: status %d %v %s", st.tenants[i], status, err, body)
		}
	}
	if rec := cl.runClosed(st.ops[:st.prefill]); rec.failed > 0 {
		cl.stop()
		return nil, fmt.Errorf("prefill: %d of %d ops failed: %s", rec.failed, rec.attempted, rec.firstFail)
	}
	return cl, nil
}

// statsDoc is the part of GET /v1/stats the benchmark reads.
type statsDoc struct {
	Admits          uint64 `json:"admits"`
	Rejects         uint64 `json:"rejects"`
	Probes          uint64 `json:"probes"`
	TestsRun        uint64 `json:"tests_run"`
	CacheHits       uint64 `json:"cache_hits"`
	Dedups          uint64 `json:"dedups"`
	FastAccepts     uint64 `json:"fast_accepts"`
	FastRejects     uint64 `json:"fast_rejects"`
	IncrementalHits uint64 `json:"incremental_hits"`
	ExactRuns       uint64 `json:"exact_runs"`
	WarmStarts      uint64 `json:"warm_starts"`
	Journal         struct {
		Records      uint64 `json:"records"`
		Bytes        uint64 `json:"bytes"`
		Fsyncs       uint64 `json:"fsyncs"`
		GroupCommits uint64 `json:"group_commits"`
		Snapshots    uint64 `json:"snapshots"`
	} `json:"journal"`
}

// replDoc is the leader's view at GET /v1/replication.
type replDoc struct {
	Followers []struct {
		Tenants map[string]struct {
			Lag uint64 `json:"lag"`
		} `json:"tenants"`
	} `json:"followers"`
}

func (d *replDoc) lag() (total uint64) {
	for _, f := range d.Followers {
		for _, t := range f.Tenants {
			total += t.Lag
		}
	}
	return total
}

// fetch issues one GET on a fresh connection.
func fetch(addr, path string) ([]byte, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	status, body, err := c.do(buildRequest("GET", path, nil))
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("GET %s: status %d", path, status)
	}
	return append([]byte(nil), body...), nil
}

func fetchJSON(addr, path string, dst any) error {
	b, err := fetch(addr, path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, dst)
}

// counters is one reading of everything that only ever grows: the daemon's
// own telemetry (/v1/stats, /metrics) and the process table. Differences of
// two readings say what a phase consumed; sums of differences pool phases
// of several daemon instances.
type counters map[string]float64

func (a counters) minus(b counters) counters {
	d := make(counters, len(a))
	for k, v := range a {
		d[k] = v - b[k]
	}
	return d
}

func (a counters) add(b counters) {
	for k, v := range b {
		a[k] += v
	}
}

// promSum adds up every series of one metric family in a Prometheus text
// exposition.
func promSum(text []byte, name string) float64 {
	var sum float64
	for _, line := range bytes.Split(text, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(name)) {
			continue
		}
		rest := line[len(name):]
		if len(rest) == 0 || (rest[0] != ' ' && rest[0] != '{') {
			continue // a longer name sharing the prefix
		}
		if i := bytes.LastIndexByte(rest, ' '); i >= 0 {
			v, _ := strconv.ParseFloat(string(rest[i+1:]), 64)
			sum += v
		}
	}
	return sum
}

// take reads the counters. It is called between phases only, never while a
// measured phase runs. The second result is the time of the /metrics read.
func (c *cluster) take() (counters, time.Duration, error) {
	var st statsDoc
	if err := fetchJSON(c.leader.addr, "/v1/stats", &st); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	text, err := fetch(c.leader.opsAddr, "/metrics")
	if err != nil {
		return nil, 0, err
	}
	took := time.Since(t0)
	j := st.Journal
	n := counters{
		"decisions": float64(st.Admits + st.Rejects + st.Probes),
		"tests":     float64(st.TestsRun), "hits": float64(st.CacheHits), "shared": float64(st.Dedups),
		"fast_accepts": float64(st.FastAccepts), "fast_rejects": float64(st.FastRejects),
		"incremental": float64(st.IncrementalHits), "exact_runs": float64(st.ExactRuns), "warm_starts": float64(st.WarmStarts),
		"records": float64(j.Records), "bytes": float64(j.Bytes), "fsyncs": float64(j.Fsyncs),
		"flushes": float64(j.GroupCommits), "snapshots": float64(j.Snapshots),
		// Seconds inside the HTTP middleware and requests seen, all routes.
		"http_s":       promSum(text, "mcsched_http_request_duration_seconds_sum"),
		"http_n":       promSum(text, "mcsched_http_request_duration_seconds_count"),
		"frames":       promSum(text, "mcsched_replication_ship_batch_duration_seconds_count"),
		"daemon_cpu":   procCPU(c.leader.pid()),
		"loader_cpu":   selfCPU(),
		"follower_cpu": 0,
	}
	if c.follower != nil {
		n["follower_cpu"] = procCPU(c.follower.pid())
	}
	return n, took, nil
}

// httpFloor times n trivial requests: what one round trip through the
// daemon's HTTP stack costs before any admission work.
func (c *cluster) httpFloor(n int) float64 {
	req := buildRequest("GET", "/v1/systems", nil)
	var l latencies
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if st, _, err := c.conns[0].do(req); err == nil && st == 200 {
			l.add(time.Since(t0))
		}
	}
	return median(l.us)
}

// deviceFsync times n small write+fsync pairs in dir. It is a calibration
// of the sandbox's disk, printed so numbers from different machines are not
// compared; it is not a claim about a device.
func deviceFsync(dir string, n int) float64 {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 128)
	var l latencies
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0
		}
		if err := f.Sync(); err != nil {
			return 0
		}
		l.add(time.Since(t0))
	}
	return median(l.us)
}

// checkPartitions compares every tenant's partition on addr with the
// shadow's final state.
func checkPartitions(st *stream, addr, where string, r *result) {
	for i, id := range st.tenants {
		var doc struct {
			Partition struct {
				Cores [][]int `json:"cores"`
			} `json:"partition"`
		}
		r.Attempted++
		if err := fetchJSON(addr, "/v1/systems/"+id, &doc); err != nil {
			r.Failed++
			r.problem("%s: tenant %s: %v", where, id, err)
			continue
		}
		if want := st.partitionIDs(i); !reflect.DeepEqual(doc.Partition.Cores, want) {
			r.Failed++
			r.problem("%s: tenant %s partition differs from the shadow: got %v want %v", where, id, doc.Partition.Cores, want)
		}
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runServe runs one serve-* workload end to end.
func runServe(e *env, w workload, seed int64, seconds float64, trace bool) (*result, error) {
	r := newResult(w, seed, seconds)
	L := r.Layer

	// Every daemon instance is sent a stream of its own, derived from the seed
	// and the instance's number. What a request costs depends on the task
	// sets its tenant happens to hold (on serve-analysis-batch one tenant's
	// requests cost four times another's), so one stream is one draw of that
	// cost and the run pools three. Generating a stream runs the shadow
	// controller over every op: deterministic CPU work, counted into setup_s.
	t0 := time.Now()
	streams := make([]*stream, setupRounds)
	var genSets, admitAttempts, admitAccepted int
	var genTime time.Duration
	for round := range streams {
		st, err := generate(w, seed*setupRounds+int64(round), seconds, round == setupRounds-1)
		if err != nil {
			return nil, err
		}
		streams[round] = st
		genSets += st.genSets
		genTime += st.genTime
		admitAttempts += st.admitAttempts
		admitAccepted += st.admitAccepted
	}
	genS := time.Since(t0).Seconds()
	L["taskgen.gen_us_per_set"] = ratio(float64(genTime.Microseconds()), float64(genSets))
	// The special phase, the final checks and the traced replay use the last
	// instance and its stream.
	st := streams[setupRounds-1]

	// The measuring time is split over setupRounds daemon instances, each
	// brought up from nothing: the harness wants set-up measured several
	// times in a run, and how the kernel happens to place the loader's and
	// one daemon's threads on the two CPUs shifts that instance's latencies
	// and capacity for its whole life, so one instance is one draw of that
	// lottery however long it runs. Cruise percentiles are taken over the
	// pooled samples; what pooling hides is reported as
	// mcload.instance_spread.
	var (
		cl          *cluster
		bringUps    []float64
		satRates    []float64
		writeP50s   []float64
		cruise, sat = &phaseRec{}, &phaseRec{}
		inCruise    = counters{} // consumed by the cruise phases
		inSat       = counters{} // consumed by the saturate phases
		scrapeTook  time.Duration
		peakRSS     float64
	)
	defer func() {
		if cl != nil {
			cl.stop()
		}
	}()
	for round, st := range streams {
		if cl != nil {
			cl.discard()
		}
		t0 := time.Now()
		var err error
		if cl, err = bringUp(e, st); err != nil {
			return nil, err
		}
		bringUps = append(bringUps, time.Since(t0).Seconds())

		if round == 0 {
			// Calibration, before any load.
			L["mcschedd.http_floor_p50_us"] = cl.httpFloor(2000)
			fsyncDir := cl.dataDir
			if fsyncDir == "" {
				fsyncDir = e.work
			}
			L["journal.device_fsync_p50_us"] = deviceFsync(fsyncDir, 200)
		}

		// Warm-up: the cruise schedule, results discarded.
		if rec := cl.runOpen(st.ops[st.prefill:st.warm], w.cruiseRate, 0); rec.failed > 0 {
			r.Failed += rec.failed
			r.problem("warm-up: %s", rec.firstFail)
		}
		c0, _, err := cl.take()
		if err != nil {
			return nil, err
		}
		c := cl.runOpen(st.ops[st.warm:st.cruise], w.cruiseRate, w.limit)
		writeP50s = append(writeP50s, c.class(w.writeClass).pct(0.50))
		cruise.merge(c)
		c1, _, err := cl.take()
		if err != nil {
			return nil, err
		}
		s := cl.runClosed(st.ops[st.cruise:st.sat])
		satRates = append(satRates, s.rate)
		sat.merge(s)
		c2, took, err := cl.take()
		if err != nil {
			return nil, err
		}
		inCruise.add(c1.minus(c0))
		inSat.add(c2.minus(c1))
		scrapeTook = took
		if rss := procPeakRSSMB(cl.leader.pid()); rss > peakRSS {
			peakRSS = rss
		}
	}
	r.E2E["setup_s"] = genS + median(bringUps)

	for _, ph := range []struct {
		name string
		rec  *phaseRec
	}{{"cruise", cruise}, {"saturate", sat}} {
		r.Attempted += ph.rec.attempted
		r.Failed += ph.rec.failed
		if ph.rec.failed > 0 {
			r.problem("%s: %d of %d ops failed, first: %s", ph.name, ph.rec.failed, ph.rec.attempted, ph.rec.firstFail)
		}
	}

	// End-to-end metrics.
	writes, reads := cruise.class(w.writeClass), cruise.class(w.readClass)
	all := cruise.class(func(opKind) bool { return true })
	r.E2E["write_p50_us"], r.E2E["read_p50_us"] = writes.pct(0.50), reads.pct(0.50)
	r.Samples["write"], r.Samples["read"], r.Samples["all"] = len(writes.us), len(reads.us), len(all.us)
	r.E2E["sat_ops_s"] = median(satRates)
	r.E2E["accept_ratio"] = ratio(float64(admitAccepted), float64(admitAttempts))

	// Per-layer metrics measured against the live daemons.
	L["mcload.gen_late_p99_us"] = cruise.late.pct(0.99)
	L["mcload.slo_miss_ratio"] = ratio(float64(cruise.sloMiss), float64(cruise.attempted))
	sort.Float64s(writeP50s)
	L["mcload.instance_spread"] = ratio(writeP50s[len(writeP50s)-1]-writeP50s[0], median(writeP50s))
	L["mcschedd.write_p90_us"], L["mcschedd.read_p90_us"] = writes.pct(0.90), reads.pct(0.90)
	L["mcschedd.lat_p99_us"] = all.pct(0.99)
	for k, name := range map[opKind]string{opAdmit: "admit", opRelease: "release", opProbe: "probe", opGet: "get"} {
		L["mcschedd.route_"+name+"_p50_us"] = cruise.lat[k].pct(0.50)
	}
	L["mcschedd.status_4xx"] = float64(cruise.status4xx + sat.status4xx)
	L["mcschedd.status_5xx"] = float64(cruise.status5xx + sat.status5xx)
	L["mcschedd.peak_rss_mb"] = peakRSS
	both := counters{}
	both.add(inCruise)
	both.add(inSat)
	L["mcschedd.cpu_s_per_kop"] = ratio(both["daemon_cpu"], float64(cruise.attempted+sat.attempted)/1000)
	L["mcload.cpu_share"] = ratio(both["loader_cpu"], both["loader_cpu"]+both["daemon_cpu"]+both["follower_cpu"])
	L["obs.server_mean_us"] = 1e6 * ratio(inCruise["http_s"], inCruise["http_n"])
	L["obs.scrape_ms"] = float64(scrapeTook.Microseconds()) / 1000

	tests := both["tests"]
	demand := tests + both["hits"] + both["shared"]
	L["admission.accept_ratio"] = r.E2E["accept_ratio"]
	L["admission.tests_per_decision"] = ratio(tests, both["decisions"])
	L["admission.cache_hit_ratio"] = ratio(both["hits"], demand)
	L["admission.shared_ratio"] = ratio(both["shared"], demand)
	// Analyzer tallies live on tenants and only ever grow here (no tenant
	// is removed), so plain differences are safe.
	L["analysis.fast_accept_ratio"] = ratio(both["fast_accepts"], tests)
	L["analysis.fast_reject_ratio"] = ratio(both["fast_rejects"], tests)
	L["analysis.incremental_ratio"] = ratio(both["incremental"], tests)
	L["analysis.exact_run_ratio"] = ratio(both["exact_runs"], tests)
	L["analysis.warm_start_ratio"] = ratio(both["warm_starts"], tests)

	if w.durable {
		// Coalescing could only show with both clients back to back.
		L["journal.fsyncs_per_record"] = ratio(inSat["fsyncs"], inSat["records"])
		L["journal.records_per_flush"] = ratio(inSat["records"], inSat["flushes"])
		L["journal.bytes_per_record"] = ratio(inSat["bytes"], inSat["records"])
		L["journal.snapshots"] = both["snapshots"]
	}

	// The special phase and the final checks run on the last instance, which
	// has received the stream from its first op on.
	switch {
	case w.replicated:
		L["replication.frames_per_record"] = ratio(inSat["frames"], inSat["records"])
		L["replication.follower_cpu_s_per_kop"] = ratio(inSat["follower_cpu"], float64(sat.attempted)/1000)
		replicatedPhase(st, cl, r)
	case w.batch > 0:
		simulatePhase(st, cl, r, seconds)
	}

	// Every tenant must now hold exactly what the shadow holds.
	checkPartitions(st, cl.leader.addr, "final", r)
	if w.replicated {
		if _, err := cl.drain(10 * time.Second); err != nil {
			r.problem("final drain: %v", err)
		}
		checkPartitions(st, cl.follower.addr, "follower", r)
	}
	if w.durable {
		L["journal.disk_bytes_per_payload_byte"] = ratio(float64(dirBytes(cl.dataDir)), float64(payloadBytes(st)))
	}
	if w.durable && !w.replicated {
		if err := restartPhase(e, st, cl, r); err != nil {
			return nil, err
		}
	}

	L["mcload.fail_ratio"] = ratio(float64(r.Failed), float64(r.Attempted))
	if trace {
		if err := tracedReplay(e, st, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// payloadBytes is the size of the user data a durable daemon was asked to
// keep: the bodies of every committing request.
func payloadBytes(st *stream) (n int64) {
	for i := range st.ops {
		if st.ops[i].commits {
			n += int64(len(st.ops[i].body))
		}
	}
	return n
}

// drain waits until the leader reports zero lag on every tenant.
func (c *cluster) drain(timeout time.Duration) (time.Duration, error) {
	t0 := time.Now()
	for time.Since(t0) < timeout {
		var doc replDoc
		if err := fetchJSON(c.leader.addr, "/v1/replication", &doc); err != nil {
			return 0, err
		}
		if len(doc.Followers) > 0 && doc.lag() == 0 {
			return time.Since(t0), nil
		}
		time.Sleep(200 * time.Microsecond)
	}
	return 0, fmt.Errorf("replication lag did not reach 0 within %v", timeout)
}

// replicatedPhase measures how far the follower trails after saturation and
// how long a committed write takes to become visible on it.
func replicatedPhase(st *stream, cl *cluster, r *result) {
	L := r.Layer
	var doc replDoc
	if err := fetchJSON(cl.leader.addr, "/v1/replication", &doc); err != nil {
		r.problem("replication status: %v", err)
		return
	}
	L["replication.lag_records_end"] = float64(doc.lag())
	d, err := cl.drain(10 * time.Second)
	if err != nil {
		r.problem("drain after saturate: %v", err)
		return
	}
	L["replication.drain_ms"] = float64(d.Microseconds()) / 1000

	// Lag probe: one op at a time, no other load; after each commit, poll
	// the follower until that tenant's position moves.
	fc, err := dial(cl.follower.addr)
	if err != nil {
		r.problem("dial follower: %v", err)
		return
	}
	defer fc.close()
	statusReq := buildRequest("GET", "/v1/replication", nil)
	position := func(tenant string) (uint64, error) {
		status, body, err := fc.do(statusReq)
		if err != nil || status != 200 {
			return 0, fmt.Errorf("follower status: %d %v", status, err)
		}
		// The follower-side view: per-tenant next expected sequence.
		var doc struct {
			Tenants map[string]uint64 `json:"tenants"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return 0, fmt.Errorf("follower status: %w", err)
		}
		return doc.Tenants[tenant], nil
	}
	var visible latencies
	rec := &phaseRec{}
	special := st.ops[st.sat:st.special]
	for i := range special {
		o := &special[i]
		var before uint64
		if o.commits {
			if before, err = position(st.tenants[o.tenant]); err != nil {
				r.problem("%v", err)
				return
			}
		}
		rec.send(cl.conns[o.tenant%clients], o, time.Now(), 0)
		if !o.commits {
			continue
		}
		acked := time.Now()
		for {
			now, err := position(st.tenants[o.tenant])
			if err != nil {
				r.problem("%v", err)
				return
			}
			if now > before {
				visible.add(time.Since(acked))
				break
			}
			if time.Since(acked) > opTimeout {
				r.Failed++
				r.problem("write to %s not visible on the follower after %v", st.tenants[o.tenant], opTimeout)
				return
			}
		}
	}
	r.Attempted += rec.attempted
	r.Failed += rec.failed
	if rec.failed > 0 {
		r.problem("lag probe: %s", rec.firstFail)
	}
	L["replication.visible_p50_us"] = median(visible.us)
	r.Samples["repl_visible"] = len(visible.us)
}

// simulatePhase posts what-if simulations against tenants holding admitted
// task sets; an admitted set that misses a deadline is a soundness bug.
func simulatePhase(st *stream, cl *cluster, r *result, seconds float64) {
	const scenario = `{"v":1,"horizon":20000,"scenario":"random","seed":7,"overrun_prob":0.3,"jitter":0.5}`
	tenants, rounds := 8, 5
	if tenants > len(st.tenants) {
		tenants = len(st.tenants)
	}
	var l latencies
	var jobs float64
	var busy time.Duration
	budget := time.Duration(seconds * shareSpecial * float64(time.Second))
	t0 := time.Now()
	for round := 0; round < rounds; round++ {
		for i := 0; i < tenants; i++ {
			if round > 0 && time.Since(t0) > budget {
				break // keep the phase inside its share of -seconds
			}
			req := buildRequest("POST", "/v1/systems/"+st.tenants[i]+"/simulate", []byte(scenario))
			s := time.Now()
			status, body, err := cl.conns[0].do(req)
			d := time.Since(s)
			r.Attempted++
			if err != nil || status != 200 {
				r.Failed++
				r.problem("simulate %s: status %d %v", st.tenants[i], status, err)
				continue
			}
			var res mcsio.SimResultJSON
			if err := json.Unmarshal(body, &res); err != nil {
				r.Failed++
				r.problem("simulate %s: %v", st.tenants[i], err)
				continue
			}
			if !res.OK || res.Misses != 0 {
				r.Failed++
				r.problem("simulate %s: admitted set misses deadlines (misses=%d ok=%v)", st.tenants[i], res.Misses, res.OK)
				continue
			}
			jobs += float64(res.Released)
			busy += d
			l.add(d)
		}
	}
	r.Layer["sim.simulate_p50_ms"] = median(l.us) / 1000
	r.Layer["sim.jobs_per_s"] = ratio(jobs, busy.Seconds())
	r.Samples["simulate"] = len(l.us)
}

// restartPhase crashes and restarts the durable daemon on its data
// directory and checks that nothing acknowledged was lost.
func restartPhase(e *env, st *stream, cl *cluster, r *result) error {
	var recovers []float64
	for cycle := 0; cycle < restartCycles; cycle++ {
		for _, c := range cl.conns {
			c.close()
		}
		addr := cl.leader.addr
		t0 := time.Now()
		cl.leader.kill()
		killed := time.Since(t0)
		if cycle == 0 {
			// With the daemon dead the directory is quiescent: replay a copy
			// in-process to get the replay rate without process start-up.
			if rate, err := replayCopy(e, cl.dataDir); err != nil {
				r.problem("in-process recovery: %v", err)
			} else {
				r.Layer["journal.replay_records_per_s"] = rate
			}
			t0 = time.Now().Add(-killed) // the replay is not part of the restart
		}
		d, err := e.start(addr, cl.leaderFlags...)
		if err != nil {
			return fmt.Errorf("restart %d: %w", cycle, err)
		}
		recovers = append(recovers, time.Since(t0).Seconds()*1000)
		cl.leader = d
		checkPartitions(st, d.addr, fmt.Sprintf("after restart %d", cycle), r)
	}
	r.Layer["journal.recover_ms"] = median(recovers)
	r.Samples["recover"] = len(recovers)
	return nil
}

// replayCopy recovers a copy of the data directory in-process and returns
// replayed events per second.
func replayCopy(e *env, dataDir string) (float64, error) {
	dst, err := e.tempDir("replay")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dst)
	if out, err := exec.Command("cp", "-r", dataDir+"/.", dst).CombinedOutput(); err != nil {
		return 0, fmt.Errorf("copy data dir: %v %s", err, out)
	}
	cfg := mcsched.DefaultAdmissionConfig()
	cfg.DataDir = dst
	t0 := time.Now()
	ctrl, rs, err := mcsched.RecoverAdmissionController(cfg)
	took := time.Since(t0)
	if err != nil {
		return 0, err
	}
	ctrl.Close()
	if rs.Events == 0 {
		return 0, nil
	}
	return float64(rs.Events) / took.Seconds(), nil
}

// fsType names the filesystem under dir, for the output header.
func fsType(dir string) string {
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	abs, _ := filepath.Abs(dir)
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		if strings.HasPrefix(abs, f[1]) && len(f[1]) > len(best) {
			best, typ = f[1], f[2]
		}
	}
	return typ
}
