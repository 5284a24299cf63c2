package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mcsched"
	"mcsched/internal/core"
	"mcsched/internal/journal"
	"mcsched/internal/mcs"
	"mcsched/internal/mcsio"
	"mcsched/internal/taskgen"
)

// The traced run replays a workload's stream in-process and records a span
// around every call into a layer. Spans are recorded only here, from the
// benchmark's own files, around public calls; the daemon carries no
// benchmark instrumentation. End-to-end metrics never come from a traced
// replay: they are measured against the real daemon with no spans anywhere.

// span is one timed call into a layer.
type span struct {
	Name string `json:"name"`
	// ID is the span's index+1; Parent is the ID of the span that caused
	// it, 0 for a root. Op ties together all spans of one request.
	ID      int   `json:"id"`
	Parent  int   `json:"parent"`
	Op      int   `json:"op"`
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out once, at the end.
// The replay is single-threaded, so the open-span stack is the parent chain.
type recorder struct {
	on    bool
	t0    time.Time
	op    int
	spans []span
	open  []int
}

func (r *recorder) begin(name string) int {
	if !r.on {
		return 0
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Op: r.op, StartNS: int64(time.Since(r.t0))})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) {
	if !r.on {
		return
	}
	r.spans[id-1].EndNS = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
}

// tracedTest decorates a schedulability test with an analysis.test span. It
// implements core.Memoizer and core.Unwrapper — and deliberately nothing
// more — so an Assigner still finds the analysis family underneath and
// keeps its incremental per-core analyzers, while every probe's compute
// time lands in a span. It holds no cache: every probe runs.
type tracedTest struct {
	inner core.Test
	rec   *recorder
	runs  *int
}

func (t tracedTest) Name() string      { return t.inner.Name() }
func (t tracedTest) Unwrap() core.Test { return t.inner }

func (t tracedTest) Schedulable(ts mcs.TaskSet) bool {
	return t.Memoize(ts, t.inner.Schedulable)
}

func (t tracedTest) Memoize(ts mcs.TaskSet, compute func(mcs.TaskSet) bool) bool {
	*t.runs++
	id := t.rec.begin("analysis.test")
	ok := compute(ts)
	t.rec.end(id)
	return ok
}

// Request bodies, as cmd/mcschedd declares them.
type decideBody struct {
	Task  *mcsio.TaskJSON  `json:"task,omitempty"`
	Tasks []mcsio.TaskJSON `json:"tasks,omitempty"`
}

type releaseBody struct {
	TaskID  *int  `json:"task_id,omitempty"`
	TaskIDs []int `json:"task_ids,omitempty"`
}

// layerShadow is the set of standalone layer instances of one tenant that
// the replay feeds alongside the controller: a bare Assigner for core and
// analysis, and (durable workloads) a journal.
type layerShadow struct {
	asn    *core.Assigner
	placer core.Placer
	seq    uint64 // next journal sequence of this tenant
	log    *journal.Log
}

// replayState is everything one pass of the replay drives.
type replayState struct {
	st       *stream
	rec      *recorder
	ctrl     *mcsched.AdmissionController // configured like the daemon
	follower *mcsched.AdmissionController // replicated workloads only
	systems  []*mcsched.AdmissionSystem
	shadows  []*layerShadow
	codec    mcsio.Codec
	tests    int // analysis.test spans = probes actually run
	admits   int // admit/probe decisions fed to the bare Assigner

	eventBytes, events int
	mismatch           string
}

// daemonConfig mirrors the flags startCluster passes to mcschedd.
func daemonConfig(w workload, dir string, follower bool) mcsched.AdmissionConfig {
	cfg := mcsched.DefaultAdmissionConfig()
	cfg.Workers = runtime.GOMAXPROCS(0)
	if w.durable {
		cfg.DataDir = dir
		cfg.Fsync = true
		cfg.GroupCommit = true
		cfg.GroupCommitDelay = 200 * time.Microsecond
		cfg.JournalCodec = mcsio.CodecBinary
		cfg.Follower = follower
	}
	return cfg
}

// openController builds a controller the way mcschedd does at boot: a
// journaled one recovers its (here empty) data directory first.
func openController(cfg mcsched.AdmissionConfig) (*mcsched.AdmissionController, error) {
	if cfg.DataDir == "" {
		return mcsched.NewAdmissionController(cfg), nil
	}
	ctrl, _, err := mcsched.RecoverAdmissionController(cfg)
	return ctrl, err
}

func newReplayState(e *env, st *stream, rec *recorder) (*replayState, error) {
	w := st.w
	rs := &replayState{st: st, rec: rec, codec: mcsio.CodecBinary}
	dir, err := e.tempDir("trace")
	if err != nil {
		return nil, err
	}
	if rs.ctrl, err = openController(daemonConfig(w, filepath.Join(dir, "leader"), false)); err != nil {
		return nil, err
	}
	if w.replicated {
		if rs.follower, err = openController(daemonConfig(w, filepath.Join(dir, "follower"), true)); err != nil {
			return nil, err
		}
	}
	for i, id := range st.tenants {
		testName := w.tests[i%len(w.tests)]
		test, _ := mcsched.TestByName(testName)
		sys, err := rs.ctrl.CreateSystem(id, w.cores, test)
		if err != nil {
			return nil, err
		}
		rs.systems = append(rs.systems, sys)
		placer, _ := mcsched.PlacementByName(mcsched.DefaultPlacement)
		sh := &layerShadow{
			asn:    core.NewAssigner(w.cores, tracedTest{inner: test, rec: rec, runs: &rs.tests}),
			placer: placer,
			seq:    1,
		}
		if w.durable {
			sh.log, err = journal.Open(filepath.Join(dir, "journal", id), journal.Options{
				Fsync: true, GroupCommit: true, MaxBatchDelay: 200 * time.Microsecond,
			})
			if err != nil {
				return nil, err
			}
			create := mcsio.EventJSON{Seq: 1, Kind: mcsio.EventCreateSystem, System: id, Processors: w.cores, Test: testName}
			if err := rs.commit(i, sh, create); err != nil {
				return nil, err
			}
		}
		rs.shadows = append(rs.shadows, sh)
	}
	return rs, nil
}

func (rs *replayState) close() {
	for _, sh := range rs.shadows {
		if sh.log != nil {
			sh.log.Close()
		}
	}
	rs.ctrl.Close()
	if rs.follower != nil {
		rs.follower.Close()
	}
}

// commit pushes one committed transition through the durable layers'
// shadows: record encode, journal append and (replicated) follower apply.
func (rs *replayState) commit(tenant int, sh *layerShadow, ev mcsio.EventJSON) error {
	ev.Seq = sh.seq
	id := rs.rec.begin("mcsio.encode_event")
	payload, err := rs.codec.EncodeEvent(ev)
	rs.rec.end(id)
	if err != nil {
		return fmt.Errorf("encode event: %w", err)
	}
	rs.eventBytes += len(payload)
	rs.events++
	id = rs.rec.begin("journal.append")
	_, err = sh.log.Append(payload)
	rs.rec.end(id)
	if err != nil {
		return fmt.Errorf("journal append: %w", err)
	}
	if rs.follower != nil {
		id = rs.rec.begin("replication.apply")
		_, _, err = rs.follower.ApplyReplicatedRecords(rs.st.tenants[tenant], sh.seq, [][]byte{payload})
		rs.rec.end(id)
		if err != nil {
			return fmt.Errorf("follower apply: %w", err)
		}
	}
	sh.seq++
	return nil
}

// systemDoc is the body GET /v1/systems/{id} renders, as cmd/mcschedd
// declares it.
type systemDoc struct {
	ID         string              `json:"id"`
	Processors int                 `json:"processors"`
	Test       string              `json:"test"`
	Placement  string              `json:"placement"`
	Tasks      int                 `json:"tasks"`
	Cores      []coreReply         `json:"cores"`
	Partition  mcsio.PartitionJSON `json:"partition"`
}

type coreReply struct {
	Tasks                   int `json:"tasks"`
	ULL, ULH, UHH, UtilDiff float64
}

// replayOp runs one op through the request path and then through the layer
// shadows.
func (rs *replayState) replayOp(i int, o *op) error {
	rec := rs.rec
	rec.op = i
	sys, sh := rs.systems[o.tenant], rs.shadows[o.tenant]
	commit := o.kind == opAdmit

	// The request path: what a handler does between reading the body and
	// writing the reply.
	root := rec.begin("request")
	var tasks mcs.TaskSet
	var releaseIDs []int
	var reply any
	var admitted bool
	var cores []int
	switch o.kind {
	case opAdmit, opProbe:
		id := rec.begin("mcsio.decode_request")
		var body decideBody
		if err := json.Unmarshal(o.body, &body); err != nil {
			return err
		}
		wire := body.Tasks
		if body.Task != nil {
			wire = []mcsio.TaskJSON{*body.Task}
		}
		for _, j := range wire {
			t, err := mcsio.TaskFromJSON(j)
			if err != nil {
				return err
			}
			tasks = append(tasks, t)
		}
		rec.end(id)
		id = rec.begin("admission.decide")
		var err error
		if body.Task != nil {
			var res mcsched.AdmitResult
			if commit {
				res, err = sys.Admit(tasks[0])
			} else {
				res, err = sys.Probe(tasks[0])
			}
			reply, admitted, cores = res, res.Admitted, []int{res.Core}
		} else {
			var res mcsched.BatchAdmitResult
			if commit {
				res, err = sys.AdmitBatch(tasks)
			} else {
				res, err = sys.ProbeBatch(tasks)
			}
			reply, admitted = res, res.Admitted
			for _, r := range res.Results {
				cores = append(cores, r.Core)
			}
		}
		rec.end(id)
		if err != nil {
			return err
		}
		if admitted != o.admitted || fmt.Sprint(cores) != fmt.Sprint(o.cores) {
			rs.mismatch = fmt.Sprintf("op %d: replay decided %v %v, shadow %v %v", i, admitted, cores, o.admitted, o.cores)
		}
	case opRelease:
		id := rec.begin("mcsio.decode_request")
		var body releaseBody
		if err := json.Unmarshal(o.body, &body); err != nil {
			return err
		}
		releaseIDs = body.TaskIDs
		if body.TaskID != nil {
			releaseIDs = []int{*body.TaskID}
		}
		rec.end(id)
		id = rec.begin("admission.decide")
		n, err := sys.Release(releaseIDs...)
		rec.end(id)
		if err != nil {
			return err
		}
		reply = struct {
			Released int `json:"released"`
		}{n}
	case opGet:
		id := rec.begin("admission.decide")
		p := sys.Snapshot()
		rec.end(id)
		id = rec.begin("mcsio.encode_response")
		doc := systemDoc{ID: sys.ID(), Processors: sys.NumCores(), Test: sys.TestName(), Placement: sys.PlacementName(),
			Tasks: p.NumTasks(), Partition: mcsio.PartitionToJSON(p)}
		for _, c := range p.Cores {
			doc.Cores = append(doc.Cores, coreReply{len(c), c.ULL(), c.ULH(), c.UHH(), c.UtilDiff()})
		}
		reply = doc
		rec.end(id)
	}
	id := rec.begin("mcsio.encode_response")
	if _, err := json.Marshal(reply); err != nil {
		return err
	}
	rec.end(id)
	rec.end(root)

	// The layer shadows: the same transition on a bare Assigner (core and
	// analysis with no cache in front), then on the durable layers.
	switch o.kind {
	case opAdmit, opProbe:
		id := rec.begin("core.place")
		placed := make([]int, 0, len(tasks))
		ordered := tasks
		if len(tasks) > 1 {
			ordered = tasks.Clone()
			ordered.SortByLevelUtil()
		}
		ok := true
		for _, t := range ordered {
			rs.admits++
			k := sh.asn.FirstFitting(t, sh.placer.Order(sh.asn, t))
			if k < 0 {
				ok = false
				break
			}
			sh.asn.Commit(t, k)
			placed = append(placed, k)
		}
		if !ok || !commit {
			for _, t := range ordered[:len(placed)] {
				sh.asn.Remove(t.ID)
			}
		}
		rec.end(id)
		if ok != o.admitted {
			rs.mismatch = fmt.Sprintf("op %d: bare assigner decided %v, shadow %v", i, ok, o.admitted)
		}
		if commit && ok && sh.log != nil {
			ev := mcsio.EventJSON{Kind: mcsio.EventAdmit}
			if len(ordered) == 1 {
				j := mcsio.TaskToJSON(ordered[0])
				ev.Task, ev.Core = &j, placed[0]
			} else {
				ev.Kind = mcsio.EventAdmitBatch
				for _, t := range ordered {
					ev.Tasks = append(ev.Tasks, mcsio.TaskToJSON(t))
				}
				ev.Cores = placed
			}
			if err := rs.commit(o.tenant, sh, ev); err != nil {
				return err
			}
		}
	case opRelease:
		id := rec.begin("core.remove")
		for _, tid := range releaseIDs {
			sh.asn.Remove(tid)
		}
		rec.end(id)
		if sh.log != nil {
			if err := rs.commit(o.tenant, sh, mcsio.EventJSON{Kind: mcsio.EventRelease, TaskIDs: releaseIDs}); err != nil {
				return err
			}
		}
	}
	return nil
}

// Replay limits: the ISSUE's 20 000 ops, and a wall-clock cap so a durable
// replay (two fsyncs and a follower apply per write) stays a few seconds.
const (
	replayOps  = 20000
	replayTime = 4 * time.Second
)

// replayPass replays the stream from the start on fresh state. The prefill
// is always replayed untraced (it only builds state); the steady ops that
// follow are traced when rec.on. It returns the number of steady ops done
// and the wall time they took.
func replayPass(e *env, st *stream, rec *recorder, maxOps int, maxTime time.Duration) (int, time.Duration, *replayState, error) {
	rs, err := newReplayState(e, st, rec)
	if err != nil {
		return 0, 0, nil, err
	}
	defer rs.close()
	on := rec.on
	rec.on = false
	for i := 0; i < st.prefill; i++ {
		if err := rs.replayOp(i, &st.ops[i]); err != nil {
			return 0, 0, nil, fmt.Errorf("replay prefill op %d: %w", i, err)
		}
	}
	rec.on = on
	rs.tests, rs.admits, rs.eventBytes, rs.events = 0, 0, 0, 0
	t0 := time.Now()
	n := 0
	for i := st.prefill; i < len(st.ops) && n < maxOps && time.Since(t0) < maxTime; i++ {
		if err := rs.replayOp(i, &st.ops[i]); err != nil {
			return 0, 0, nil, fmt.Errorf("replay op %d: %w", i, err)
		}
		n++
	}
	return n, time.Since(t0), rs, nil
}

// budgetRow is one layer's mean self time per request, by request class.
type budgetRow struct {
	Layer   string  `json:"layer"`
	WriteUS float64 `json:"write_us"`
	ReadUS  float64 `json:"read_us"`
}

// tracedReplay produces the traced per-layer metrics and the self-time
// budget of a serve workload.
func tracedReplay(e *env, st *stream, r *result) error {
	rec := &recorder{on: true, t0: time.Now()}
	n, traced, rs, err := replayPass(e, st, rec, replayOps, replayTime)
	if err != nil {
		return err
	}
	if rs.mismatch != "" {
		r.problem("traced replay: %s", rs.mismatch)
	}
	// The same ops again with spans off: the difference is what tracing
	// itself costs.
	_, plain, _, err := replayPass(e, st, &recorder{}, n, time.Hour)
	if err != nil {
		return err
	}
	L := r.Layer
	L["mcload.trace_overhead_ratio"] = ratio(traced.Seconds()-plain.Seconds(), plain.Seconds())

	// Per request, the time under each span name. A span's self time is its
	// duration minus its direct children's.
	dur := func(s span) float64 { return float64(s.EndNS-s.StartNS) / 1000 }
	childTime := make([]float64, len(rec.spans)+1)
	for _, s := range rec.spans {
		childTime[s.Parent] += dur(s)
	}
	type opTimes struct {
		total, self map[string]float64
	}
	perOp := make(map[int]*opTimes, n)
	sum := map[string]float64{}
	for _, s := range rec.spans {
		t := perOp[s.Op]
		if t == nil {
			t = &opTimes{total: map[string]float64{}, self: map[string]float64{}}
			perOp[s.Op] = t
		}
		t.total[s.Name] += dur(s)
		t.self[s.Name] += dur(s) - childTime[s.ID]
		sum[s.Name] += dur(s)
	}
	ops := float64(n)
	L["mcsio.decode_request_us"] = sum["mcsio.decode_request"] / ops
	L["mcsio.encode_response_us"] = sum["mcsio.encode_response"] / ops
	L["admission.decide_us_per_op"] = sum["admission.decide"] / ops
	L["core.place_us_per_op"] = ratio(sum["core.place"], float64(rs.admits))
	L["core.self_us_per_op"] = (sum["core.place"] + sum["core.remove"] - sum["analysis.test"]) / ops
	L["core.probes_per_admit"] = ratio(float64(rs.tests), float64(rs.admits))
	L["analysis.test_us_per_decision"] = ratio(sum["analysis.test"], float64(rs.admits))
	// The budget below is that of the median request; this is the share of
	// all request time, which the expensive tail dominates.
	L["analysis.time_share"] = ratio(sum["analysis.test"], sum["request"])
	if rs.events > 0 {
		ev := float64(rs.events)
		L["mcsio.encode_event_us"] = sum["mcsio.encode_event"] / ev
		L["mcsio.event_bytes"] = float64(rs.eventBytes) / ev
		L["mcsio.encode_event_allocs"] = encodeAllocs(rs.codec)
		L["journal.append_us_per_record"] = sum["journal.append"] / ev
		if rs.follower != nil {
			L["replication.apply_us_per_record"] = sum["replication.apply"] / ev
		}
	}

	// The budget of the median request. Request times are skewed (a batch
	// that probes every core costs many times the median), so means would
	// not add up to a median; instead the rows average the requests whose
	// traced time lies between the 40th and 60th percentile of their class.
	// Layers measured standalone on the shadows (core, analysis, record
	// encode, journal) are subtracted from admission.decide, which contains
	// its own copy of that work; what is left is the admission layer's own.
	// mcschedd is the remainder against the end-to-end median measured on
	// the real daemon with no tracing, so each column sums to that median.
	names := [6]string{"mcschedd (HTTP, mux, middleware, loopback)", "mcsio", "admission", "core", "analysis", "journal"}
	rows := make([]budgetRow, len(names))
	for i := range rows {
		rows[i].Layer = names[i]
	}
	e2e := [2]float64{r.E2E["write_p50_us"], r.E2E["read_p50_us"]}
	var requestP50 [2]float64
	var admissionSelf, weight float64
	for class := 0; class < 2; class++ {
		var band []*opTimes
		for i := st.prefill; i < st.prefill+n; i++ {
			k := st.ops[i].kind
			if t := perOp[i]; t != nil && ((class == 0 && st.w.writeClass(k)) || (class == 1 && st.w.readClass(k))) {
				band = append(band, t)
			}
		}
		if len(band) == 0 {
			continue
		}
		sort.Slice(band, func(a, b int) bool { return band[a].total["request"] < band[b].total["request"] })
		requestP50[class] = band[len(band)/2].total["request"]
		band = band[len(band)*4/10 : len(band)*6/10+1]
		mean := func(pick func(*opTimes) float64) float64 {
			var v float64
			for _, t := range band {
				v += pick(t)
			}
			return v / float64(len(band))
		}
		encEvent := mean(func(t *opTimes) float64 { return t.total["mcsio.encode_event"] })
		mcsioUS := encEvent + mean(func(t *opTimes) float64 {
			return t.total["mcsio.decode_request"] + t.total["mcsio.encode_response"]
		})
		coreUS := mean(func(t *opTimes) float64 { return t.self["core.place"] + t.self["core.remove"] })
		analysisUS := mean(func(t *opTimes) float64 { return t.total["analysis.test"] })
		journalUS := mean(func(t *opTimes) float64 { return t.total["journal.append"] })
		decideUS := mean(func(t *opTimes) float64 { return t.total["admission.decide"] })
		// Negative when the controller answered faster than the standalone
		// layers did (verdict cache, parallel probes); printed as it is.
		adm := decideUS - coreUS - analysisUS - journalUS - encEvent
		vals := [6]float64{0, mcsioUS, adm, coreUS, analysisUS, journalUS}
		vals[0] = e2e[class] - (vals[1] + vals[2] + vals[3] + vals[4] + vals[5])
		for i := range rows {
			if class == 0 {
				rows[i].WriteUS = vals[i]
			} else {
				rows[i].ReadUS = vals[i]
			}
		}
		admissionSelf += adm * float64(len(band))
		weight += float64(len(band))
	}
	r.Budget = rows
	L["admission.self_us_per_op"] = ratio(admissionSelf, weight)
	L["mcschedd.self_us_per_op"] = e2e[0] - requestP50[0]
	r.Samples["traced_ops"] = n
	return writeSpans(e, st.w.name, rec)
}

// encodeAllocs counts heap allocations of one EncodeEvent of a
// representative admit event.
func encodeAllocs(codec mcsio.Codec) float64 {
	j := mcsio.TaskToJSON(mcs.NewHC(1, 2, 4, 10))
	ev := mcsio.EventJSON{Seq: 2, Kind: mcsio.EventAdmit, Task: &j, Core: 1}
	const rounds = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if _, err := codec.EncodeEvent(ev); err != nil {
			return 0
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / rounds
}

// writeSpans writes the spans of a traced run to one JSON file beside the
// built daemon (inside the checkout, ignored by git).
func writeSpans(e *env, name string, rec *recorder) error {
	path := filepath.Join(filepath.Dir(e.work), "trace-"+name+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec.spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("   spans: %d written to %s\n", len(rec.spans), path)
	return nil
}

// printBudget prints the per-layer self-time table of a traced run.
func printBudget(r *result) {
	fmt.Println("   self time per request, µs (columns sum to the untraced end-to-end median):")
	fmt.Printf("     %-44s %10s %7s %10s %7s\n", "layer", "write", "share", "read", "share")
	var sw, sr float64
	for _, row := range r.Budget {
		sw += row.WriteUS
		sr += row.ReadUS
	}
	for _, row := range r.Budget {
		fmt.Printf("     %-44s %10.2f %6.1f%% %10.2f %6.1f%%\n", row.Layer, row.WriteUS, 100*ratio(row.WriteUS, sw), row.ReadUS, 100*ratio(row.ReadUS, sr))
	}
	fmt.Printf("     %-44s %10.2f %7s %10.2f\n", "sum", sw, "", sr)
}

// tracedSweep traces the offline pipeline: draw task sets the way the
// experiment does and partition each under every algorithm of its figure.
// The budget has one column per figure, matching what write_* (Figure 5)
// and read_* (Figure 3) mean on this workload.
func tracedSweep(seed int64, r *result) error {
	rec := &recorder{on: true, t0: time.Now()}
	tests := 0
	buckets := taskgen.BucketByUB(taskgen.DefaultGrid())
	const setsPerBucket = 10
	type family struct {
		algos            []mcsched.Algorithm
		constrained      bool
		gen, part, test  float64 // µs
		sets, evals      int
		firstSpan, spans int
	}
	fams := [2]*family{ // index = budget column: 0 write (Figure 5), 1 read (Figure 3)
		{algos: mcsched.Figure45Algorithms(), constrained: true},
		{algos: mcsched.Figure3Algorithms()},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, f := range fams {
		f.firstSpan = len(rec.spans)
		for _, b := range buckets {
			for k := 0; k < setsPerBucket; k++ {
				combo := b.Combos[k%len(b.Combos)]
				cfg := mcsched.DefaultGenConfig(sweepM, combo.UHH, combo.ULH, combo.ULL)
				cfg.Constrained = f.constrained
				rec.op = fams[0].sets + fams[1].sets
				id := rec.begin("taskgen.generate")
				ts, err := mcsched.Generate(rng, cfg)
				rec.end(id)
				if err != nil {
					continue // an infeasible draw; the experiment retries too
				}
				f.sets++
				for _, algo := range f.algos {
					id := rec.begin("core.partition")
					// A partitioning failure is an outcome, not an error.
					algo.Strategy.Partition(ts, sweepM, tracedTest{inner: algo.Test, rec: rec, runs: &tests})
					rec.end(id)
					f.evals++
				}
			}
		}
		for _, s := range rec.spans[f.firstSpan:] {
			d := float64(s.EndNS-s.StartNS) / 1000
			switch s.Name {
			case "taskgen.generate":
				f.gen += d
			case "core.partition":
				f.part += d
			case "analysis.test":
				f.test += d
			}
		}
	}
	sets := float64(fams[0].sets + fams[1].sets)
	evals := float64(fams[0].evals + fams[1].evals)
	part, test := fams[0].part+fams[1].part, fams[0].test+fams[1].test
	L := r.Layer
	L["taskgen.gen_us_per_set"] = ratio(fams[0].gen+fams[1].gen, sets)
	L["core.partition_us_per_set"] = ratio(part, evals)
	L["analysis.test_us_per_set"] = ratio(test, evals)
	L["core.self_us_per_op"] = ratio(part-test, evals)
	L["core.probes_per_admit"] = ratio(float64(tests), evals)
	r.Samples["traced_sets"] = int(sets)

	// Budget per (task set × algorithm) evaluation. The first three rows are
	// CPU time of one worker; the sweep's wall time per evaluation is lower
	// because the experiment maps task sets over GOMAXPROCS workers, which
	// is what the last row accounts for.
	rows := []budgetRow{{Layer: "taskgen"}, {Layer: "core (strategy, assigner)"}, {Layer: "analysis"},
		{Layer: "experiments (parallel map: overlap < 0)"}}
	e2e := [2]float64{r.E2E["write_p50_us"], r.E2E["read_p50_us"]}
	for c, f := range fams {
		n := float64(f.evals)
		vals := [4]float64{ratio(f.gen, n), ratio(f.part-f.test, n), ratio(f.test, n), 0}
		vals[3] = e2e[c] - (vals[0] + vals[1] + vals[2])
		for i := range rows {
			if c == 0 {
				rows[i].WriteUS = vals[i]
			} else {
				rows[i].ReadUS = vals[i]
			}
		}
	}
	r.Budget = rows
	return nil
}
