package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"mcsched"
	"mcsched/internal/mcsio"
	"mcsched/internal/taskgen"
)

// opKind classifies a generated request. Batch kinds reuse the single-task
// routes with "tasks"/"task_ids" bodies.
type opKind uint8

const (
	opAdmit opKind = iota
	opRelease
	opProbe
	opGet
	numKinds
)

var kindNames = [numKinds]string{"admit", "release", "probe", "get"}

// write reports whether the op mutates tenant state (and, on a durable
// daemon, journals when it commits).
func (k opKind) write() bool { return k == opAdmit || k == opRelease }

// op is one pre-built request together with what the shadow controller says
// the daemon must answer. Everything a client goroutine needs at send time
// is computed during setup, so the measured phases spend loader CPU on I/O
// only.
type op struct {
	kind   opKind
	tenant int
	// req is the complete HTTP/1.1 request, headers included.
	req []byte
	// body is the JSON payload inside req (the traced replay decodes it).
	body []byte

	// Expected outcome. admitted/cores apply to admit and probe (cores has
	// one entry per placed task, in the response's result order); count is
	// the released-task count of a release and the resident-task count of
	// a GET.
	admitted bool
	cores    []int
	count    int
	// commits reports whether the op appends a journal record on a durable
	// daemon (an accepted admit, or a release).
	commits bool
}

// stream is the full deterministic request sequence of one serve workload
// plus the shadow that decided it.
type stream struct {
	w       workload
	tenants []string // tenant IDs, index = op.tenant
	creates [][]byte // POST /v1/systems requests, one per tenant

	// ops in generated order. prefill, warm, cruise, sat and special are
	// the phase boundaries: ops[:prefill] fill the tenants during setup,
	// and so on.
	ops                                 []op
	prefill, warm, cruise, sat, special int

	shadow *mcsched.AdmissionController
	// genSets and genTime feed taskgen.gen_us_per_set.
	genSets int
	genTime time.Duration

	admitAttempts, admitAccepted int // over ops[prefill:], the measured part
}

// phaseCounts sizes the phases from -seconds. Warm-up, cruise and saturate
// are per daemon instance (the run pools setupRounds instances, each sent
// a stream of its own); the special phase runs once, on the last instance. Every count is a pure function
// of the workload constants and seconds, never of observed speed, so a seed
// fixes the exact request sequence.
func phaseCounts(w workload, seconds float64) (warm, cruise, sat, special int) {
	perRound := seconds / setupRounds
	warm = int(w.cruiseRate * perRound * shareWarm)
	cruise = int(w.cruiseRate * perRound * shareCruise)
	sat = int(w.satRate * perRound * shareSat)
	if w.replicated {
		// The lag probe sends one op at a time and polls the follower after
		// each commit; ~1.5 ms per op.
		special = int(seconds * shareSpecial * 600)
	}
	return
}

// taskPool hands out generated tasks one at a time. It draws whole task
// sets from the repo's generator (internal/taskgen, the paper's Section IV
// protocol) so the per-task parameter distribution is the one the analyses
// were evaluated on, then renumbers the tasks.
type taskPool struct {
	rng    *rand.Rand
	cfg    taskgen.Config
	buf    []mcsio.TaskJSON
	nextID int
	sets   int
	spent  time.Duration
}

func (p *taskPool) refill() error {
	for try := 0; try < 64; try++ {
		t0 := time.Now()
		ts, err := taskgen.Generate(p.rng, p.cfg)
		p.spent += time.Since(t0)
		if err != nil {
			continue // infeasible draw; the rng has advanced, try again
		}
		p.sets++
		for _, t := range ts {
			j := mcsio.TaskToJSON(t)
			// The wire form carries integers only: the daemon and the shadow
			// both derive utilizations from them, so they cannot disagree.
			j.ULo, j.UHi, j.Name = 0, 0, ""
			p.buf = append(p.buf, j)
		}
		return nil
	}
	return fmt.Errorf("taskgen: 64 infeasible draws in a row for %+v", p.cfg)
}

func (p *taskPool) next() (mcsio.TaskJSON, error) {
	if len(p.buf) == 0 {
		if err := p.refill(); err != nil {
			return mcsio.TaskJSON{}, err
		}
	}
	t := p.buf[0]
	p.buf = p.buf[1:]
	p.nextID++
	t.ID = p.nextID
	return t, nil
}

// nextBatch returns one whole generated set of exactly n tasks.
func (p *taskPool) nextBatch(n int) ([]mcsio.TaskJSON, error) {
	p.buf = p.buf[:0]
	if err := p.refill(); err != nil {
		return nil, err
	}
	if len(p.buf) != n {
		return nil, fmt.Errorf("taskgen: batch of %d tasks, want %d", len(p.buf), n)
	}
	out := make([]mcsio.TaskJSON, n)
	for i, t := range p.buf {
		p.nextID++
		t.ID = p.nextID
		out[i] = t
	}
	p.buf = p.buf[:0]
	return out, nil
}

// poolConfig is the task-parameter distribution of a workload.
func poolConfig(w workload) taskgen.Config {
	if w.batch > 0 {
		// One set = one batch: exactly w.batch tasks summing to about one
		// core at either level, constrained deadlines, so a tenant of 8
		// cores holds half a dozen batches and every core a dozen tasks —
		// the fill at which the exact analyses actually run.
		c := taskgen.DefaultConfig(1, 0.55, 0.25, 0.35)
		c.NMin, c.NMax = w.batch, w.batch
		c.Constrained = true
		return c
	}
	// Single-task workloads: the paper's m=8 generator at a mid-grid point;
	// only the per-task parameters matter, tasks arrive one by one.
	return taskgen.DefaultConfig(8, 0.55, 0.25, 0.30)
}

// tenantGen generates one tenant's ops. Tenants are independent: each has
// its own random streams, task pool and shadow system, so they can be
// generated on separate goroutines and still give the same ops for a seed.
type tenantGen struct {
	w      workload
	index  int
	id     string
	rng    *rand.Rand
	pool   *taskPool
	sys    *mcsched.AdmissionSystem
	ops    []op
	filled int // ops[:filled] are the prefill
	// resident holds task IDs (single-task workloads) or, for batch
	// workloads, groups of IDs admitted together.
	resident [][]int
	// follow is the task a probe announced it will admit next.
	follow *mcsio.TaskJSON
}

// generate builds the whole stream one daemon instance of a serve workload
// is sent and runs the shadow controller over it. seconds scales the phase
// sizes; only a stream withSpecial carries the ops of the special phase.
//
// The interleaving of tenants is drawn first and does not depend on any
// verdict; then every tenant generates exactly the ops the interleaving
// asks of it. Running the shadow is most of the cost (on
// serve-analysis-batch it is as much analysis as the daemon will do), so
// tenants are generated GOMAXPROCS at a time.
func generate(w workload, seed int64, seconds float64, withSpecial bool) (*stream, error) {
	s := &stream{w: w, shadow: mcsched.NewAdmissionController(mcsched.DefaultAdmissionConfig())}
	gens := make([]*tenantGen, w.tenants)
	for i := range gens {
		id := fmt.Sprintf("t%02d", i)
		testName := w.tests[i%len(w.tests)]
		test, ok := mcsched.TestByName(testName)
		if !ok {
			return nil, fmt.Errorf("unknown test %q", testName)
		}
		sys, err := s.shadow.CreateSystem(id, w.cores, test)
		if err != nil {
			return nil, err
		}
		gens[i] = &tenantGen{
			w: w, index: i, id: id, sys: sys,
			rng:  rand.New(rand.NewSource(seed*1000 + int64(i))),
			pool: &taskPool{rng: rand.New(rand.NewSource(seed*1000 + 500 + int64(i))), cfg: poolConfig(w)},
		}
		s.tenants = append(s.tenants, id)
		body := fmt.Sprintf(`{"id":%q,"processors":%d,"test":%q}`, id, w.cores, testName)
		s.creates = append(s.creates, buildRequest("POST", "/v1/systems", []byte(body)))
	}

	warm, cruise, sat, special := phaseCounts(w, seconds)
	if !withSpecial {
		special = 0
	}
	steady := warm + cruise + sat + special
	order := make([]int, steady)
	need := make([]int, w.tenants)
	rng := rand.New(rand.NewSource(seed))
	for k := range order {
		order[k] = rng.Intn(w.tenants)
		need[order[k]]++
	}

	errs := make([]error, len(gens))
	var wg sync.WaitGroup
	next := make(chan *tenantGen)
	for worker := 0; worker < runtime.GOMAXPROCS(0); worker++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range next {
				errs[g.index] = g.run(need[g.index])
			}
		}()
	}
	for _, g := range gens {
		next <- g
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Merge: every tenant's prefill first, then the steady ops in the drawn
	// interleaving.
	for _, g := range gens {
		s.ops = append(s.ops, g.ops[:g.filled]...)
		g.ops = g.ops[g.filled:]
	}
	s.prefill = len(s.ops)
	for _, i := range order {
		s.ops = append(s.ops, gens[i].ops[0])
		gens[i].ops = gens[i].ops[1:]
	}
	s.warm = s.prefill + warm
	s.cruise = s.warm + cruise
	s.sat = s.cruise + sat
	s.special = s.sat + special
	for _, o := range s.ops[s.prefill:] {
		if o.kind == opAdmit {
			s.admitAttempts++
			if o.admitted {
				s.admitAccepted++
			}
		}
	}
	for _, g := range gens {
		s.genSets += g.pool.sets
		s.genTime += g.pool.spent
	}
	return s, nil
}

// run generates the tenant's prefill and then n steady ops.
func (g *tenantGen) run(n int) error {
	// Prefill: admit until the tenant has refused three arrivals, i.e. it
	// sits at capacity for this task mix.
	for refused := 0; refused < 3; {
		o, err := g.genAdmit(opAdmit, nil)
		if err != nil {
			return err
		}
		if !o.admitted {
			refused++
		}
	}
	g.filled = len(g.ops)
	for len(g.ops) < g.filled+n {
		if err := g.step(); err != nil {
			return err
		}
	}
	return nil
}

// step appends the tenant's next op. Departures are a death process — each
// resident unit leaves with probability w.depart per step — and arrivals a
// fixed mix, so the offered load does not react to verdicts: a partitioner
// that packs better admits more of the same stream.
func (g *tenantGen) step() error {
	if g.follow != nil {
		t := g.follow
		g.follow = nil
		_, err := g.genAdmit(opAdmit, t)
		return err
	}
	pRel := float64(len(g.resident)) * g.w.depart
	if pRel > 0.6 {
		pRel = 0.6
	}
	if g.rng.Float64() < pRel {
		return g.genRelease()
	}
	y := g.rng.Intn(55)
	if g.w.batch > 0 {
		// Batches arrive as 30 admits to 25 probes: nearly as many reads as
		// writes, so both classes get the samples a p90 of these skewed
		// latencies needs.
		kind := opAdmit
		if y >= 30 {
			kind = opProbe
		}
		_, err := g.genAdmit(kind, nil)
		return err
	}
	// Single-task arrival mix per 55 draws: 30 fresh admits, 10
	// probe-then-admit pairs, 5 lone probes, 10 GETs; with departures near
	// 35 % of ops this yields about 40 % admit, 35 % release, 15 % probe,
	// 10 % GET.
	switch {
	case y < 30:
		_, err := g.genAdmit(opAdmit, nil)
		return err
	case y < 45:
		t, err := g.pool.next()
		if err != nil {
			return err
		}
		if y < 40 {
			// The probe-then-commit pattern: the same task is admitted next.
			g.follow = &t
		}
		_, err = g.genAdmit(opProbe, &t)
		return err
	default:
		g.genGet()
		return nil
	}
}

// genAdmit emits an admit or probe of a fresh task or batch (or of fixed,
// when a probe announced it) and applies it to the shadow.
func (g *tenantGen) genAdmit(kind opKind, fixed *mcsio.TaskJSON) (*op, error) {
	route := "/admit"
	if kind == opProbe {
		route = "/probe"
	}
	o := op{kind: kind, tenant: g.index}
	if g.w.batch > 0 {
		batch, err := g.pool.nextBatch(g.w.batch)
		if err != nil {
			return nil, err
		}
		o.body = mustJSON(struct {
			Tasks []mcsio.TaskJSON `json:"tasks"`
		}{batch})
		ts := make(mcsched.TaskSet, len(batch))
		ids := make([]int, len(batch))
		for k, j := range batch {
			t, err := mcsio.TaskFromJSON(j)
			if err != nil {
				return nil, err
			}
			ts[k], ids[k] = t, j.ID
		}
		var res mcsched.BatchAdmitResult
		if kind == opAdmit {
			res, err = g.sys.AdmitBatch(ts)
		} else {
			res, err = g.sys.ProbeBatch(ts)
		}
		if err != nil {
			return nil, fmt.Errorf("shadow %s: %w", kindNames[kind], err)
		}
		o.admitted = res.Admitted
		for _, r := range res.Results {
			o.cores = append(o.cores, r.Core)
		}
		if kind == opAdmit && res.Admitted {
			g.resident = append(g.resident, ids)
			o.commits = true
		}
	} else {
		var j mcsio.TaskJSON
		if fixed != nil {
			j = *fixed
		} else {
			var err error
			if j, err = g.pool.next(); err != nil {
				return nil, err
			}
		}
		o.body = mustJSON(struct {
			Task mcsio.TaskJSON `json:"task"`
		}{j})
		t, err := mcsio.TaskFromJSON(j)
		if err != nil {
			return nil, err
		}
		var res mcsched.AdmitResult
		if kind == opAdmit {
			res, err = g.sys.Admit(t)
		} else {
			res, err = g.sys.Probe(t)
		}
		if err != nil {
			return nil, fmt.Errorf("shadow %s: %w", kindNames[kind], err)
		}
		o.admitted, o.cores = res.Admitted, []int{res.Core}
		if kind == opAdmit && res.Admitted {
			g.resident = append(g.resident, []int{j.ID})
			o.commits = true
		}
	}
	o.req = buildRequest("POST", "/v1/systems/"+g.id+route, o.body)
	g.ops = append(g.ops, o)
	return &g.ops[len(g.ops)-1], nil
}

// genRelease emits the release of one random resident unit; an empty tenant
// receives a GET instead so the op count stays fixed.
func (g *tenantGen) genRelease() error {
	if len(g.resident) == 0 {
		g.genGet()
		return nil
	}
	k := g.rng.Intn(len(g.resident))
	ids := g.resident[k]
	g.resident[k] = g.resident[len(g.resident)-1]
	g.resident = g.resident[:len(g.resident)-1]
	n, err := g.sys.Release(ids...)
	if err != nil {
		return fmt.Errorf("shadow release: %w", err)
	}
	var body []byte
	if len(ids) == 1 {
		body = []byte(fmt.Sprintf(`{"task_id":%d}`, ids[0]))
	} else {
		body = mustJSON(struct {
			IDs []int `json:"task_ids"`
		}{ids})
	}
	g.ops = append(g.ops, op{
		kind: opRelease, tenant: g.index, body: body, count: n, commits: true,
		req: buildRequest("POST", "/v1/systems/"+g.id+"/release", body),
	})
	return nil
}

func (g *tenantGen) genGet() {
	g.ops = append(g.ops, op{
		kind: opGet, tenant: g.index, count: g.sys.NumTasks(),
		req: buildRequest("GET", "/v1/systems/"+g.id, nil),
	})
}

// partitionIDs is the shadow's final per-core task-ID layout of tenant i,
// the shape GET /v1/systems/{id} reports under partition.cores.
func (s *stream) partitionIDs(i int) [][]int {
	sys, err := s.shadow.System(s.tenants[i])
	if err != nil {
		return nil
	}
	p := sys.Snapshot()
	out := make([][]int, len(p.Cores))
	for k, c := range p.Cores {
		out[k] = []int{}
		for _, t := range c {
			out[k] = append(out[k], t.ID)
		}
	}
	return out
}

// fingerprint hashes every request of the stream; equal seeds must give
// equal fingerprints and different seeds different ones.
func (s *stream) fingerprint() uint64 {
	h := uint64(14695981039346656037)
	mix := func(b []byte) {
		for _, c := range b {
			h = (h ^ uint64(c)) * 1099511628211
		}
	}
	for _, c := range s.creates {
		mix(c)
	}
	for _, o := range s.ops {
		mix(o.req)
	}
	return h
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of ints and strings reach here
	}
	return b
}

// buildRequest renders a complete keep-alive HTTP/1.1 request.
func buildRequest(method, path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: mcload\r\n", method, path)
	if body != nil {
		fmt.Fprintf(&b, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}
