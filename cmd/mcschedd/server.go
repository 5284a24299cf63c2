package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"mcsched"
	"mcsched/internal/admission"
	"mcsched/internal/mcs"
	"mcsched/internal/mcsio"
	"mcsched/internal/obs"
	"mcsched/internal/replication"
)

// server is the HTTP face of one admission.Controller. It owns no state of
// its own: every handler resolves a tenant, delegates, and renders JSON, so
// all concurrency control lives in the admission package. ship and recv
// attach the replication roles: a leader that replicates carries a shipper,
// a follower carries a receiver, and either may be nil.
type server struct {
	ctrl *admission.Controller
	mux  *http.ServeMux
	ship *replication.Shipper
	recv *replication.Receiver

	// log receives one line per failed request (with the request ID once
	// instrument installs the middleware); handler is the served entry
	// point — the bare mux until instrument wraps it.
	log     *slog.Logger
	handler http.Handler
}

func newServer(ctrl *admission.Controller) *server {
	s := &server{ctrl: ctrl, mux: http.NewServeMux(), log: slog.New(slog.DiscardHandler)}
	for pattern, h := range s.routes() {
		s.mux.HandleFunc(pattern, h)
	}
	s.handler = s.mux
	return s
}

// routes is the single source of the route table: the mux registers every
// entry and instrument pre-builds one metric series per pattern, so the
// route label on /metrics is always a registration pattern, never a raw
// URL.
func (s *server) routes() map[string]http.HandlerFunc {
	return map[string]http.HandlerFunc{
		"POST /v1/systems":               s.handleCreateSystem,
		"GET /v1/systems":                s.handleListSystems,
		"GET /v1/systems/{id}":           s.handleGetSystem,
		"DELETE /v1/systems/{id}":        s.handleDeleteSystem,
		"POST /v1/systems/{id}/admit":    s.handleDecide(true),
		"POST /v1/systems/{id}/probe":    s.handleDecide(false),
		"POST /v1/systems/{id}/release":  s.handleRelease,
		"POST /v1/systems/{id}/snapshot": s.handleSnapshot,
		"POST /v1/systems/{id}/simulate": s.handleSimulate,
		"GET /v1/strategies":             s.handleStrategies,
		"GET /v1/stats":                  s.handleStats,
		"GET " + replication.StatusPath:  s.handleReplicationStatus,
		"POST " + replication.StreamPath: s.handleReplicationStream,
		"POST /v1/promote":               s.handlePromote,
	}
}

// instrument wraps the mux with the obs middleware: per-route metrics on
// reg, request-ID propagation and a structured log line on logger for
// every failed request.
func (s *server) instrument(reg *obs.Registry, logger *slog.Logger) *server {
	s.log = logger
	patterns := make([]string, 0, len(s.routes()))
	for p := range s.routes() {
		patterns = append(patterns, p)
	}
	sort.Strings(patterns)
	s.handler = obs.NewHTTPMetrics(reg, patterns).Instrument(s.mux, logger)
	return s
}

// withShipper attaches the leader-side log shipper (replication lag shows
// up in /v1/replication and /v1/stats).
func (s *server) withShipper(ship *replication.Shipper) *server {
	s.ship = ship
	return s
}

// withReceiver attaches the follower-side frame receiver.
func (s *server) withReceiver(recv *replication.Receiver) *server {
	s.recv = recv
	return s
}

// ServeHTTP implements http.Handler.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// ---------------------------------------------------------------------------
// Wire types (request side; responses reuse admission and mcsio types)
// ---------------------------------------------------------------------------

type createSystemRequest struct {
	// ID is the tenant identifier; empty draws a generated one.
	ID string `json:"id"`
	// Processors is the core count m > 0.
	Processors int `json:"processors"`
	// Test names the uniprocessor schedulability test: one of
	// mcsched.TestNames, which GET /v1/strategies lists.
	Test string `json:"test"`
	// Placement optionally names the placement heuristic (see GET
	// /v1/strategies), including "<name>@<limit>" per-core utilization
	// caps; empty selects the server default. Unknown names are rejected.
	Placement string `json:"placement,omitempty"`
}

type createSystemResponse struct {
	ID         string `json:"id"`
	Processors int    `json:"processors"`
	Test       string `json:"test"`
	Placement  string `json:"placement"`
}

// admitRequest carries one task or a batch — exactly one of the two fields.
type admitRequest struct {
	Task  *mcsio.TaskJSON  `json:"task,omitempty"`
	Tasks []mcsio.TaskJSON `json:"tasks,omitempty"`
}

type releaseRequest struct {
	TaskID  *int  `json:"task_id,omitempty"`
	TaskIDs []int `json:"task_ids,omitempty"`
}

type releaseResponse struct {
	Released int `json:"released"`
}

type snapshotResponse struct {
	System  string                 `json:"system"`
	Journal admission.JournalStats `json:"journal"`
}

type coreStatus struct {
	Tasks    int     `json:"tasks"`
	ULL      float64 `json:"ull"`
	ULH      float64 `json:"ulh"`
	UHH      float64 `json:"uhh"`
	UtilDiff float64 `json:"util_diff"`
}

type systemResponse struct {
	ID         string              `json:"id"`
	Processors int                 `json:"processors"`
	Test       string              `json:"test"`
	Placement  string              `json:"placement"`
	Tasks      int                 `json:"tasks"`
	Cores      []coreStatus        `json:"cores"`
	Partition  mcsio.PartitionJSON `json:"partition"`
}

type listSystemsResponse struct {
	Systems []string `json:"systems"`
}

// placementInfo is one registered placement heuristic in the strategies
// listing.
type placementInfo struct {
	Name string `json:"name"`
	// Default marks the heuristic tenants get when the create request
	// names none.
	Default bool `json:"default,omitempty"`
	// Policies names the scan-order rules the heuristic applies to the
	// two criticality classes, HC first.
	Policies [2]string `json:"policies"`
}

type strategiesResponse struct {
	// Tests lists the uniprocessor schedulability tests accepted by POST
	// /v1/systems; Strategies the offline partitioning strategies of the
	// library; Placements the online placement heuristics accepted in the
	// create request's "placement" field (base names — every entry also
	// accepts a "<name>@<limit>" per-core total-utilization cap).
	Tests      []string        `json:"tests"`
	Strategies []string        `json:"strategies"`
	Placements []placementInfo `json:"placements"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// ---------------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------------

func (s *server) handleCreateSystem(w http.ResponseWriter, r *http.Request) {
	var req createSystemRequest
	if !s.decode(w, r, &req) {
		return
	}
	test, ok := mcsched.TestByName(req.Test)
	if !ok {
		s.fail(w, r, http.StatusBadRequest, fmt.Errorf("unknown test %q", req.Test))
		return
	}
	sys, err := s.ctrl.CreateSystemWithPlacement(req.ID, req.Processors, test, req.Placement)
	if err != nil {
		s.fail(w, r, statusOf(err), err)
		return
	}
	s.reply(w, r, http.StatusCreated, createSystemResponse{
		ID:         sys.ID(),
		Processors: sys.NumCores(),
		Test:       sys.TestName(),
		Placement:  sys.PlacementName(),
	})
}

func (s *server) handleListSystems(w http.ResponseWriter, r *http.Request) {
	s.reply(w, r, http.StatusOK, listSystemsResponse{Systems: s.ctrl.SystemIDs()})
}

func (s *server) handleGetSystem(w http.ResponseWriter, r *http.Request) {
	sys, err := s.ctrl.System(r.PathValue("id"))
	if err != nil {
		s.fail(w, r, statusOf(err), err)
		return
	}
	p := sys.Snapshot()
	resp := systemResponse{
		ID:         sys.ID(),
		Processors: sys.NumCores(),
		Test:       sys.TestName(),
		Placement:  sys.PlacementName(),
		Tasks:      p.NumTasks(),
		Partition:  mcsio.PartitionToJSON(p),
	}
	for _, c := range p.Cores {
		resp.Cores = append(resp.Cores, coreStatus{
			Tasks:    len(c),
			ULL:      c.ULL(),
			ULH:      c.ULH(),
			UHH:      c.UHH(),
			UtilDiff: c.UtilDiff(),
		})
	}
	s.reply(w, r, http.StatusOK, resp)
}

func (s *server) handleDeleteSystem(w http.ResponseWriter, r *http.Request) {
	if err := s.ctrl.RemoveSystem(r.PathValue("id")); err != nil {
		s.fail(w, r, statusOf(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// explainResponse widens a decision with the per-core trace requested via
// ?explain=1.
type explainResponse struct {
	admission.AdmitResult
	Trace *admission.DecisionTrace `json:"trace"`
}

// wantExplain reports whether the request asked for a decision trace.
func wantExplain(r *http.Request) bool {
	v := r.URL.Query().Get("explain")
	return v == "1" || v == "true"
}

// handleDecide serves both /admit (commit=true) and /probe (commit=false):
// the request shapes and responses are identical, only the commit differs.
// With ?explain=1 a single-task decision also returns the per-core
// placement trace.
func (s *server) handleDecide(commit bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sys, err := s.ctrl.System(r.PathValue("id"))
		if err != nil {
			s.fail(w, r, statusOf(err), err)
			return
		}
		var req admitRequest
		if !s.decode(w, r, &req) {
			return
		}
		explain := wantExplain(r)
		switch {
		case req.Task != nil && req.Tasks == nil:
			task, err := mcsio.TaskFromJSON(*req.Task)
			if err != nil {
				s.fail(w, r, http.StatusBadRequest, err)
				return
			}
			if explain {
				var res admission.AdmitResult
				var trace *admission.DecisionTrace
				if commit {
					res, trace, err = sys.AdmitExplain(task)
				} else {
					res, trace, err = sys.ProbeExplain(task)
				}
				if err != nil {
					s.fail(w, r, statusOf(err), err)
					return
				}
				s.reply(w, r, http.StatusOK, explainResponse{AdmitResult: res, Trace: trace})
				return
			}
			var res admission.AdmitResult
			if commit {
				res, err = sys.Admit(task)
			} else {
				res, err = sys.Probe(task)
			}
			if err != nil {
				s.fail(w, r, statusOf(err), err)
				return
			}
			s.reply(w, r, http.StatusOK, res)
		case req.Tasks != nil && req.Task == nil:
			if explain {
				s.fail(w, r, http.StatusBadRequest,
					errors.New("explain supports single-task decisions only"))
				return
			}
			batch := make(mcs.TaskSet, 0, len(req.Tasks))
			for _, j := range req.Tasks {
				task, err := mcsio.TaskFromJSON(j)
				if err != nil {
					s.fail(w, r, http.StatusBadRequest, err)
					return
				}
				batch = append(batch, task)
			}
			var res admission.BatchResult
			if commit {
				res, err = sys.AdmitBatch(batch)
			} else {
				res, err = sys.ProbeBatch(batch)
			}
			if err != nil {
				s.fail(w, r, statusOf(err), err)
				return
			}
			s.reply(w, r, http.StatusOK, res)
		default:
			s.fail(w, r, http.StatusBadRequest,
				errors.New(`body must carry exactly one of "task" or "tasks"`))
		}
	}
}

func (s *server) handleRelease(w http.ResponseWriter, r *http.Request) {
	sys, err := s.ctrl.System(r.PathValue("id"))
	if err != nil {
		s.fail(w, r, statusOf(err), err)
		return
	}
	var req releaseRequest
	if !s.decode(w, r, &req) {
		return
	}
	var ids []int
	switch {
	case req.TaskID != nil && req.TaskIDs == nil:
		ids = []int{*req.TaskID}
	case req.TaskIDs != nil && req.TaskID == nil:
		ids = req.TaskIDs
	default:
		s.fail(w, r, http.StatusBadRequest,
			errors.New(`body must carry exactly one of "task_id" or "task_ids"`))
		return
	}
	if len(ids) == 0 {
		s.fail(w, r, http.StatusBadRequest, errors.New(`"task_ids" must not be empty`))
		return
	}
	released, err := sys.Release(ids...)
	if err != nil {
		s.fail(w, r, statusOf(err), err)
		return
	}
	s.reply(w, r, http.StatusOK, releaseResponse{Released: released})
}

// handleSnapshot forces a journal snapshot of one tenant, truncating its
// write-ahead log, and reports the tenant's journal counters.
func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.ctrl.SnapshotSystem(id); err != nil {
		s.fail(w, r, statusOf(err), err)
		return
	}
	sys, err := s.ctrl.System(id)
	if err != nil {
		s.fail(w, r, statusOf(err), err)
		return
	}
	js, _ := sys.JournalStats()
	s.reply(w, r, http.StatusOK, snapshotResponse{System: id, Journal: js})
}

// wantWitness reports whether the request asked for the first-miss witness
// trace (body field or ?witness=1, mirroring the ?explain=1 convention).
func wantWitness(r *http.Request) bool {
	v := r.URL.Query().Get("witness")
	return v == "1" || v == "true"
}

// handleSimulate executes a read-only what-if simulation of the tenant's
// current partition under a strict wire scenario. The run never blocks
// admissions — the tenant lock is held only while snapshotting — and the
// response is deterministic for a fixed scenario, so clients can diff
// results across placements.
func (s *server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	sys, err := s.ctrl.System(r.PathValue("id"))
	if err != nil {
		s.fail(w, r, statusOf(err), err)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, fmt.Errorf("read request: %w", err))
		return
	}
	scn, err := mcsio.DecodeSimScenario(body)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	if wantWitness(r) {
		scn.Witness = true
	}
	out, err := sys.Simulate(scn.Spec)
	if err != nil {
		s.fail(w, r, statusOf(err), err)
		return
	}
	s.reply(w, r, http.StatusOK, mcsio.SimResultToJSON(out.System, out.Test, scn, out.Result))
}

// handleStrategies lists the registries a client can name in requests:
// schedulability tests, offline partitioning strategies, and the online
// placement heuristics for the create request's "placement" field.
func (s *server) handleStrategies(w http.ResponseWriter, r *http.Request) {
	resp := strategiesResponse{Tests: mcsched.TestNames(), Strategies: []string{}, Placements: []placementInfo{}}
	for _, st := range mcsched.Strategies() {
		resp.Strategies = append(resp.Strategies, st.Name())
	}
	hc, lc := mcs.NewHC(0, 1, 2, 10), mcs.NewLC(0, 1, 10)
	for _, p := range mcsched.Placements() {
		resp.Placements = append(resp.Placements, placementInfo{
			Name:     p.Name(),
			Default:  p.Name() == mcsched.DefaultPlacement,
			Policies: [2]string{p.Policy(hc), p.Policy(lc)},
		})
	}
	s.reply(w, r, http.StatusOK, resp)
}

// statsResponse widens the controller stats with the replication view.
type statsResponse struct {
	admission.Stats
	Replication *replication.Status `json:"replication,omitempty"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{Stats: s.ctrl.Stats()}
	if st := s.replicationStatus(); st != nil {
		resp.Replication = st
	}
	s.reply(w, r, http.StatusOK, resp)
}

// replicationStatus composes the role-appropriate replication document, or
// nil when the daemon neither ships nor follows.
func (s *server) replicationStatus() *replication.Status {
	if s.ship == nil && s.recv == nil {
		return nil
	}
	st := &replication.Status{Role: admission.RoleName(s.ctrl.IsFollower())}
	if s.ship != nil {
		st.Followers = s.ship.Status()
	}
	if s.recv != nil {
		applied := s.recv.Applied()
		st.Applied = &applied
		st.Tenants = s.ctrl.ReplicationProgress()
	}
	return st
}

// handleReplicationStatus serves the replication position. A follower
// answers the strict wire document (mcsio.ReplStatusJSON) a leader primes
// its cursors from; a leader answers the operator view with per-follower
// lag.
func (s *server) handleReplicationStatus(w http.ResponseWriter, r *http.Request) {
	if s.recv != nil && s.ctrl.IsFollower() {
		s.recv.HandleStatus(w, r)
		return
	}
	st := s.replicationStatus()
	if st == nil {
		st = &replication.Status{Role: admission.RoleName(s.ctrl.IsFollower())}
	}
	s.reply(w, r, http.StatusOK, st)
}

// handleReplicationStream accepts the leader's long-lived frame stream on
// a follower; any other role, a promoted follower included, answers 409
// before the stream starts, so a stale leader is fenced off at its dial. A
// promotion while a stream is open is fenced per frame by the receiver.
func (s *server) handleReplicationStream(w http.ResponseWriter, r *http.Request) {
	if s.recv == nil || !s.ctrl.IsFollower() {
		s.fail(w, r, http.StatusConflict, admission.ErrNotFollower)
		return
	}
	s.recv.HandleStream(w, r)
}

// handlePromote flips a follower writable; promoting a leader is an
// idempotent no-op (200, promoted=false).
func (s *server) handlePromote(w http.ResponseWriter, r *http.Request) {
	promoted := s.ctrl.Promote()
	s.reply(w, r, http.StatusOK, replication.PromoteResponse{
		Role:     admission.RoleName(s.ctrl.IsFollower()),
		Promoted: promoted,
	})
}

// ---------------------------------------------------------------------------
// Plumbing
// ---------------------------------------------------------------------------

// decode strictly parses the JSON request body into dst; on failure it
// writes a 400 and returns false.
func (s *server) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		s.fail(w, r, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return false
	}
	return true
}

// statusOf maps admission sentinel errors to HTTP statuses.
func statusOf(err error) int {
	switch {
	case errors.Is(err, admission.ErrJournalIO):
		// The request was valid; the durability layer failed. 503 so
		// clients retry and operator alerting fires.
		return http.StatusServiceUnavailable
	case errors.Is(err, admission.ErrNoSystem), errors.Is(err, admission.ErrUnknownTask):
		return http.StatusNotFound
	case errors.Is(err, admission.ErrDuplicateSystem), errors.Is(err, admission.ErrDuplicateTask),
		errors.Is(err, admission.ErrJournalDisabled), errors.Is(err, admission.ErrJournalExists),
		errors.Is(err, admission.ErrFollower), errors.Is(err, admission.ErrNotFollower):
		// Follower-mode rejections are conflicts of role, not bad requests:
		// the same call succeeds on the leader (or after promotion).
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

// replyBufs recycles reply bodies; a buffer grown past maxPooledReply (a
// large tenant snapshot or simulation) goes to the collector instead.
var replyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledReply = 64 << 10

// reply encodes body before anything is sent, so a value that cannot be
// encoded becomes a 500 with an error body instead of a torn 200, and then
// sends it with its Content-Length in one Write.
func (s *server) reply(w http.ResponseWriter, r *http.Request, status int, body any) {
	buf := replyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	err := json.NewEncoder(buf).Encode(body)
	if err == nil {
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(buf.Len()))
		w.WriteHeader(status)
		w.Write(buf.Bytes())
	}
	if buf.Cap() <= maxPooledReply {
		replyBufs.Put(buf)
	}
	if err != nil {
		s.fail(w, r, http.StatusInternalServerError, fmt.Errorf("encode response: %w", err))
	}
}

// fail renders the error body and logs one line carrying the propagated
// request ID, so every non-2xx outcome is attributable in the logs.
func (s *server) fail(w http.ResponseWriter, r *http.Request, status int, err error) {
	level := slog.LevelWarn
	if status >= http.StatusInternalServerError {
		level = slog.LevelError
	}
	s.log.LogAttrs(r.Context(), level, "request failed",
		slog.String("request_id", obs.RequestID(r.Context())),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.String("error", err.Error()),
	)
	s.reply(w, r, status, errorResponse{Error: err.Error()})
}
