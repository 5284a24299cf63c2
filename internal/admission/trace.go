package admission

// Decision tracing: the ?explain=1 path. An explained admit or probe runs
// the exact same decision as the plain one — same placement order, same
// analyzers, same commit point — but records every candidate-core probe
// into a trace that tells the operator which cores were tried, in what
// order, how each probe was resolved (fast path, incremental state, exact
// analysis) and why the task was ultimately rejected.
//
// The recorder is a nil-able interface: the hot path passes nil and pays a
// single pointer comparison, so tracing costs nothing unless asked for.

import (
	"mcsched/internal/analysis/kernel"
	"mcsched/internal/mcs"
)

// Via values classify how one candidate-core probe was resolved, from
// cheapest to most expensive.
const (
	// ViaFastReject: a necessary condition failed (per-level utilization
	// above 1) before any exact analysis.
	ViaFastReject = "fast_reject"
	// ViaFastAccept: a sufficient condition accepted (EDF-VD utilization
	// bound, demand density bounds) without running the exact kernel.
	ViaFastAccept = "fast_accept"
	// ViaIncremental: resolved from the core analyzer's memoized state
	// (bottom insertion, partial re-verification).
	ViaIncremental = "incremental"
	// ViaExact: a full exact kernel run decided the probe.
	ViaExact = "exact"
	// ViaUnknown: the probe resolved outside the classified paths (a test
	// family whose analyzer keeps no counters).
	ViaUnknown = "unknown"
)

// CoreTrace is one candidate-core probe of an explained decision.
type CoreTrace struct {
	// Core is the probed core index; Tasks its resident task count and
	// UtilDiff its UHH−ULH at probe time — the key the HC worst-fit order
	// sorts by.
	Core     int     `json:"core"`
	Tasks    int     `json:"tasks"`
	UtilDiff float64 `json:"util_diff"`
	// Score is the placer's preference key for this candidate at probe
	// time — lower is preferred; it explains why this core was tried
	// before the ones after it.
	Score float64 `json:"score"`
	// Fits is the probe verdict: would this core accept the task.
	Fits bool `json:"fits"`
	// Via classifies how the verdict was produced (see the Via constants).
	Via string `json:"via"`
	// WarmStart is true when the probe's fixed-point solve was seeded from
	// a previously converged response time.
	WarmStart bool `json:"warm_start,omitempty"`
}

// DecisionTrace is the structured answer to "why (not)": the full candidate
// scan of one admit or probe decision, in the order the cores were tried.
type DecisionTrace struct {
	TaskID int `json:"task_id"`
	// Test is the schedulability test gating the system; Placement is the
	// registry name of its placement heuristic; Policy names the placement
	// rule the heuristic applied to this task's criticality.
	Test      string `json:"test"`
	Placement string `json:"placement"`
	Policy    string `json:"policy"`
	// Cores lists the probed candidates in scan order. An admitted task's
	// last entry is its accepting core; a rejected task's list covers every
	// core.
	Cores []CoreTrace `json:"cores"`
	// Admitted, Core and Reason echo the decision verdict.
	Admitted bool   `json:"admitted"`
	Core     int    `json:"core"`
	Reason   string `json:"reason,omitempty"`
}

// probeRecorder observes candidate-core probes during one decision. A nil
// recorder disables tracing; the decision paths guard every recording
// behind a nil check.
type probeRecorder interface {
	recordProbe(ct CoreTrace)
}

// traceRecorder is the scratch-buffer recorder behind ?explain=1.
type traceRecorder struct {
	cores []CoreTrace
}

func (tr *traceRecorder) recordProbe(ct CoreTrace) { tr.cores = append(tr.cores, ct) }

// placeTraced is place with per-probe recording: the same scan over the
// same placement order, recording each probe's outcome. With rec == nil it
// delegates to the plain placement path — the single branch is all the hot
// path pays for explainability. Caller holds s.mu.
func (s *System) placeTraced(t mcs.Task, rec probeRecorder) AdmitResult {
	if rec == nil {
		return s.place(t)
	}
	res := AdmitResult{TaskID: t.ID, Core: -1}
	for _, k := range s.placer.Order(s.asn, t) {
		ct := CoreTrace{Core: k, Tasks: len(s.asn.Core(k)),
			UtilDiff: s.asn.UtilDiff(k), Score: s.placer.Score(s.asn, t, k)}
		before := s.asn.CoreCounters(k)
		ct.Fits = s.asn.Fits(t, k)
		ct.Via, ct.WarmStart = classifyProbe(before, s.asn.CoreCounters(k))
		rec.recordProbe(ct)
		if ct.Fits {
			res.Admitted = true
			res.Core = k
			return res
		}
	}
	res.Reason = s.rejectReason
	return res
}

// classifyProbe names the mechanism that resolved one probe from the
// candidate core's analyzer counter delta. Exact runs outrank fast accepts
// because AMC's per-task dominance shortcuts tick FastAccepts within a
// single exact run.
func classifyProbe(before, after kernel.Counters) (via string, warm bool) {
	warm = after.WarmStarts > before.WarmStarts
	switch {
	case after.FastRejects > before.FastRejects:
		return ViaFastReject, warm
	case after.ExactRuns > before.ExactRuns:
		return ViaExact, warm
	case after.IncrementalHits > before.IncrementalHits:
		return ViaIncremental, warm
	case after.FastAccepts > before.FastAccepts:
		return ViaFastAccept, warm
	default:
		return ViaUnknown, warm
	}
}

// AdmitExplain is Admit plus a per-core decision trace. The decision is
// identical to Admit (same order, same analyzers, same commit point); the trace
// additionally records every candidate probe. On a validation or journal
// error the trace is nil, like the zero result.
func (s *System) AdmitExplain(t mcs.Task) (AdmitResult, *DecisionTrace, error) {
	return s.explain(t, true)
}

// ProbeExplain is Probe plus a per-core decision trace.
func (s *System) ProbeExplain(t mcs.Task) (AdmitResult, *DecisionTrace, error) {
	return s.explain(t, false)
}

func (s *System) explain(t mcs.Task, commit bool) (AdmitResult, *DecisionTrace, error) {
	rec := &traceRecorder{}
	res, err := s.decide(t, commit, rec)
	if err != nil {
		return res, nil, err
	}
	return res, &DecisionTrace{
		TaskID:    t.ID,
		Test:      s.testName,
		Placement: s.placer.Name(),
		Policy:    s.placer.Policy(t),
		Cores:     rec.cores,
		Admitted:  res.Admitted,
		Core:      res.Core,
		Reason:    res.Reason,
	}, nil
}
