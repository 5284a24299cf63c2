package replication

import (
	"encoding/json"
	"net/http"
	"sync/atomic"

	"mcsched/internal/admission"
	"mcsched/internal/journal"
	"mcsched/internal/mcsio"
)

// maxFrameBody bounds one frame body: a snapshot payload is capped by the
// journal's record limit, plus framing slack.
const maxFrameBody = journal.MaxRecord + (1 << 20)

// Receiver is the follower side of journal replication: the HTTP face
// through which a warm-standby controller accepts frames from the leader.
// It owns no replication state of its own — sequencing, idempotency and
// verification all live in the admission layer's ApplyReplicated* methods —
// so it only decodes strictly, dispatches and counts.
type Receiver struct {
	ctrl *admission.Controller

	appliedRecords, appliedSnapshots, appliedRemoves, rejectedFrames atomic.Uint64
}

// NewReceiver wraps a controller (normally one started with
// Config.Follower) with the replication protocol handlers.
func NewReceiver(ctrl *admission.Controller) *Receiver {
	return &Receiver{ctrl: ctrl}
}

// AppliedStats counts the receiver's frame traffic.
type AppliedStats struct {
	// Records, Snapshots and Removes count successfully applied units
	// (records individually, frames for the other kinds).
	Records   uint64 `json:"records"`
	Snapshots uint64 `json:"snapshots"`
	Removes   uint64 `json:"removes,omitempty"`
	// RejectedFrames counts frames refused fail-closed (bad wire bytes,
	// sequence conflicts, divergence, wrong role).
	RejectedFrames uint64 `json:"rejected_frames,omitempty"`
}

// Applied snapshots the receiver counters.
func (r *Receiver) Applied() AppliedStats {
	return AppliedStats{
		Records:        r.appliedRecords.Load(),
		Snapshots:      r.appliedSnapshots.Load(),
		Removes:        r.appliedRemoves.Load(),
		RejectedFrames: r.rejectedFrames.Load(),
	}
}

// Status builds the position document served at StatusPath: the
// controller's role and every tenant's next expected sequence.
func (r *Receiver) Status() mcsio.ReplStatusJSON {
	return mcsio.ReplStatusJSON{
		Version: mcsio.ReplFormatVersion,
		Role:    admission.RoleName(r.ctrl.IsFollower()),
		Tenants: r.ctrl.ReplicationProgress(),
	}
}

// Mux returns a standalone handler exposing the replication protocol
// (frame stream, status, promote) — what the replication tests serve and
// the shape mcschedd mounts into its service mux.
func (r *Receiver) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+StreamPath, r.HandleStream)
	mux.HandleFunc("GET "+StatusPath, r.HandleStatus)
	mux.HandleFunc("POST /v1/promote", r.HandlePromote)
	return mux
}

// applyFrame dispatches one decoded frame into the controller and bumps
// the applied counters. next is the tenant's next expected sequence to
// carry in the acknowledgement (the resync position on failure).
func (r *Receiver) applyFrame(f mcsio.ReplFrameJSON) (next uint64, err error) {
	switch f.Kind {
	case mcsio.ReplRecords:
		recs := make([][]byte, len(f.Records))
		for i, m := range f.Records {
			recs[i] = m
		}
		next, applied, err := r.ctrl.ApplyReplicatedRecords(f.Tenant, f.First, recs)
		if err != nil {
			return next, err
		}
		// Count only records actually applied: redelivered prefixes a
		// leader retried are skipped idempotently and must not inflate the
		// counter operators compare against the leader's tail.
		r.appliedRecords.Add(uint64(applied))
		return next, nil
	case mcsio.ReplSnapshot:
		next, err := r.ctrl.ApplyReplicatedSnapshot(f.Tenant, f.Seq, f.Snapshot)
		if err != nil {
			return next, err
		}
		r.appliedSnapshots.Add(1)
		return next, nil
	default: // mcsio.ReplRemove: DecodeReplFrame admits no other kind
		if err := r.ctrl.ApplyReplicatedRemove(f.Tenant); err != nil {
			return 1, err
		}
		r.appliedRemoves.Add(1)
		return 1, nil
	}
}

// HandleStatus serves the follower's position document.
func (r *Receiver) HandleStatus(w http.ResponseWriter, _ *http.Request) {
	b, err := mcsio.EncodeReplStatus(r.Status())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// PromoteResponse answers POST /v1/promote.
type PromoteResponse struct {
	Role string `json:"role"`
	// Promoted is true when this call performed the promotion and false
	// when the controller already led (idempotent repeat).
	Promoted bool `json:"promoted"`
}

// HandlePromote flips the follower writable. Idempotent: promoting a
// leader answers 200 with Promoted=false.
func (r *Receiver) HandlePromote(w http.ResponseWriter, _ *http.Request) {
	promoted := r.ctrl.Promote()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(PromoteResponse{
		Role:     admission.RoleName(r.ctrl.IsFollower()),
		Promoted: promoted,
	})
}

// Status is the composite document mcschedd serves at /v1/replication and
// embeds in /v1/stats: the role plus whichever side's detail applies.
type Status struct {
	Role string `json:"role"`
	// Followers is the leader-side shipping view (one entry per follower).
	Followers []FollowerStatus `json:"followers,omitempty"`
	// Tenants and Applied are the follower-side view: per-tenant next
	// expected sequences and frame counters.
	Tenants map[string]uint64 `json:"tenants,omitempty"`
	Applied *AppliedStats     `json:"applied,omitempty"`
}
