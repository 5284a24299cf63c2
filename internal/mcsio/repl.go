package mcsio

// Replication wire frames — the transfer units of journal replication
// (internal/replication). A leader ships committed journal records to
// warm-standby followers as "records" frames (raw journal payloads),
// falls back to "snapshot" frames when the follower is behind the leader's
// truncation horizon, and propagates tenant deletion as "remove" frames.
// The follower answers every frame with an acknowledgement naming the next
// sequence it expects, and serves a status document enumerating
// per-tenant positions so a restarted leader can re-establish its cursors.
//
// Frames are binary (EncodeReplFrameBinary, DecodeReplFrame). Decoding is
// strict and fails closed on the envelope: checksum, trailing bytes,
// version skew, unknown kinds, a missing tenant, an empty or oversized
// batch and fields of another kind all reject the frame. The records and
// snapshot a frame carries are opaque here: the follower decodes each of
// them once, where it applies them (admission.Controller's
// ApplyReplicated* methods), and refuses a torn, reordered or gapped batch
// there before any record of it applies.

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// ReplFormatVersion identifies the replication wire schema; bump on
// breaking changes. Followers refuse frames from a newer schema.
const ReplFormatVersion = 1

// Replication frame kinds.
const (
	// ReplRecords carries a contiguous batch of committed journal records.
	ReplRecords = "records"
	// ReplSnapshot carries a full tenant snapshot for follower catch-up.
	ReplSnapshot = "snapshot"
	// ReplRemove propagates a tenant deletion.
	ReplRemove = "remove"
)

// MaxReplBatch bounds the number of records one frame may carry; a garbage
// length cannot drive an unbounded decode loop.
const MaxReplBatch = 4096

// ReplFrame is one replication transfer unit.
type ReplFrame struct {
	// Version is the wire schema version (ReplFormatVersion).
	Version int
	// Kind is one of the Repl* constants.
	Kind string
	// Tenant is the system the frame applies to.
	Tenant string

	// First and Records carry a records frame: Records[i] is the raw
	// journal payload of sequence First+i, in either record codec.
	First   uint64
	Records [][]byte

	// Seq and Snapshot carry a snapshot frame: Snapshot is the raw journal
	// snapshot payload covering records 1..Seq.
	Seq      uint64
	Snapshot []byte
}

// validateReplFrame checks a frame's envelope. It decodes no payload.
func validateReplFrame(f ReplFrame) error {
	if f.Version != ReplFormatVersion {
		return fmt.Errorf("mcsio: unsupported repl frame version %d (supported: %d)", f.Version, ReplFormatVersion)
	}
	if f.Tenant == "" {
		return fmt.Errorf("mcsio: repl frame without tenant")
	}
	empty := func(cond bool) error {
		if !cond {
			return fmt.Errorf("mcsio: %s frame carries fields of another kind", f.Kind)
		}
		return nil
	}
	switch f.Kind {
	case ReplRecords:
		if f.First == 0 {
			return fmt.Errorf("mcsio: records frame without first sequence")
		}
		if len(f.Records) == 0 {
			return fmt.Errorf("mcsio: records frame without records")
		}
		if len(f.Records) > MaxReplBatch {
			return fmt.Errorf("mcsio: records frame with %d records (max %d)", len(f.Records), MaxReplBatch)
		}
		return empty(f.Seq == 0 && f.Snapshot == nil)
	case ReplSnapshot:
		if f.Seq == 0 {
			return fmt.Errorf("mcsio: snapshot frame without covered sequence")
		}
		if len(f.Snapshot) == 0 {
			return fmt.Errorf("mcsio: snapshot frame without payload")
		}
		return empty(f.First == 0 && len(f.Records) == 0)
	case ReplRemove:
		return empty(f.First == 0 && len(f.Records) == 0 && f.Seq == 0 && f.Snapshot == nil)
	default:
		return fmt.Errorf("mcsio: unknown repl frame kind %q", f.Kind)
	}
}

// ReplAckJSON is the follower's answer to one frame: the next sequence it
// expects for the tenant. A success ack confirms the frame applied; a
// conflict ack (HTTP 409) tells the leader to reset its cursor to Next.
type ReplAckJSON struct {
	Version int    `json:"v"`
	Tenant  string `json:"tenant"`
	// Next is the next journal sequence the follower expects for this
	// tenant (1 for a tenant it does not hold).
	Next uint64 `json:"next"`
}

// EncodeReplAck validates and renders an acknowledgement.
func EncodeReplAck(a ReplAckJSON) ([]byte, error) {
	if a.Version == 0 {
		a.Version = ReplFormatVersion
	}
	if err := validateReplAck(a); err != nil {
		return nil, err
	}
	return json.Marshal(a)
}

// DecodeReplAck strictly parses an acknowledgement.
func DecodeReplAck(b []byte) (ReplAckJSON, error) {
	var a ReplAckJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&a); err != nil {
		return ReplAckJSON{}, fmt.Errorf("mcsio: decode repl ack: %w", err)
	}
	if dec.More() {
		return ReplAckJSON{}, fmt.Errorf("mcsio: decode repl ack: trailing data")
	}
	if err := validateReplAck(a); err != nil {
		return ReplAckJSON{}, err
	}
	return a, nil
}

func validateReplAck(a ReplAckJSON) error {
	if a.Version != ReplFormatVersion {
		return fmt.Errorf("mcsio: unsupported repl ack version %d (supported: %d)", a.Version, ReplFormatVersion)
	}
	if a.Tenant == "" {
		return fmt.Errorf("mcsio: repl ack without tenant")
	}
	if a.Next == 0 {
		return fmt.Errorf("mcsio: repl ack with next sequence 0")
	}
	return nil
}

// Replication roles as reported by ReplStatusJSON.
const (
	RoleLeader   = "leader"
	RoleFollower = "follower"
)

// ReplStatusJSON is the follower's position document: per-tenant next
// expected sequences plus its current role. A leader re-establishing its
// cursors after a restart fetches this before shipping.
type ReplStatusJSON struct {
	Version int    `json:"v"`
	Role    string `json:"role"`
	// Tenants maps each tenant ID to the next journal sequence the
	// responder expects (its local NextSeq).
	Tenants map[string]uint64 `json:"tenants"`
}

// EncodeReplStatus validates and renders a status document.
func EncodeReplStatus(s ReplStatusJSON) ([]byte, error) {
	if s.Version == 0 {
		s.Version = ReplFormatVersion
	}
	if err := validateReplStatus(s); err != nil {
		return nil, err
	}
	return json.Marshal(s)
}

// DecodeReplStatus strictly parses a status document.
func DecodeReplStatus(b []byte) (ReplStatusJSON, error) {
	var s ReplStatusJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return ReplStatusJSON{}, fmt.Errorf("mcsio: decode repl status: %w", err)
	}
	if dec.More() {
		return ReplStatusJSON{}, fmt.Errorf("mcsio: decode repl status: trailing data")
	}
	if err := validateReplStatus(s); err != nil {
		return ReplStatusJSON{}, err
	}
	return s, nil
}

func validateReplStatus(s ReplStatusJSON) error {
	if s.Version != ReplFormatVersion {
		return fmt.Errorf("mcsio: unsupported repl status version %d (supported: %d)", s.Version, ReplFormatVersion)
	}
	if s.Role != RoleLeader && s.Role != RoleFollower {
		return fmt.Errorf("mcsio: repl status with unknown role %q", s.Role)
	}
	for id, next := range s.Tenants {
		if id == "" {
			return fmt.Errorf("mcsio: repl status with empty tenant ID")
		}
		if next == 0 {
			return fmt.Errorf("mcsio: repl status with next sequence 0 for %q", id)
		}
	}
	return nil
}
