package mcsio

// Replication wire frames — the transfer units of journal replication
// (internal/replication). A leader ships committed journal records to
// warm-standby followers as "records" frames (raw journal payloads, which
// are themselves canonical EventJSON encodings), falls back to "snapshot"
// frames when the follower is behind the leader's truncation horizon, and
// propagates tenant deletion as "remove" frames. The follower answers every
// frame with an acknowledgement naming the next sequence it expects, and
// serves a status document enumerating per-tenant positions so a restarted
// leader can re-establish its cursors.
//
// Decoding is strict and fails closed, exactly like the journal event
// decoders: unknown fields, version skew, missing fields, records that are
// not valid events, and records whose stamped sequence numbers are not
// contiguous from First all reject the frame. A reordered or torn batch is
// therefore refused at the wire layer before it can touch follower state.

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

// ReplFrameJSON is one replication transfer unit.
type ReplFrameJSON struct {
	// Version is the wire schema version (ReplFormatVersion).
	Version int `json:"v"`
	// Kind is one of the Repl* constants.
	Kind string `json:"kind"`
	// Tenant is the system the frame applies to.
	Tenant string `json:"tenant"`

	// First and Records carry a records frame: Records[i] is the raw
	// journal payload of sequence First+i, each a canonical EventJSON.
	First   uint64            `json:"first,omitempty"`
	Records []json.RawMessage `json:"records,omitempty"`

	// Seq and Snapshot carry a snapshot frame: Snapshot is the raw journal
	// snapshot payload (a canonical SnapshotJSON) covering records 1..Seq.
	Seq      uint64          `json:"seq,omitempty"`
	Snapshot json.RawMessage `json:"snapshot,omitempty"`
}

// EncodeReplFrame validates the frame and renders it as canonical JSON.
// JSON frames embed records and snapshots as raw JSON documents, so they
// cannot carry binary-framed payloads. Leaders ship EncodeReplFrameBinary
// (which carries records as length-prefixed blobs of either codec);
// followers still decode JSON frames, which older leaders send.
func EncodeReplFrame(f ReplFrameJSON) ([]byte, error) {
	if f.Version == 0 {
		f.Version = ReplFormatVersion
	}
	if err := validateReplFrame(f); err != nil {
		return nil, err
	}
	for i, rec := range f.Records {
		if IsBinaryRecord(rec) {
			return nil, fmt.Errorf("mcsio: records frame record %d is binary-framed; JSON frames cannot carry binary records (use the binary frame codec)", i)
		}
	}
	if IsBinaryRecord(f.Snapshot) {
		return nil, fmt.Errorf("mcsio: snapshot frame payload is binary-framed; JSON frames cannot carry binary snapshots (use the binary frame codec)")
	}
	return json.Marshal(f)
}

// DecodeReplFrame strictly parses and validates one replication frame,
// auto-detecting the frame codec from the first byte and including every
// embedded record and snapshot payload (whose codecs are auto-detected
// independently). Anything malformed fails closed with an error.
func DecodeReplFrame(b []byte) (ReplFrameJSON, error) {
	if IsBinaryRecord(b) {
		return decodeReplFrameBinary(b)
	}
	var f ReplFrameJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return ReplFrameJSON{}, fmt.Errorf("mcsio: decode repl frame: %w", err)
	}
	if dec.More() {
		return ReplFrameJSON{}, fmt.Errorf("mcsio: decode repl frame: trailing data")
	}
	if err := validateReplFrame(f); err != nil {
		return ReplFrameJSON{}, err
	}
	return f, nil
}

func validateReplFrame(f ReplFrameJSON) error {
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
		for i, rec := range f.Records {
			e, err := DecodeEvent(rec)
			if err != nil {
				return fmt.Errorf("mcsio: records frame record %d: %w", i, err)
			}
			if want := f.First + uint64(i); e.Seq != want {
				return fmt.Errorf("mcsio: records frame out of order: record %d stamped %d, want %d — refusing reordered batch",
					i, e.Seq, want)
			}
		}
		return empty(f.Seq == 0 && f.Snapshot == nil)
	case ReplSnapshot:
		if f.Seq == 0 {
			return fmt.Errorf("mcsio: snapshot frame without covered sequence")
		}
		if len(f.Snapshot) == 0 {
			return fmt.Errorf("mcsio: snapshot frame without payload")
		}
		snap, _, err := DecodeSnapshot(f.Snapshot)
		if err != nil {
			return fmt.Errorf("mcsio: snapshot frame payload: %w", err)
		}
		if snap.System != f.Tenant {
			return fmt.Errorf("mcsio: snapshot frame for tenant %q carries snapshot of %q", f.Tenant, snap.System)
		}
		if snap.Seq != f.Seq {
			return fmt.Errorf("mcsio: snapshot frame at seq %d carries snapshot covering %d", f.Seq, snap.Seq)
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
