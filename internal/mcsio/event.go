package mcsio

// Admission events and tenant snapshots — the payloads of the per-tenant
// write-ahead journal (internal/journal). Every state transition of an
// admission tenant is one typed, versioned event: the daemon validates the
// transition against the live partitions, appends the encoded event, and
// only then applies it, so replaying the event stream reconstructs the
// exact placement decisions. Decoding is strict and fails closed: unknown
// fields, unknown kinds, version mismatches and tasks that do not survive
// the same validation as wire tasks all reject the record.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"mcsched/internal/core"
)

// EventFormatVersion identifies the journal event schema; bump on breaking
// changes. Replay refuses events from a newer schema rather than guessing.
const EventFormatVersion = 1

// Event kinds. The chosen core(s) are recorded alongside admits so replay
// can verify that re-running the placement reproduces the journaled
// decision bit-for-bit instead of silently diverging.
const (
	// EventCreateSystem registers a tenant; always the first event.
	EventCreateSystem = "create-system"
	// EventAdmit commits one task to the recorded core.
	EventAdmit = "admit"
	// EventAdmitBatch commits an all-or-nothing batch; Tasks are in the
	// placement order (decreasing level utilization) with Cores aligned.
	EventAdmitBatch = "admit-batch"
	// EventRelease removes the recorded resident task IDs.
	EventRelease = "release"
)

// EventJSON is the wire form of one journaled admission event.
type EventJSON struct {
	// Version is the event schema version (EventFormatVersion).
	Version int `json:"v"`
	// Seq is the journal sequence number; it must match the record's
	// position in the log, which replay verifies.
	Seq uint64 `json:"seq"`
	// Kind is one of the Event* constants.
	Kind string `json:"kind"`

	// System and Processors and Test describe a create-system event.
	System     string `json:"system,omitempty"`
	Processors int    `json:"processors,omitempty"`
	Test       string `json:"test,omitempty"`
	// Placement names the tenant's placement heuristic (core.PlacerByName)
	// on a create-system event. Empty means the default, core.
	// DefaultPlacement — writers omit the field for the default, so
	// journals written before placement existed (and every default-placed
	// tenant since) keep a bit-identical byte stream. Unknown names fail
	// validation closed: a journal must never replay under a different
	// packer than the one that wrote it.
	Placement string `json:"placement,omitempty"`

	// Task and Core carry an admit event.
	Task *TaskJSON `json:"task,omitempty"`
	Core int       `json:"core,omitempty"`

	// Tasks and Cores carry an admit-batch event, index-aligned.
	Tasks []TaskJSON `json:"tasks,omitempty"`
	Cores []int      `json:"cores,omitempty"`

	// TaskIDs carry a release event.
	TaskIDs []int `json:"task_ids,omitempty"`
}

// EncodeEvent validates the event and renders it as canonical (compact,
// fixed field order) JSON.
func EncodeEvent(e EventJSON) ([]byte, error) {
	if e.Version == 0 {
		e.Version = EventFormatVersion
	}
	if err := validateEvent(e); err != nil {
		return nil, err
	}
	return json.Marshal(e)
}

// DecodeEvent strictly parses and validates one journaled event, auto-
// detecting the codec from the first byte (BinaryMagic vs. JSON's '{').
// Corrupt or malformed records fail closed with an error; they never panic
// and never yield a partially-valid event.
func DecodeEvent(b []byte) (EventJSON, error) {
	if IsBinaryRecord(b) {
		return decodeEventBinary(b)
	}
	var e EventJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		return EventJSON{}, fmt.Errorf("mcsio: decode event: %w", err)
	}
	if dec.More() {
		return EventJSON{}, fmt.Errorf("mcsio: decode event: trailing data")
	}
	if err := validateEvent(e); err != nil {
		return EventJSON{}, err
	}
	return e, nil
}

// ErrMisstamped marks a journal record whose stamped sequence is not the
// position it was read or received at: the mark of a reordered, gapped or
// misanchored batch.
var ErrMisstamped = errors.New("mcsio: record stamped for another position")

// DecodeEventAt decodes the journal record at sequence seq, as DecodeEvent
// does, and refuses one stamped for another position with ErrMisstamped.
func DecodeEventAt(seq uint64, b []byte) (EventJSON, error) {
	e, err := DecodeEvent(b)
	if err == nil && e.Seq != seq {
		return EventJSON{}, fmt.Errorf("%w: record at position %d stamped %d", ErrMisstamped, seq, e.Seq)
	}
	return e, err
}

// validateEvent enforces the per-kind shape and that every embedded task
// passes the same validation as any other wire task.
func validateEvent(e EventJSON) error {
	if e.Version != EventFormatVersion {
		return fmt.Errorf("mcsio: unsupported event version %d (supported: %d)", e.Version, EventFormatVersion)
	}
	if e.Seq == 0 {
		return fmt.Errorf("mcsio: event without sequence number")
	}
	empty := func(cond bool) error {
		if !cond {
			return fmt.Errorf("mcsio: %s event carries fields of another kind", e.Kind)
		}
		return nil
	}
	switch e.Kind {
	case EventCreateSystem:
		if e.Processors < 1 {
			return fmt.Errorf("mcsio: create-system event with %d processors", e.Processors)
		}
		if e.Test == "" {
			return fmt.Errorf("mcsio: create-system event without a test name")
		}
		if err := validatePlacement(e.Placement); err != nil {
			return err
		}
		return empty(e.Task == nil && len(e.Tasks) == 0 && len(e.Cores) == 0 && len(e.TaskIDs) == 0 && e.Core == 0)
	case EventAdmit:
		if e.Task == nil {
			return fmt.Errorf("mcsio: admit event without a task")
		}
		if _, err := toTask(*e.Task); err != nil {
			return err
		}
		if e.Core < 0 {
			return fmt.Errorf("mcsio: admit event with core %d", e.Core)
		}
		return empty(len(e.Tasks) == 0 && len(e.Cores) == 0 && len(e.TaskIDs) == 0 && e.Processors == 0 && e.Test == "" && e.Placement == "")
	case EventAdmitBatch:
		if len(e.Tasks) == 0 {
			return fmt.Errorf("mcsio: admit-batch event without tasks")
		}
		if len(e.Cores) != len(e.Tasks) {
			return fmt.Errorf("mcsio: admit-batch event with %d tasks but %d cores", len(e.Tasks), len(e.Cores))
		}
		seen := make(map[int]bool, len(e.Tasks))
		for i, j := range e.Tasks {
			t, err := toTask(j)
			if err != nil {
				return err
			}
			if seen[t.ID] {
				return fmt.Errorf("mcsio: admit-batch event repeats task %d", t.ID)
			}
			seen[t.ID] = true
			if e.Cores[i] < 0 {
				return fmt.Errorf("mcsio: admit-batch event with core %d", e.Cores[i])
			}
		}
		return empty(e.Task == nil && len(e.TaskIDs) == 0 && e.Processors == 0 && e.Test == "" && e.Core == 0 && e.Placement == "")
	case EventRelease:
		if len(e.TaskIDs) == 0 {
			return fmt.Errorf("mcsio: release event without task IDs")
		}
		seen := make(map[int]bool, len(e.TaskIDs))
		for _, id := range e.TaskIDs {
			if seen[id] {
				return fmt.Errorf("mcsio: release event repeats task %d", id)
			}
			seen[id] = true
		}
		return empty(e.Task == nil && len(e.Tasks) == 0 && len(e.Cores) == 0 && e.Processors == 0 && e.Test == "" && e.Core == 0 && e.Placement == "")
	default:
		return fmt.Errorf("mcsio: unknown event kind %q", e.Kind)
	}
}

// validatePlacement fails closed on placement names the registry does not
// resolve. The empty string (the default heuristic, left implicit on the
// wire) is always valid.
func validatePlacement(name string) error {
	if name == "" {
		return nil
	}
	if _, ok := core.PlacerByName(name); !ok {
		return fmt.Errorf("mcsio: unknown placement heuristic %q", name)
	}
	return nil
}

// SnapshotFormatVersion identifies the tenant snapshot schema.
const SnapshotFormatVersion = 1

// SnapshotJSON is the wire form of one tenant snapshot: the complete
// partitioned state after applying journal records 1..Seq.
type SnapshotJSON struct {
	Version    int           `json:"v"`
	Seq        uint64        `json:"seq"`
	System     string        `json:"system"`
	Processors int           `json:"processors"`
	Test       string        `json:"test"`
	Partition  PartitionJSON `json:"partition"`
	// Placement names the tenant's placement heuristic; empty means the
	// default (and is omitted, keeping default-tenant snapshots
	// byte-identical to the pre-placement schema). Unknown names reject
	// the snapshot.
	Placement string `json:"placement,omitempty"`
	// Cursor persists the next-fit scan cursor as one past the core of the
	// tenant's most recent commit (0 = no commit yet, omitted). It is
	// recorded only alongside a non-default Placement — releases do not
	// rewind the cursor, so it cannot be rederived from the partition, and
	// stateful heuristics (nf) would diverge on snapshot recovery without
	// it. A cursor without a placement, or one past Processors, rejects
	// the snapshot.
	Cursor int `json:"cursor,omitempty"`
	// Admits and Releases carry the tenant's lifetime committed-transition
	// counters, so recovery reports the same stats as a controller that
	// never restarted even after the journal is truncated.
	Admits   uint64 `json:"admits,omitempty"`
	Releases uint64 `json:"releases,omitempty"`
}

// EncodeSnapshot renders a tenant snapshot as canonical JSON.
func EncodeSnapshot(s SnapshotJSON) ([]byte, error) {
	if s.Version == 0 {
		s.Version = SnapshotFormatVersion
	}
	if _, err := validateSnapshot(s); err != nil {
		return nil, err
	}
	return json.Marshal(s)
}

// DecodeSnapshot strictly parses and validates a tenant snapshot, auto-
// detecting the codec from the first byte, and returns both the wire form
// and the decoded partition.
func DecodeSnapshot(b []byte) (SnapshotJSON, core.Partition, error) {
	if IsBinaryRecord(b) {
		s, err := decodeSnapshotBinary(b)
		if err != nil {
			return SnapshotJSON{}, core.Partition{}, err
		}
		p, err := validateSnapshot(s)
		if err != nil {
			return SnapshotJSON{}, core.Partition{}, err
		}
		return s, p, nil
	}
	var s SnapshotJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return SnapshotJSON{}, core.Partition{}, fmt.Errorf("mcsio: decode snapshot: %w", err)
	}
	if dec.More() {
		return SnapshotJSON{}, core.Partition{}, fmt.Errorf("mcsio: decode snapshot: trailing data")
	}
	p, err := validateSnapshot(s)
	if err != nil {
		return SnapshotJSON{}, core.Partition{}, err
	}
	return s, p, nil
}

func validateSnapshot(s SnapshotJSON) (core.Partition, error) {
	if s.Version != SnapshotFormatVersion {
		return core.Partition{}, fmt.Errorf("mcsio: unsupported snapshot version %d (supported: %d)", s.Version, SnapshotFormatVersion)
	}
	if s.Seq == 0 {
		return core.Partition{}, fmt.Errorf("mcsio: snapshot without sequence number")
	}
	if s.System == "" {
		return core.Partition{}, fmt.Errorf("mcsio: snapshot without system ID")
	}
	if s.Processors < 1 {
		return core.Partition{}, fmt.Errorf("mcsio: snapshot with %d processors", s.Processors)
	}
	if s.Test == "" {
		return core.Partition{}, fmt.Errorf("mcsio: snapshot without a test name")
	}
	if err := validatePlacement(s.Placement); err != nil {
		return core.Partition{}, err
	}
	if s.Cursor != 0 {
		if s.Placement == "" {
			return core.Partition{}, fmt.Errorf("mcsio: snapshot cursor without a placement")
		}
		if s.Cursor < 0 || s.Cursor > s.Processors {
			return core.Partition{}, fmt.Errorf("mcsio: snapshot cursor %d outside 1..%d", s.Cursor, s.Processors)
		}
	}
	if len(s.Partition.Cores) != s.Processors {
		return core.Partition{}, fmt.Errorf("mcsio: snapshot partition has %d cores for %d processors",
			len(s.Partition.Cores), s.Processors)
	}
	p, err := partitionFromJSON(s.Partition)
	if err != nil {
		return core.Partition{}, err
	}
	return p, nil
}
