package mcsio

// Binary record framing — the compact wire form of journal events, tenant
// snapshots and replication frames. It lives alongside the strict JSON
// codecs: the journal and replication write only binary, JSON is the
// format of journals written before that, and every decoder auto-detects
// the format from the first byte — JSON
// records always start with '{' (0x7B), binary records with BinaryMagic —
// so mixed histories (a journal that switched codecs mid-stream, a
// replication frame batching records of both kinds) replay without
// configuration.
//
// Layout of one binary record:
//
//	[1B BinaryMagic][1B version][1B type][body][4B CRC-32C little-endian]
//
// The CRC covers every byte before it. Bodies use uvarint/zigzag-varint
// integers, length-prefixed strings and byte blobs, and fixed 8-byte
// little-endian IEEE-754 bits for the utilization floats (which must
// round-trip bit-exactly — the replay-equivalence suites fingerprint the
// float aggregates). Decoding is strict and fails closed exactly like the
// JSON path: a bad CRC, a truncated field, trailing bytes, an unknown type
// or kind byte, or a decoded value that fails the shared semantic
// validation all reject the record. The decoded form is the same
// EventJSON/SnapshotJSON/ReplFrameJSON the JSON codecs produce, validated
// by the very same validateEvent/validateSnapshot/validateReplFrame, so
// the two formats cannot drift semantically.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
)

const (
	// BinaryMagic is the first byte of every binary-framed record. JSON
	// documents start with '{' (0x7B) — and never with 0xEC, which is not
	// valid leading UTF-8 for JSON — so one byte disambiguates the formats.
	BinaryMagic = 0xEC

	// BinaryFormatVersion identifies the binary schema; bump on breaking
	// changes. Decoders refuse newer versions rather than guessing.
	BinaryFormatVersion = 1

	// binHeader is magic + version + type; binTrailer the CRC-32C.
	binHeader  = 3
	binTrailer = 4
)

// Record type bytes.
const (
	binTypeEvent    = 0x01
	binTypeSnapshot = 0x02
	binTypeRepl     = 0x03
)

// binCastagnoli mirrors the journal's CRC-32C table: the same checksum
// family guards the frame layer and the record layer.
var binCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// Codec names an encoding of journal records and snapshots. The journal
// writes only CodecBinary (EncodeEventBinary, EncodeSnapshotBinary) and
// replication frames are always binary (EncodeReplFrameBinary); decoders
// read either codec. The type remains for callers that time or compare the
// two encoders.
type Codec string

const (
	// CodecJSON is the original strict JSON encoding, the format of
	// journals written before records were always binary.
	CodecJSON Codec = "json"
	// CodecBinary is the compact binary framing defined in this file.
	CodecBinary Codec = "binary"
)

// EncodeEvent renders the event in this codec.
func (c Codec) EncodeEvent(e EventJSON) ([]byte, error) {
	if c == CodecBinary {
		return EncodeEventBinary(e)
	}
	return EncodeEvent(e)
}

// IsBinaryRecord reports whether b is binary-framed (as opposed to JSON).
// It judges only the magic byte; decoding still validates everything else.
func IsBinaryRecord(b []byte) bool {
	return len(b) > 0 && b[0] == BinaryMagic
}

// ---------------------------------------------------------------------------
// Writer / reader primitives
// ---------------------------------------------------------------------------

// binWriter accumulates a binary record body.
type binWriter struct {
	b []byte
}

func newBinWriter(typ byte) *binWriter {
	return &binWriter{b: []byte{BinaryMagic, BinaryFormatVersion, typ}}
}

func (w *binWriter) uvarint(v uint64)  { w.b = binary.AppendUvarint(w.b, v) }
func (w *binWriter) varint(v int64)    { w.b = binary.AppendVarint(w.b, v) }
func (w *binWriter) byteVal(v byte)    { w.b = append(w.b, v) }
func (w *binWriter) f64(v float64)     { w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v)) }
func (w *binWriter) str(s string)      { w.uvarint(uint64(len(s))); w.b = append(w.b, s...) }
func (w *binWriter) bytesVal(p []byte) { w.uvarint(uint64(len(p))); w.b = append(w.b, p...) }

// finish appends the CRC trailer and returns the completed record.
func (w *binWriter) finish() []byte {
	return binary.LittleEndian.AppendUint32(w.b, crc32.Checksum(w.b, binCastagnoli))
}

// binReader consumes a binary record body with sticky error state, so
// decoders read linearly and check the error once.
type binReader struct {
	b   []byte // body only: header and CRC trailer already stripped
	off int
	err error
}

// openBinary verifies the envelope (magic, version, type, CRC) and returns
// a reader over the body.
func openBinary(b []byte, wantType byte, what string) (*binReader, error) {
	if len(b) < binHeader+binTrailer {
		return nil, fmt.Errorf("mcsio: decode %s: truncated binary record", what)
	}
	if b[0] != BinaryMagic {
		return nil, fmt.Errorf("mcsio: decode %s: bad magic 0x%02x", what, b[0])
	}
	if b[1] != BinaryFormatVersion {
		return nil, fmt.Errorf("mcsio: decode %s: unsupported binary version %d (supported: %d)",
			what, b[1], BinaryFormatVersion)
	}
	if b[2] != wantType {
		return nil, fmt.Errorf("mcsio: decode %s: record type 0x%02x, want 0x%02x", what, b[2], wantType)
	}
	body := b[:len(b)-binTrailer]
	want := binary.LittleEndian.Uint32(b[len(b)-binTrailer:])
	if crc32.Checksum(body, binCastagnoli) != want {
		return nil, fmt.Errorf("mcsio: decode %s: binary record checksum mismatch", what)
	}
	return &binReader{b: body, off: binHeader}, nil
}

// close demands the body was consumed exactly — trailing bytes fail closed.
func (r *binReader) close(what string) error {
	if r.err != nil {
		return fmt.Errorf("mcsio: decode %s: %w", what, r.err)
	}
	if r.off != len(r.b) {
		return fmt.Errorf("mcsio: decode %s: %d trailing bytes", what, len(r.b)-r.off)
	}
	return nil
}

func (r *binReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) byteVal() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("truncated at offset %d", r.off)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *binReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail("truncated float at offset %d", r.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

// length reads a uvarint length and bounds it by the remaining body, so a
// garbage length cannot drive a huge allocation.
func (r *binReader) length() int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("length %d exceeds remaining %d bytes", n, len(r.b)-r.off)
		return 0
	}
	return int(n)
}

func (r *binReader) str() string {
	n := r.length()
	if r.err != nil {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// trailingStr reads an optional trailing string: the empty string when the
// body is already fully consumed (the field was not written), the string
// otherwise. Backward-compatible optional fields rely on close() demanding
// exact consumption — a record either ends before the field or carries it
// whole.
func (r *binReader) trailingStr() string {
	if r.err != nil || r.off == len(r.b) {
		return ""
	}
	return r.str()
}

func (r *binReader) bytesVal() []byte {
	n := r.length()
	if r.err != nil {
		return nil
	}
	p := append([]byte(nil), r.b[r.off:r.off+n]...)
	r.off += n
	return p
}

// count reads a uvarint element count, bounded by the remaining body (every
// element costs at least one byte).
func (r *binReader) count(what string) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("%s count %d exceeds remaining %d bytes", what, n, len(r.b)-r.off)
		return 0
	}
	return int(n)
}

// ---------------------------------------------------------------------------
// Tasks and partitions (shared sub-encodings)
// ---------------------------------------------------------------------------

// Criticality bytes.
const (
	binCritLO = 0x00
	binCritHI = 0x01
)

func writeTask(w *binWriter, t TaskJSON) {
	w.varint(int64(t.ID))
	w.str(t.Name)
	switch t.Crit {
	case "LO":
		w.byteVal(binCritLO)
	case "HI":
		w.byteVal(binCritHI)
	default:
		// validateEvent/validateSnapshot ran toTask already, so this is
		// unreachable from the public encoders; emit an invalid byte that
		// decoding will refuse rather than panic.
		w.byteVal(0xFF)
	}
	w.varint(t.Period)
	w.varint(t.Deadline)
	w.varint(t.CLo)
	w.varint(t.CHi)
	w.f64(t.ULo)
	w.f64(t.UHi)
}

func readTask(r *binReader) TaskJSON {
	var t TaskJSON
	t.ID = int(r.varint())
	t.Name = r.str()
	switch c := r.byteVal(); c {
	case binCritLO:
		t.Crit = "LO"
	case binCritHI:
		t.Crit = "HI"
	default:
		r.fail("unknown criticality byte 0x%02x", c)
	}
	t.Period = r.varint()
	t.Deadline = r.varint()
	t.CLo = r.varint()
	t.CHi = r.varint()
	t.ULo = r.f64()
	t.UHi = r.f64()
	return t
}

func writePartition(w *binWriter, p PartitionJSON) {
	w.uvarint(uint64(len(p.Cores)))
	for _, ids := range p.Cores {
		w.uvarint(uint64(len(ids)))
		for _, id := range ids {
			w.varint(int64(id))
		}
	}
	w.uvarint(uint64(len(p.Tasks)))
	for _, t := range p.Tasks {
		writeTask(w, t)
	}
}

func readPartition(r *binReader) PartitionJSON {
	p := PartitionJSON{Version: FormatVersion}
	nCores := r.count("core")
	if r.err != nil {
		return p
	}
	p.Cores = make([][]int, nCores)
	for k := range p.Cores {
		n := r.count("core task")
		p.Cores[k] = make([]int, 0, n)
		for i := 0; i < n; i++ {
			p.Cores[k] = append(p.Cores[k], int(r.varint()))
		}
	}
	nTasks := r.count("task")
	for i := 0; i < nTasks && r.err == nil; i++ {
		p.Tasks = append(p.Tasks, readTask(r))
	}
	return p
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

// Event kind bytes.
const (
	binEventCreateSystem = 0x01
	binEventAdmit        = 0x02
	binEventAdmitBatch   = 0x03
	binEventRelease      = 0x04
)

// EncodeEventBinary validates the event (the same validation as the JSON
// encoder) and renders it in the binary framing.
func EncodeEventBinary(e EventJSON) ([]byte, error) {
	if e.Version == 0 {
		e.Version = EventFormatVersion
	}
	if err := validateEvent(e); err != nil {
		return nil, err
	}
	w := newBinWriter(binTypeEvent)
	w.uvarint(e.Seq)
	switch e.Kind {
	case EventCreateSystem:
		w.byteVal(binEventCreateSystem)
		w.str(e.System)
		w.uvarint(uint64(e.Processors))
		w.str(e.Test)
		// Placement rides as an optional trailing field: written only when
		// non-empty, so default-placement events are byte-identical to the
		// pre-placement encoding (the decoder reads it iff bytes remain).
		if e.Placement != "" {
			w.str(e.Placement)
		}
	case EventAdmit:
		w.byteVal(binEventAdmit)
		writeTask(w, *e.Task)
		w.uvarint(uint64(e.Core))
	case EventAdmitBatch:
		w.byteVal(binEventAdmitBatch)
		w.uvarint(uint64(len(e.Tasks)))
		for _, t := range e.Tasks {
			writeTask(w, t)
		}
		for _, c := range e.Cores {
			w.uvarint(uint64(c))
		}
	case EventRelease:
		w.byteVal(binEventRelease)
		w.uvarint(uint64(len(e.TaskIDs)))
		for _, id := range e.TaskIDs {
			w.varint(int64(id))
		}
	}
	return w.finish(), nil
}

// decodeEventBinary parses a binary event and funnels it through the shared
// semantic validation.
func decodeEventBinary(b []byte) (EventJSON, error) {
	r, err := openBinary(b, binTypeEvent, "event")
	if err != nil {
		return EventJSON{}, err
	}
	e := EventJSON{Version: EventFormatVersion}
	e.Seq = r.uvarint()
	switch k := r.byteVal(); k {
	case binEventCreateSystem:
		e.Kind = EventCreateSystem
		e.System = r.str()
		e.Processors = int(r.uvarint())
		e.Test = r.str()
		// Optional trailing placement; absent on records written before
		// placement existed (and on default-placement tenants). A trailing
		// value naming no registered heuristic is rejected by validateEvent.
		e.Placement = r.trailingStr()
	case binEventAdmit:
		e.Kind = EventAdmit
		t := readTask(r)
		e.Task = &t
		e.Core = int(r.uvarint())
	case binEventAdmitBatch:
		e.Kind = EventAdmitBatch
		n := r.count("task")
		for i := 0; i < n && r.err == nil; i++ {
			e.Tasks = append(e.Tasks, readTask(r))
		}
		for i := 0; i < n && r.err == nil; i++ {
			e.Cores = append(e.Cores, int(r.uvarint()))
		}
	case binEventRelease:
		e.Kind = EventRelease
		n := r.count("task ID")
		for i := 0; i < n && r.err == nil; i++ {
			e.TaskIDs = append(e.TaskIDs, int(r.varint()))
		}
	default:
		if r.err == nil {
			r.fail("unknown event kind byte 0x%02x", k)
		}
	}
	if err := r.close("event"); err != nil {
		return EventJSON{}, err
	}
	if err := validateEvent(e); err != nil {
		return EventJSON{}, err
	}
	return e, nil
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

// EncodeSnapshotBinary validates the snapshot and renders it binary.
func EncodeSnapshotBinary(s SnapshotJSON) ([]byte, error) {
	if s.Version == 0 {
		s.Version = SnapshotFormatVersion
	}
	if _, err := validateSnapshot(s); err != nil {
		return nil, err
	}
	w := newBinWriter(binTypeSnapshot)
	w.uvarint(s.Seq)
	w.str(s.System)
	w.uvarint(uint64(s.Processors))
	w.str(s.Test)
	w.uvarint(s.Admits)
	w.uvarint(s.Releases)
	writePartition(w, s.Partition)
	// Optional trailing placement, mirroring the create-system event: only
	// non-default placements change the byte stream. The next-fit cursor
	// follows it, also optional (validation guarantees cursor implies
	// placement, so the two trailing fields parse unambiguously).
	if s.Placement != "" {
		w.str(s.Placement)
		if s.Cursor != 0 {
			w.uvarint(uint64(s.Cursor))
		}
	}
	return w.finish(), nil
}

// decodeSnapshotBinary parses a binary snapshot through the shared
// validation, returning the wire form and the decoded partition.
func decodeSnapshotBinary(b []byte) (SnapshotJSON, error) {
	r, err := openBinary(b, binTypeSnapshot, "snapshot")
	if err != nil {
		return SnapshotJSON{}, err
	}
	s := SnapshotJSON{Version: SnapshotFormatVersion}
	s.Seq = r.uvarint()
	s.System = r.str()
	s.Processors = int(r.uvarint())
	s.Test = r.str()
	s.Admits = r.uvarint()
	s.Releases = r.uvarint()
	s.Partition = readPartition(r)
	s.Placement = r.trailingStr()
	if r.err == nil && r.off < len(r.b) {
		s.Cursor = int(r.uvarint())
	}
	if err := r.close("snapshot"); err != nil {
		return SnapshotJSON{}, err
	}
	return s, nil
}

// ---------------------------------------------------------------------------
// Replication frames
// ---------------------------------------------------------------------------

// Repl frame kind bytes.
const (
	binReplRecords  = 0x01
	binReplSnapshot = 0x02
	binReplRemove   = 0x03
)

// EncodeReplFrameBinary validates the frame and renders it binary. Unlike
// the JSON framing, records ride as length-prefixed raw blobs, so a binary
// frame can batch journal records of either codec — which is what lets a
// leader with a mixed-codec journal ship its whole history in one stream.
func EncodeReplFrameBinary(f ReplFrameJSON) ([]byte, error) {
	if f.Version == 0 {
		f.Version = ReplFormatVersion
	}
	if err := validateReplFrame(f); err != nil {
		return nil, err
	}
	w := newBinWriter(binTypeRepl)
	switch f.Kind {
	case ReplRecords:
		w.byteVal(binReplRecords)
		w.str(f.Tenant)
		w.uvarint(f.First)
		w.uvarint(uint64(len(f.Records)))
		for _, rec := range f.Records {
			w.bytesVal(rec)
		}
	case ReplSnapshot:
		w.byteVal(binReplSnapshot)
		w.str(f.Tenant)
		w.uvarint(f.Seq)
		w.bytesVal(f.Snapshot)
	case ReplRemove:
		w.byteVal(binReplRemove)
		w.str(f.Tenant)
	}
	return w.finish(), nil
}

// decodeReplFrameBinary parses a binary replication frame through the
// shared validation (which strictly decodes every embedded record and
// snapshot, auto-detecting their codec).
func decodeReplFrameBinary(b []byte) (ReplFrameJSON, error) {
	r, err := openBinary(b, binTypeRepl, "repl frame")
	if err != nil {
		return ReplFrameJSON{}, err
	}
	f := ReplFrameJSON{Version: ReplFormatVersion}
	switch k := r.byteVal(); k {
	case binReplRecords:
		f.Kind = ReplRecords
		f.Tenant = r.str()
		f.First = r.uvarint()
		n := r.count("record")
		for i := 0; i < n && r.err == nil; i++ {
			f.Records = append(f.Records, json.RawMessage(r.bytesVal()))
		}
	case binReplSnapshot:
		f.Kind = ReplSnapshot
		f.Tenant = r.str()
		f.Seq = r.uvarint()
		f.Snapshot = r.bytesVal()
	case binReplRemove:
		f.Kind = ReplRemove
		f.Tenant = r.str()
	default:
		if r.err == nil {
			r.fail("unknown repl frame kind byte 0x%02x", k)
		}
	}
	if err := r.close("repl frame"); err != nil {
		return ReplFrameJSON{}, err
	}
	if err := validateReplFrame(f); err != nil {
		return ReplFrameJSON{}, err
	}
	return f, nil
}
