package mcsio

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
)

// validReplFrames builds one well-formed frame of each kind from the valid
// event fixtures.
func validReplFrames(t testing.TB) []ReplFrame {
	events := validEvents()
	var recs [][]byte
	for _, e := range events {
		b, err := EncodeEvent(e)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, b)
	}
	snapBytes, err := EncodeSnapshot(SnapshotJSON{
		Version: 1, Seq: 4, System: "s1", Processors: 1, Test: "EDF-VD",
		Partition: PartitionJSON{Version: 1, Cores: [][]int{{}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return []ReplFrame{
		{Version: 1, Kind: ReplRecords, Tenant: "s1", First: 1, Records: recs},
		{Version: 1, Kind: ReplSnapshot, Tenant: "s1", Seq: 4, Snapshot: snapBytes},
		{Version: 1, Kind: ReplRemove, Tenant: "s1"},
	}
}

// legacyJSONFrame renders a frame in the JSON encoding leaders used before
// frames went binary-only. Followers refuse it.
func legacyJSONFrame(t testing.TB, f ReplFrame) []byte {
	t.Helper()
	legacy := struct {
		Version  int               `json:"v"`
		Kind     string            `json:"kind"`
		Tenant   string            `json:"tenant"`
		First    uint64            `json:"first,omitempty"`
		Records  []json.RawMessage `json:"records,omitempty"`
		Seq      uint64            `json:"seq,omitempty"`
		Snapshot json.RawMessage   `json:"snapshot,omitempty"`
	}{Version: f.Version, Kind: f.Kind, Tenant: f.Tenant, First: f.First, Seq: f.Seq, Snapshot: f.Snapshot}
	for _, r := range f.Records {
		legacy.Records = append(legacy.Records, r)
	}
	b, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// rawReplFrame renders a binary frame of kind byte kind whose body body
// writes after the kind byte, skipping the encoder's envelope check so
// tests can ship what EncodeReplFrameBinary would refuse.
func rawReplFrame(kind byte, body func(w *binWriter)) []byte {
	w := newBinWriter(binTypeRepl)
	w.byteVal(kind)
	body(w)
	return w.finish()
}

// resealed edits a copy of b's body and seals it under a fresh CRC: damage
// the checksum cannot see.
func resealed(b []byte, edit func(body []byte) []byte) []byte {
	body := edit(append([]byte(nil), b[:len(b)-binTrailer]...))
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, binCastagnoli))
}

// TestReplFrameRoundTrip sends one frame of each kind through the wire and
// back: the frame survives unchanged, its encoding is canonical, and the
// records of a records frame still decode at the positions the frame
// anchors them to.
func TestReplFrameRoundTrip(t *testing.T) {
	for _, f := range validReplFrames(t) {
		b, err := EncodeReplFrameBinary(f)
		if err != nil {
			t.Fatalf("encode %s frame: %v", f.Kind, err)
		}
		got, err := DecodeReplFrame(b)
		if err != nil {
			t.Fatalf("decode %s frame: %v", f.Kind, err)
		}
		if !reflect.DeepEqual(got, f) {
			t.Fatalf("%s frame round trip mismatch:\n got %+v\nwant %+v", f.Kind, got, f)
		}
		b2, err := EncodeReplFrameBinary(got)
		if err != nil {
			t.Fatalf("re-encode %s frame: %v", f.Kind, err)
		}
		if string(b) != string(b2) {
			t.Fatalf("%s frame encoding not canonical", f.Kind)
		}
		for i, raw := range got.Records {
			if _, err := DecodeEventAt(got.First+uint64(i), raw); err != nil {
				t.Fatalf("record %d of the round-tripped batch: %v", i+1, err)
			}
		}
	}
}

// TestReplFrameFailsClosed enumerates the envelope damage a follower must
// refuse at the wire: cross-kind field smuggling, version skew, unknown
// kinds and fields, torn bodies, missing tenants, and batches that are
// empty, unanchored or oversized. What the payloads say (their order,
// their stamps, whose snapshot they are) is checked where they apply;
// TestDecodeReplFrameLeavesPayloadsOpaque pins that the wire does not look,
// and the reordered batch case that the records it hands over, decoded at
// their positions, refuse the batch.
func TestReplFrameFailsClosed(t *testing.T) {
	frames := validReplFrames(t)
	records, snapshot, remove := frames[0], frames[1], frames[2]
	refused := func(t *testing.T, b []byte, want string) {
		t.Helper()
		if _, err := DecodeReplFrame(b); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("frame decoded or refused for another reason: %v (want %q)", err, want)
		}
	}
	encodeRefused := func(t *testing.T, f ReplFrame) {
		t.Helper()
		if _, err := EncodeReplFrameBinary(f); err == nil {
			t.Fatalf("malformed %s frame encoded: %+v", f.Kind, f)
		}
	}

	t.Run("reordered batch", func(t *testing.T) {
		f := records
		f.Records = append([][]byte(nil), records.Records...)
		f.Records[1], f.Records[2] = f.Records[2], f.Records[1]
		b, err := EncodeReplFrameBinary(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeReplFrame(b)
		if err != nil {
			t.Fatalf("envelope-valid reordered batch refused at the wire: %v", err)
		}
		for i, raw := range got.Records {
			_, err := DecodeEventAt(got.First+uint64(i), raw)
			if i < 1 {
				if err != nil {
					t.Fatalf("record %d ahead of the swap refused: %v", i+1, err)
				}
				continue
			}
			if !errors.Is(err, ErrMisstamped) {
				t.Fatalf("record %d of a reordered batch: %v, want ErrMisstamped", i+1, err)
			}
			return
		}
		t.Fatal("reordered batch decoded at its positions")
	})
	t.Run("kind smuggling", func(t *testing.T) {
		f := remove
		f.Seq = 3
		encodeRefused(t, f)
		f = records
		f.Snapshot = snapshot.Snapshot
		encodeRefused(t, f)
		f = snapshot
		f.Records = records.Records
		encodeRefused(t, f)
		// On the wire: a remove frame followed by a snapshot's fields.
		refused(t, rawReplFrame(binReplRemove, func(w *binWriter) {
			w.str("s1")
			w.uvarint(snapshot.Seq)
			w.bytesVal(snapshot.Snapshot)
		}), "trailing bytes")
	})
	t.Run("version skew", func(t *testing.T) {
		f := records
		f.Version = ReplFormatVersion + 1
		encodeRefused(t, f)
		b, err := EncodeReplFrameBinary(records)
		if err != nil {
			t.Fatal(err)
		}
		refused(t, resealed(b, func(body []byte) []byte {
			body[1] = BinaryFormatVersion + 1
			return body
		}), "unsupported binary version")
	})
	t.Run("unknown kind", func(t *testing.T) {
		f := remove
		f.Kind = "truncate"
		encodeRefused(t, f)
		refused(t, rawReplFrame(0x7F, func(w *binWriter) { w.str("s1") }), "unknown repl frame kind")
	})
	t.Run("unknown field", func(t *testing.T) {
		b, err := EncodeReplFrameBinary(records)
		if err != nil {
			t.Fatal(err)
		}
		refused(t, resealed(b, func(body []byte) []byte { return append(body, 0x01) }), "trailing bytes")
	})
	t.Run("torn body", func(t *testing.T) {
		b, err := EncodeReplFrameBinary(records)
		if err != nil {
			t.Fatal(err)
		}
		refused(t, b[:len(b)/2], "checksum")
	})
	t.Run("empty tenant", func(t *testing.T) {
		f := remove
		f.Tenant = ""
		encodeRefused(t, f)
		refused(t, rawReplFrame(binReplRemove, func(w *binWriter) { w.str("") }), "without tenant")
	})
	t.Run("unanchored batch", func(t *testing.T) {
		f := records
		f.First = 0
		encodeRefused(t, f)
		refused(t, rawReplFrame(binReplRecords, func(w *binWriter) {
			w.str("s1")
			w.uvarint(0)
			w.uvarint(1)
			w.bytesVal(records.Records[0])
		}), "without first sequence")
	})
	t.Run("empty batch", func(t *testing.T) {
		f := records
		f.Records = nil
		encodeRefused(t, f)
		refused(t, rawReplFrame(binReplRecords, func(w *binWriter) {
			w.str("s1")
			w.uvarint(1)
			w.uvarint(0)
		}), "without records")
	})
	t.Run("oversized batch", func(t *testing.T) {
		refused(t, rawReplFrame(binReplRecords, func(w *binWriter) {
			w.str("s1")
			w.uvarint(1)
			w.uvarint(MaxReplBatch + 1)
			for i := 0; i <= MaxReplBatch; i++ {
				w.bytesVal([]byte{'{'})
			}
		}), "max 4096")
	})
	t.Run("snapshot without seq or payload", func(t *testing.T) {
		f := snapshot
		f.Seq = 0
		encodeRefused(t, f)
		refused(t, rawReplFrame(binReplSnapshot, func(w *binWriter) {
			w.str("s1")
			w.uvarint(0)
			w.bytesVal(snapshot.Snapshot)
		}), "without covered sequence")
		refused(t, rawReplFrame(binReplSnapshot, func(w *binWriter) {
			w.str("s1")
			w.uvarint(4)
			w.bytesVal(nil)
		}), "without payload")
	})
}

// TestDecodeReplFrameLeavesPayloadsOpaque pins the layering rule: the wire
// checks a frame's envelope and hands its payloads over byte for byte,
// undecoded. Records that are no events, are out of order or stamped for
// another position, and a snapshot of another tenant at another sequence
// all pass here; the follower's apply path refuses them (the replication
// package's fail-closed suites).
func TestDecodeReplFrameLeavesPayloadsOpaque(t *testing.T) {
	frames := validReplFrames(t)
	recs := frames[0].Records
	for _, f := range []ReplFrame{
		{Version: 1, Kind: ReplRecords, Tenant: "s1", First: 1, Records: [][]byte{[]byte(`{"garbage":true}`)}},
		{Version: 1, Kind: ReplRecords, Tenant: "s1", First: 9, Records: [][]byte{recs[2], recs[0], {BinaryMagic, 0xFF}}},
		{Version: 1, Kind: ReplSnapshot, Tenant: "other", Seq: 9, Snapshot: frames[1].Snapshot},
		{Version: 1, Kind: ReplSnapshot, Tenant: "s1", Seq: 1, Snapshot: []byte("not a snapshot")},
	} {
		b, err := EncodeReplFrameBinary(f)
		if err != nil {
			t.Fatalf("encode %+v: %v", f, err)
		}
		got, err := DecodeReplFrame(b)
		if err != nil {
			t.Fatalf("envelope-valid %s frame refused: %v", f.Kind, err)
		}
		if !reflect.DeepEqual(got, f) {
			t.Fatalf("payloads not carried byte for byte:\n got %+v\nwant %+v", got, f)
		}
	}
}

func TestReplAckStatusRoundTrip(t *testing.T) {
	b, err := EncodeReplAck(ReplAckJSON{Version: 1, Tenant: "s1", Next: 42})
	if err != nil {
		t.Fatal(err)
	}
	a, err := DecodeReplAck(b)
	if err != nil || a.Next != 42 || a.Tenant != "s1" {
		t.Fatalf("ack round trip: %+v, %v", a, err)
	}
	for _, bad := range []string{
		`{"v":1,"tenant":"s1","next":0}`,
		`{"v":1,"tenant":"","next":1}`,
		`{"v":2,"tenant":"s1","next":1}`,
		`{"v":1,"tenant":"s1","next":1,"x":1}`,
	} {
		if _, err := DecodeReplAck([]byte(bad)); err == nil {
			t.Fatalf("bad ack decoded: %s", bad)
		}
	}

	sb, err := EncodeReplStatus(ReplStatusJSON{Version: 1, Role: RoleFollower, Tenants: map[string]uint64{"a": 3}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := DecodeReplStatus(sb)
	if err != nil || s.Role != RoleFollower || s.Tenants["a"] != 3 {
		t.Fatalf("status round trip: %+v, %v", s, err)
	}
	for _, bad := range []string{
		`{"v":1,"role":"primary","tenants":{}}`,
		`{"v":1,"role":"follower","tenants":{"a":0}}`,
		`{"v":1,"role":"follower","tenants":{"":1}}`,
	} {
		if _, err := DecodeReplStatus([]byte(bad)); err == nil {
			t.Fatalf("bad status decoded: %s", bad)
		}
	}
}
