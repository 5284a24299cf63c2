package mcsio

// Certification of the binary record framing, mirroring what the JSON
// codecs got in PRs 3/5: round trips through the auto-detecting decoders,
// every-byte corruption rejection (the CRC trailer must catch any
// single-byte damage), codec dispatch, and the JSON/binary embedding rules
// for replication frames.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"mcsched/internal/core"
	"mcsched/internal/mcs"
)

func validBinarySnapshot(t testing.TB) (SnapshotJSON, []byte) {
	t.Helper()
	p := core.Partition{Cores: []mcs.TaskSet{
		{mcs.NewHC(1, 2, 4, 10), mcs.NewLC(3, 1, 12)},
		{},
		{mcs.NewLC(2, 3, 9)},
	}}
	s := SnapshotJSON{
		Version: 1, Seq: 7, System: "s1", Processors: 3, Test: "EDF-VD",
		Partition: PartitionToJSON(p), Admits: 4, Releases: 1,
	}
	b, err := EncodeSnapshotBinary(s)
	if err != nil {
		t.Fatalf("encode binary snapshot: %v", err)
	}
	return s, b
}

func TestBinaryEventRoundTrip(t *testing.T) {
	for _, e := range validEvents() {
		b, err := EncodeEventBinary(e)
		if err != nil {
			t.Fatalf("encode %+v: %v", e, err)
		}
		if !IsBinaryRecord(b) {
			t.Fatalf("binary encoding does not start with magic: % x", b[:4])
		}
		got, err := DecodeEvent(b) // auto-detect path
		if err != nil {
			t.Fatalf("decode binary %s event: %v", e.Kind, err)
		}
		if !reflect.DeepEqual(got, e) {
			t.Fatalf("%s event round trip mismatch:\n got %+v\nwant %+v", e.Kind, got, e)
		}
		b2, err := EncodeEventBinary(got)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("binary event encoding not canonical:\n% x\n% x", b, b2)
		}
	}
}

func TestBinarySnapshotRoundTrip(t *testing.T) {
	s, b := validBinarySnapshot(t)
	got, p, err := DecodeSnapshot(b) // auto-detect path
	if err != nil {
		t.Fatalf("decode binary snapshot: %v", err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("snapshot round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
	if len(p.Cores) != s.Processors {
		t.Fatalf("decoded partition has %d cores, want %d", len(p.Cores), s.Processors)
	}
	b2, err := EncodeSnapshotBinary(got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("binary snapshot encoding not canonical")
	}
	// The floats must survive bit-exactly: the JSON rendering of both wire
	// forms must agree on every utilization digit.
	j1, _ := json.Marshal(s)
	j2, _ := json.Marshal(got)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("snapshot floats drifted through binary round trip:\n%s\n%s", j1, j2)
	}
}

func TestBinaryReplFrameRoundTrip(t *testing.T) {
	events := validEvents()
	var jsonRecs, binRecs, mixedRecs [][]byte
	for i, e := range events {
		jb, err := EncodeEvent(e)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := EncodeEventBinary(e)
		if err != nil {
			t.Fatal(err)
		}
		jsonRecs = append(jsonRecs, jb)
		binRecs = append(binRecs, bb)
		// A leader whose journal switched codecs mid-history ships frames
		// holding both forms.
		if i%2 == 0 {
			mixedRecs = append(mixedRecs, jb)
		} else {
			mixedRecs = append(mixedRecs, bb)
		}
	}
	_, snapBin := validBinarySnapshot(t)
	frames := []ReplFrame{
		{Version: 1, Kind: ReplRecords, Tenant: "s1", First: 1, Records: jsonRecs},
		{Version: 1, Kind: ReplRecords, Tenant: "s1", First: 1, Records: binRecs},
		{Version: 1, Kind: ReplRecords, Tenant: "s1", First: 1, Records: mixedRecs},
		{Version: 1, Kind: ReplSnapshot, Tenant: "s1", Seq: 7, Snapshot: snapBin},
		{Version: 1, Kind: ReplRemove, Tenant: "s1"},
	}
	for i, f := range frames {
		b, err := EncodeReplFrameBinary(f)
		if err != nil {
			t.Fatalf("frame %d: encode: %v", i, err)
		}
		got, err := DecodeReplFrame(b) // auto-detect path
		if err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, f) {
			t.Fatalf("frame %d round trip mismatch:\n got %+v\nwant %+v", i, got, f)
		}
		b2, err := EncodeReplFrameBinary(got)
		if err != nil {
			t.Fatalf("frame %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("frame %d: binary frame encoding not canonical", i)
		}
	}
}

// TestBinaryDecodeFailsClosed damages every valid binary record in every
// single-byte way — truncation at each prefix length, and each byte
// flipped — and demands the decoders reject all of it. CRC-32C detects any
// burst shorter than 32 bits, so a surviving corruption would mean the
// checksum is not actually covering the record.
func TestBinaryDecodeFailsClosed(t *testing.T) {
	type record struct {
		name   string
		b      []byte
		decode func([]byte) error
	}
	var recs []record
	for _, e := range validEvents() {
		b, err := EncodeEventBinary(e)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, record{"event/" + e.Kind, b, func(b []byte) error {
			_, err := DecodeEvent(b)
			return err
		}})
	}
	_, snapBin := validBinarySnapshot(t)
	recs = append(recs, record{"snapshot", snapBin, func(b []byte) error {
		_, _, err := DecodeSnapshot(b)
		return err
	}})
	frame, err := EncodeReplFrameBinary(ReplFrame{
		Version: 1, Kind: ReplSnapshot, Tenant: "s1", Seq: 7, Snapshot: snapBin,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs = append(recs, record{"repl-frame", frame, func(b []byte) error {
		_, err := DecodeReplFrame(b)
		return err
	}})

	for _, rec := range recs {
		if err := rec.decode(rec.b); err != nil {
			t.Fatalf("%s: pristine record rejected: %v", rec.name, err)
		}
		for i := 0; i < len(rec.b); i++ {
			if err := rec.decode(rec.b[:i]); err == nil {
				t.Errorf("%s: truncation to %d bytes decoded", rec.name, i)
			}
			mut := append([]byte(nil), rec.b...)
			mut[i] ^= 0x5A
			if err := rec.decode(mut); err == nil {
				t.Errorf("%s: flipped byte %d decoded", rec.name, i)
			}
		}
		// Trailing bytes after the CRC are tampering, not padding.
		if err := rec.decode(append(append([]byte(nil), rec.b...), 0x00)); err == nil {
			t.Errorf("%s: trailing byte decoded", rec.name)
		}
	}
}

// TestJSONFrameRejectsBinaryRecords pins the embedding rule: binary
// records and snapshots ride only in binary frames. A JSON frame, the
// encoding of leaders before frames went binary-only, is refused whatever
// it carries, with an error that tells the operator to upgrade the leader.
func TestJSONFrameRejectsBinaryRecords(t *testing.T) {
	for _, f := range validReplFrames(t) {
		_, err := DecodeReplFrame(legacyJSONFrame(t, f))
		if err == nil || !strings.Contains(err.Error(), "upgrade the leader") {
			t.Fatalf("JSON %s frame: %v, want the upgrade refusal", f.Kind, err)
		}
	}
	bin, err := EncodeEventBinary(validEvents()[0])
	if err != nil {
		t.Fatal(err)
	}
	_, snapBin := validBinarySnapshot(t)
	for _, f := range []ReplFrame{
		{Version: 1, Kind: ReplRecords, Tenant: "s1", First: 1, Records: [][]byte{bin}},
		{Version: 1, Kind: ReplSnapshot, Tenant: "s1", Seq: 7, Snapshot: snapBin},
	} {
		b, err := EncodeReplFrameBinary(f)
		if err != nil {
			t.Fatalf("binary frame refused a binary %s payload: %v", f.Kind, err)
		}
		if got, err := DecodeReplFrame(b); err != nil || !reflect.DeepEqual(got, f) {
			t.Fatalf("binary %s frame: %+v, %v", f.Kind, got, err)
		}
	}
}

// TestCodecEncodeEvent: each codec's encoding decodes back through
// auto-detection.
func TestCodecEncodeEvent(t *testing.T) {
	e := validEvents()[0]
	for _, c := range []Codec{CodecJSON, CodecBinary} {
		b, err := c.EncodeEvent(e)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if got := IsBinaryRecord(b); got != (c == CodecBinary) {
			t.Fatalf("%s: IsBinaryRecord = %v", c, got)
		}
		if _, err := DecodeEvent(b); err != nil {
			t.Fatalf("%s: decode: %v", c, err)
		}
	}
}

// TestBinaryEncodingSmaller pins the size win that motivates the codec: on
// every event fixture and the snapshot fixture, the binary form must be
// smaller than the canonical JSON form.
func TestBinaryEncodingSmaller(t *testing.T) {
	for _, e := range validEvents() {
		jb, err := EncodeEvent(e)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := EncodeEventBinary(e)
		if err != nil {
			t.Fatal(err)
		}
		if len(bb) >= len(jb) {
			t.Errorf("%s event: binary %dB not smaller than JSON %dB", e.Kind, len(bb), len(jb))
		}
	}
	s, bb := validBinarySnapshot(t)
	jb, err := EncodeSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(bb) >= len(jb) {
		t.Errorf("snapshot: binary %dB not smaller than JSON %dB", len(bb), len(jb))
	}
}

// FuzzDecodeBinaryRecord explores the binary event and snapshot decoders:
// arbitrary bytes must never panic, and anything accepted must reach a
// canonical fixpoint under the binary encoders.
func FuzzDecodeBinaryRecord(f *testing.F) {
	for _, e := range validEvents() {
		b, err := EncodeEventBinary(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	_, snapBin := validBinarySnapshot(f)
	f.Add(snapBin)
	// A placement-bearing snapshot exercises the optional trailing field.
	placedSnap := SnapshotJSON{
		Version: 1, Seq: 2, System: "s1", Processors: 1, Test: "EDF-VD",
		Partition: PartitionJSON{Version: FormatVersion, Cores: [][]int{{}}},
		Placement: "wf-total",
	}
	if b, err := EncodeSnapshotBinary(placedSnap); err != nil {
		f.Fatal(err)
	} else {
		f.Add(b)
	}
	// And one with the second optional trailing field, the next-fit cursor.
	cursorSnap := placedSnap
	cursorSnap.Placement, cursorSnap.Cursor = "nf", 1
	if b, err := EncodeSnapshotBinary(cursorSnap); err != nil {
		f.Fatal(err)
	} else {
		f.Add(b)
	}
	// Adversarial seeds: bare header, wrong version, wrong type, torn body,
	// CRC-less record.
	f.Add([]byte{BinaryMagic})
	f.Add([]byte{BinaryMagic, BinaryFormatVersion, binTypeEvent})
	f.Add([]byte{BinaryMagic, 0xFF, binTypeEvent, 0, 0, 0, 0})
	f.Add([]byte{BinaryMagic, BinaryFormatVersion, 0x7F, 0, 0, 0, 0})
	f.Add([]byte{BinaryMagic, BinaryFormatVersion, binTypeSnapshot, 0x01, 0x02})

	f.Fuzz(func(t *testing.T, b []byte) {
		if e, err := DecodeEvent(b); err == nil {
			b2, err := EncodeEventBinary(e)
			if err != nil {
				t.Fatalf("decoded event does not re-encode binary: %+v: %v", e, err)
			}
			e2, err := DecodeEvent(b2)
			if err != nil {
				t.Fatalf("canonical binary event does not decode: %v", err)
			}
			b3, err := EncodeEventBinary(e2)
			if err != nil {
				t.Fatalf("canonical re-encode failed: %v", err)
			}
			if !bytes.Equal(b2, b3) {
				t.Fatalf("binary event encoding not canonical:\n% x\n% x", b2, b3)
			}
		}
		if s, p, err := DecodeSnapshot(b); err == nil {
			if len(p.Cores) != s.Processors {
				t.Fatalf("accepted snapshot with %d cores for %d processors", len(p.Cores), s.Processors)
			}
			b2, err := EncodeSnapshotBinary(s)
			if err != nil {
				t.Fatalf("decoded snapshot does not re-encode binary: %v", err)
			}
			s2, _, err := DecodeSnapshot(b2)
			if err != nil {
				t.Fatalf("canonical binary snapshot does not decode: %v", err)
			}
			b3, err := EncodeSnapshotBinary(s2)
			if err != nil {
				t.Fatalf("canonical re-encode failed: %v", err)
			}
			if !bytes.Equal(b2, b3) {
				t.Fatalf("binary snapshot encoding not canonical")
			}
		}
	})
}

// FuzzDecodeBinaryReplFrame explores the binary replication frame decoder
// from valid binary frames and adversarial headers, under checkReplFrame's
// canonical-fixpoint property.
func FuzzDecodeBinaryReplFrame(f *testing.F) {
	for _, fr := range validReplFrames(f) {
		b, err := EncodeReplFrameBinary(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// A frame carrying binary records, and adversarial headers.
	var binRecs [][]byte
	for _, e := range validEvents() {
		b, err := EncodeEventBinary(e)
		if err != nil {
			f.Fatal(err)
		}
		binRecs = append(binRecs, b)
	}
	bf, err := EncodeReplFrameBinary(ReplFrame{
		Version: 1, Kind: ReplRecords, Tenant: "s1", First: 1, Records: binRecs,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bf)
	f.Add([]byte{BinaryMagic, BinaryFormatVersion, binTypeRepl})
	f.Add([]byte{BinaryMagic, BinaryFormatVersion, binTypeRepl, binReplRemove, 0x02, 's', '1'})

	f.Fuzz(checkReplFrame)
}
