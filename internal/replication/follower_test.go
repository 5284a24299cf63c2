package replication

// Follower fail-closed suite: torn frames, reordered batches, gapped
// cursors, tampered records and role conflicts must all be refused without
// touching the replica's durable state — plus the promotion and
// write-gating contracts of a warm standby. Frames go down raw streams, so
// the tests control every byte on the wire.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mcsched/internal/admission"
	"mcsched/internal/core"
	"mcsched/internal/journal/journaltest"
	"mcsched/internal/mcs"
	"mcsched/internal/mcsio"
)

// buildLeaderHistory creates a leader with one tenant and a few committed
// events, returning the controller and the tenant's raw journal records.
func buildLeaderHistory(t *testing.T, n int) (*admission.Controller, [][]byte) {
	t.Helper()
	leader := admission.NewController(leaderConfig(t.TempDir(), -1))
	if _, err := leader.Recover(); err != nil {
		t.Fatal(err)
	}
	sys, err := leader.CreateSystem("t", 2, core.Tests()[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := sys.Admit(mcs.NewLC(i, 1, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { leader.Close() })
	recs, _, err := sys.Journal().ReadFrom(1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return leader, recs
}

// decodeEvents decodes journal records, the input journaltest.WriteJSON
// re-encodes as a legacy JSON history.
func decodeEvents(t *testing.T, recs [][]byte) []mcsio.EventJSON {
	t.Helper()
	events := make([]mcsio.EventJSON, len(recs))
	for i, r := range recs {
		e, err := mcsio.DecodeEvent(r)
		if err != nil {
			t.Fatal(err)
		}
		events[i] = e
	}
	return events
}

// rawStream is a hand-rolled stream client for wire-level fault injection.
type rawStream struct {
	pw   *io.PipeWriter
	resp *http.Response
	br   *bufio.Reader
}

func dialRawStream(t *testing.T, base string) *rawStream {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, base+StreamPath, pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream dial: status %d", resp.StatusCode)
	}
	rs := &rawStream{pw: pw, resp: resp, br: bufio.NewReader(resp.Body)}
	t.Cleanup(rs.close)
	return rs
}

func (rs *rawStream) close() {
	rs.pw.Close()
	rs.resp.Body.Close()
}

// send writes one length-prefixed frame and reads back the status-tagged
// acknowledgement.
func (rs *rawStream) send(t *testing.T, frame []byte) (byte, []byte) {
	t.Helper()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(frame)))
	if _, err := rs.pw.Write(append(hdr[:], frame...)); err != nil {
		t.Fatal(err)
	}
	return rs.readAck(t)
}

func (rs *rawStream) readAck(t *testing.T) (byte, []byte) {
	t.Helper()
	var ackHdr [5]byte
	if _, err := io.ReadFull(rs.br, ackHdr[:]); err != nil {
		t.Fatal(err)
	}
	body := make([]byte, binary.LittleEndian.Uint32(ackHdr[1:5]))
	if _, err := io.ReadFull(rs.br, body); err != nil {
		t.Fatal(err)
	}
	return ackHdr[0], body
}

// streamFrame sends one frame down a fresh stream, closes it, and returns
// the acknowledgement.
func streamFrame(t *testing.T, srv *httptest.Server, frame []byte) (byte, []byte) {
	t.Helper()
	rs := dialRawStream(t, srv.URL)
	defer rs.close()
	return rs.send(t, frame)
}

// recordsFrame renders a binary records frame by hand, following the
// layout documented in internal/mcsio/binary.go, so the stream suites also
// pin the layout the leader's encoder writes. It checks nothing, so tests
// can ship records a follower must refuse.
func recordsFrame(_ *testing.T, tenant string, first uint64, recs [][]byte) []byte {
	b := []byte{mcsio.BinaryMagic, mcsio.BinaryFormatVersion, 0x03, 0x01} // repl frame, records kind
	b = binary.AppendUvarint(b, uint64(len(tenant)))
	b = append(b, tenant...)
	b = binary.AppendUvarint(b, first)
	b = binary.AppendUvarint(b, uint64(len(recs)))
	for _, r := range recs {
		b = binary.AppendUvarint(b, uint64(len(r)))
		b = append(b, r...)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

// snapshotFrame renders a binary snapshot frame. The encoder checks only
// the envelope, so tests can ship a snapshot a follower must refuse.
func snapshotFrame(t *testing.T, tenant string, seq uint64, payload []byte) []byte {
	t.Helper()
	b, err := mcsio.EncodeReplFrameBinary(mcsio.ReplFrame{
		Kind: mcsio.ReplSnapshot, Tenant: tenant, Seq: seq, Snapshot: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// failClosedFixture is one follower fed over one raw stream, seeded with a
// valid prefix of a leader history whose records are in one codec.
type failClosedFixture struct {
	journal  mcsio.Codec // the records' codec: binary, or a legacy directory's JSON
	recs     [][]byte
	snap     []byte // the snapshot covering all of recs, in the same codec
	fctrl    *admission.Controller
	recv     *Receiver
	rs       *rawStream
	base     string
	baseNext uint64
}

// ack sends a frame and demands the given status, returning the ack body.
func (fx *failClosedFixture) ack(t *testing.T, frame []byte, want byte) []byte {
	t.Helper()
	status, body := fx.rs.send(t, frame)
	if status != want {
		t.Fatalf("ack status %d (%s), want %d", status, body, want)
	}
	return body
}

// refused demands a fail-closed rejection that leaves the replica as seeded.
func (fx *failClosedFixture) refused(t *testing.T, frame []byte) {
	t.Helper()
	fx.ack(t, frame, streamAckBad)
	fx.unchanged(t)
}

// resync demands a conflict ack carrying the resync position next.
func (fx *failClosedFixture) resync(t *testing.T, frame []byte, next uint64) {
	t.Helper()
	body := fx.ack(t, frame, streamAckConflict)
	if ack, err := mcsio.DecodeReplAck(body); err != nil || ack.Next != next {
		t.Fatalf("conflict ack: %+v, %v — want next %d", ack, err, next)
	}
}

// snapshotAs re-stamps the leader's snapshot as system's, covering 1..seq,
// in the records' codec; edit, if not nil, then rewrites it.
func (fx *failClosedFixture) snapshotAs(t *testing.T, system string, seq uint64, edit func(*mcsio.SnapshotJSON)) []byte {
	t.Helper()
	s, _, err := mcsio.DecodeSnapshot(fx.snap)
	if err != nil {
		t.Fatal(err)
	}
	s.System, s.Seq = system, seq
	if edit != nil {
		edit(&s)
	}
	encode := mcsio.EncodeSnapshot
	if fx.journal == mcsio.CodecBinary {
		encode = mcsio.EncodeSnapshotBinary
	}
	b, err := encode(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// overFull grows each of a snapshot's tasks to u = 0.6 and moves them all
// onto core 0.
func overFull(s *mcsio.SnapshotJSON) {
	p := &s.Partition
	var all []int
	for i := range p.Tasks {
		p.Tasks[i].CLo, p.Tasks[i].CHi = 600, 600
		p.Tasks[i].ULo, p.Tasks[i].UHi = 0, 0
		all = append(all, p.Tasks[i].ID)
	}
	p.Cores = [][]int{all, {}}
}

func (fx *failClosedFixture) unchanged(t *testing.T) {
	t.Helper()
	if got := fingerprintOf(fx.fctrl, "t"); got != fx.base {
		t.Fatalf("mutated follower state:\n%s\n%s", fx.base, got)
	}
	if got := fx.fctrl.TenantNext("t"); got != fx.baseNext {
		t.Fatalf("moved the journal tail to %d", got)
	}
}

// TestFollowerFailClosed runs the fail-closed table over the JSON records
// and JSON snapshot of a legacy directory, which a leader reopened on such
// a directory ships inside binary frames.
func TestFollowerFailClosed(t *testing.T) {
	runFailClosed(t, &failClosedFixture{journal: mcsio.CodecJSON})
}

// TestStreamFailClosedBinary runs the fail-closed table over binary
// records, the only codec a current journal writes.
func TestStreamFailClosedBinary(t *testing.T) {
	runFailClosed(t, &failClosedFixture{journal: mcsio.CodecBinary})
}

// runFailClosed drives torn, reordered, gapped, undecodable, foreign and
// tampered frames down one live stream. Every semantic rejection must
// leave the replica untouched and the stream open; framing damage, the
// last case, must close it.
func runFailClosed(t *testing.T, fx *failClosedFixture) {
	leader, recs := buildLeaderHistory(t, 4)
	fx.recs = recs
	if err := leader.SnapshotSystem("t"); err != nil {
		t.Fatal(err)
	}
	lsys, err := leader.System("t")
	if err != nil {
		t.Fatal(err)
	}
	if fx.snap, _, _, err = lsys.Journal().Snapshot(); err != nil {
		t.Fatal(err)
	}
	if fx.journal == mcsio.CodecJSON {
		snap, _, err := mcsio.DecodeSnapshot(fx.snap)
		if err != nil {
			t.Fatal(err)
		}
		if fx.recs, err = journaltest.WriteJSON(t.TempDir(), decodeEvents(t, recs), nil); err != nil {
			t.Fatal(err)
		}
		if fx.snap, err = mcsio.EncodeSnapshot(snap); err != nil {
			t.Fatal(err)
		}
	}
	var srv *httptest.Server
	fx.fctrl, fx.recv, srv = newFollower(t, t.TempDir())
	fx.rs = dialRawStream(t, srv.URL)
	// Seed the follower with the valid prefix: create + 2 admits.
	fx.ack(t, recordsFrame(t, "t", 1, fx.recs[:3]), streamAckOK)
	fx.base, fx.baseNext = fingerprintOf(fx.fctrl, "t"), fx.fctrl.TenantNext("t")
	if fx.baseNext != 4 {
		t.Fatalf("follower at %d after 3 records, want 4", fx.baseNext)
	}
	snapSeq := uint64(len(fx.recs))

	for _, tc := range []struct {
		name string
		run  func(t *testing.T, fx *failClosedFixture)
	}{
		{"torn stream", func(t *testing.T, fx *failClosedFixture) {
			full := recordsFrame(t, "t", 4, fx.recs[3:])
			fx.refused(t, full[:len(full)-7])
		}},
		{"reordered batch", func(t *testing.T, fx *failClosedFixture) {
			// Two otherwise-valid records in swapped order.
			fx.refused(t, recordsFrame(t, "t", 3, [][]byte{fx.recs[3], fx.recs[2]}))
		}},
		{"gapped batch", func(t *testing.T, fx *failClosedFixture) {
			// Record 3 is a redelivery the follower would skip; record 5
			// sits at position 4.
			fx.refused(t, recordsFrame(t, "t", 3, [][]byte{fx.recs[2], fx.recs[4]}))
		}},
		{"first mismatch", func(t *testing.T, fx *failClosedFixture) {
			// Records 3..5 shipped as if they began at 4.
			fx.refused(t, recordsFrame(t, "t", 4, fx.recs[2:]))
		}},
		{"undecodable record after a valid one", func(t *testing.T, fx *failClosedFixture) {
			// Record 4 alone would apply; the frame is refused whole.
			for _, bad := range [][]byte{[]byte(`{"garbage":true}`), {mcsio.BinaryMagic, 0xFF}} {
				fx.refused(t, recordsFrame(t, "t", 4, [][]byte{fx.recs[3], bad}))
			}
		}},
		{"gap beyond tail", func(t *testing.T, fx *failClosedFixture) {
			fx.resync(t, recordsFrame(t, "t", 5, fx.recs[4:]), fx.baseNext)
			fx.unchanged(t)
		}},
		{"unknown tenant mid-stream", func(t *testing.T, fx *failClosedFixture) {
			fx.resync(t, recordsFrame(t, "ghost", 4, fx.recs[3:4]), 1)
		}},
		{"tampered record", func(t *testing.T, fx *failClosedFixture) {
			// A well-formed admit whose recorded core contradicts the
			// placement: verification must refuse it before the local append.
			e, err := mcsio.DecodeEvent(fx.recs[3])
			if err != nil {
				t.Fatal(err)
			}
			e.Core++
			forged, err := fx.journal.EncodeEvent(e)
			if err != nil {
				t.Fatal(err)
			}
			fx.refused(t, recordsFrame(t, "t", 4, [][]byte{forged}))
		}},
		{"tampered CRC", func(t *testing.T, fx *failClosedFixture) {
			if fx.journal == mcsio.CodecBinary {
				// A record whose own CRC is flipped, inside an intact frame
				// (JSON records carry no checksum)...
				rec := append([]byte(nil), fx.recs[3]...)
				rec[len(rec)-1] ^= 0xFF
				fx.refused(t, recordsFrame(t, "t", 4, [][]byte{rec}))
			}
			// ...and an intact record inside a frame whose CRC is flipped.
			frame := recordsFrame(t, "t", 4, fx.recs[3:])
			frame[len(frame)-1] ^= 0xFF
			fx.refused(t, frame)
		}},
		{"snapshot of another tenant", func(t *testing.T, fx *failClosedFixture) {
			// For a tenant the follower lacks, the install would found it...
			fx.refused(t, snapshotFrame(t, "ghost", snapSeq, fx.snap))
			if _, err := fx.fctrl.System("ghost"); !errors.Is(err, admission.ErrNoSystem) {
				t.Fatalf("a foreign snapshot founded a tenant: %v", err)
			}
			// ...and for one it holds, at or below the tail, the idempotent
			// skip would answer ok.
			fx.refused(t, snapshotFrame(t, "t", fx.baseNext-1, fx.snapshotAs(t, "ghost", fx.baseNext-1, nil)))
		}},
		{"snapshot at another sequence", func(t *testing.T, fx *failClosedFixture) {
			// Above the tail the install would run; at or below it the
			// idempotent skip would answer ok. Both are refused.
			fx.refused(t, snapshotFrame(t, "t", snapSeq+1, fx.snap))
			fx.refused(t, snapshotFrame(t, "t", fx.baseNext-1, fx.snap))
		}},
		{"over-full snapshot", func(t *testing.T, fx *failClosedFixture) {
			// The leader's tasks, each grown to u = 0.6 and all on core 0:
			// EDF-VD fails that core. Above the tail the install would run;
			// at or below it the idempotent skip would answer ok.
			fx.refused(t, snapshotFrame(t, "t", snapSeq, fx.snapshotAs(t, "t", snapSeq, overFull)))
			fx.refused(t, snapshotFrame(t, "t", fx.baseNext-1, fx.snapshotAs(t, "t", fx.baseNext-1, overFull)))
		}},
		{"over-full EY snapshot", func(t *testing.T, fx *failClosedFixture) {
			// The same core under EY, which is not run on a snapshot: its
			// LO utilization of 2.4 fails the filter in front of EY.
			overFullEY := func(s *mcsio.SnapshotJSON) { overFull(s); s.Test = "EY" }
			fx.refused(t, snapshotFrame(t, "t", snapSeq, fx.snapshotAs(t, "t", snapSeq, overFullEY)))
			fx.refused(t, snapshotFrame(t, "t", fx.baseNext-1, fx.snapshotAs(t, "t", fx.baseNext-1, overFullEY)))
		}},
		{"JSON frame needs an upgraded leader", func(t *testing.T, fx *failClosedFixture) {
			body := fx.ack(t, []byte(`{"v":1,"kind":"remove","tenant":"t"}`), streamAckBad)
			if !strings.Contains(string(body), "upgrade the leader") {
				t.Fatalf("JSON frame refused without naming the upgrade: %s", body)
			}
			fx.unchanged(t)
		}},
		{"redelivery is idempotent", func(t *testing.T, fx *failClosedFixture) {
			body := fx.ack(t, recordsFrame(t, "t", 1, fx.recs[:3]), streamAckOK)
			if ack, err := mcsio.DecodeReplAck(body); err != nil || ack.Next != fx.baseNext {
				t.Fatalf("redelivery ack: %+v, %v", ack, err)
			}
			fx.unchanged(t)
		}},
		{"overlap applies the suffix", func(t *testing.T, fx *failClosedFixture) {
			fx.ack(t, recordsFrame(t, "t", 2, fx.recs[1:]), streamAckOK)
			if got := fx.fctrl.TenantNext("t"); got != uint64(len(fx.recs))+1 {
				t.Fatalf("after overlap: next %d, want %d", got, len(fx.recs)+1)
			}
		}},
		{"framing damage closes the stream", func(t *testing.T, fx *failClosedFixture) {
			var zero [4]byte // a zero-length frame
			if _, err := fx.rs.pw.Write(zero[:]); err != nil {
				t.Fatal(err)
			}
			if status, _ := fx.rs.readAck(t); status != streamAckBad {
				t.Fatalf("zero-length frame: status %d, want %d", status, streamAckBad)
			}
			if _, err := fx.rs.br.ReadByte(); err != io.EOF {
				t.Fatalf("stream survived framing damage: %v", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, fx) })
	}
	if fx.recv.Applied().RejectedFrames == 0 {
		t.Fatal("receiver counted no rejected frames")
	}
}

func TestFollowerRejectsWritesUntilPromoted(t *testing.T) {
	_, recs := buildLeaderHistory(t, 3)
	fctrl, _, srv := newFollower(t, t.TempDir())
	if st, body := streamFrame(t, srv, recordsFrame(t, "t", 1, recs)); st != streamAckOK {
		t.Fatalf("seed frame refused: %d %s", st, body)
	}

	// Controller-level writes are fenced.
	if _, err := fctrl.CreateSystem("new", 2, core.Tests()[0]); !errors.Is(err, admission.ErrFollower) {
		t.Fatalf("follower CreateSystem: %v, want ErrFollower", err)
	}
	if err := fctrl.RemoveSystem("t"); !errors.Is(err, admission.ErrFollower) {
		t.Fatalf("follower RemoveSystem: %v, want ErrFollower", err)
	}
	sys, err := fctrl.System("t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Admit(mcs.NewLC(99, 1, 1000)); !errors.Is(err, admission.ErrFollower) {
		t.Fatalf("follower Admit: %v, want ErrFollower", err)
	}
	if _, err := sys.AdmitBatch(mcs.TaskSet{mcs.NewLC(99, 1, 1000)}); !errors.Is(err, admission.ErrFollower) {
		t.Fatalf("follower AdmitBatch: %v, want ErrFollower", err)
	}
	if _, err := sys.Release(0); !errors.Is(err, admission.ErrFollower) {
		t.Fatalf("follower Release: %v, want ErrFollower", err)
	}
	// Reads and probes keep working on a standby.
	if res, err := sys.Probe(mcs.NewLC(99, 1, 1000)); err != nil || !res.Admitted {
		t.Fatalf("follower Probe: %+v, %v", res, err)
	}
	if sys.NumTasks() != 3 {
		t.Fatalf("follower holds %d tasks, want 3", sys.NumTasks())
	}

	promote(t, fctrl)
	if _, err := sys.Admit(mcs.NewLC(99, 1, 1000)); err != nil {
		t.Fatalf("promoted Admit: %v", err)
	}
	if _, err := sys.Release(99); err != nil {
		t.Fatalf("promoted Release: %v", err)
	}
}

func TestPromoteIdempotentAndFencing(t *testing.T) {
	_, recs := buildLeaderHistory(t, 2)
	fctrl, _, srv := newFollower(t, t.TempDir())
	if st, _ := streamFrame(t, srv, recordsFrame(t, "t", 1, recs)); st != streamAckOK {
		t.Fatal("seed frame refused")
	}

	if !fctrl.Promote() || fctrl.IsFollower() {
		t.Fatal("first promote did not promote")
	}
	if fctrl.Promote() || fctrl.IsFollower() {
		t.Fatal("second promote not idempotent")
	}

	// A stale leader keeps shipping: the promoted node must fence off even
	// a wire-valid frame it would previously have skipped idempotently.
	st, body := streamFrame(t, srv, recordsFrame(t, "t", 1, recs))
	if st != streamAckNotFollower {
		t.Fatalf("frame after promotion: status %d (%s), want not-follower", st, body)
	}
	if next := fctrl.TenantNext("t"); next != uint64(len(recs))+1 {
		t.Fatalf("fenced frame moved the tail to %d", next)
	}
	// A frame whose records do not decode in order is bad before it is
	// fenced: content is checked ahead of the role.
	if st, body := streamFrame(t, srv, recordsFrame(t, "t", 1, [][]byte{recs[1], recs[0]})); st != streamAckBad {
		t.Fatalf("reordered frame after promotion: status %d (%s), want bad", st, body)
	}
	// The status document reports the new role.
	resp, err := http.Get(srv.URL + StatusPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	status, err := mcsio.DecodeReplStatus(b)
	if err != nil || status.Role != mcsio.RoleLeader {
		t.Fatalf("post-promotion status: %+v, %v", status, err)
	}
	if status.Tenants["t"] == 0 {
		t.Fatal("status lost the tenant position")
	}
}

// TestShipperResyncAfterLeaderRestart: a restarted leader (fresh shipper,
// no cursors) against a follower that already holds a prefix must converge
// through the status prime + idempotent redelivery, not duplicate state.
func TestShipperResyncAfterLeaderRestart(t *testing.T) {
	dir := t.TempDir()
	leader := admission.NewController(leaderConfig(dir, -1))
	if _, err := leader.Recover(); err != nil {
		t.Fatal(err)
	}
	sys, err := leader.CreateSystem("t", 2, core.Tests()[0])
	if err != nil {
		t.Fatal(err)
	}
	fctrl, _, srv := newFollower(t, t.TempDir())
	ship := connect(t, leader, srv.URL)
	for i := 0; i < 5; i++ {
		if _, err := sys.Admit(mcs.NewLC(i, 1, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	flush(t, ship)
	ship.Stop()
	leader.Close()

	// Second leader generation over the same data dir.
	leader2 := admission.NewController(leaderConfig(dir, -1))
	if _, err := leader2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer leader2.Close()
	sys2, err := leader2.System("t")
	if err != nil {
		t.Fatal(err)
	}
	ship2 := connect(t, leader2, srv.URL)
	for i := 5; i < 8; i++ {
		if _, err := sys2.Admit(mcs.NewLC(i, 1, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	flush(t, ship2)
	if got := fingerprintOf(fctrl, "t"); got != sys2.Fingerprint() {
		t.Fatalf("follower diverged after leader restart:\n%s\n%s", sys2.Fingerprint(), got)
	}
	st := ship2.Status()
	if len(st) != 1 || st[0].Tenants["t"].Lag != 0 {
		t.Fatalf("post-restart lag not zero: %+v", st)
	}
}

// TestFollowerRestartResumes: a follower restarted from its own data dir
// recovers the replica and keeps applying from where it stopped.
func TestFollowerRestartResumes(t *testing.T) {
	leader, recs := buildLeaderHistory(t, 4)
	fdir := t.TempDir()
	fctrl, _, srv := newFollower(t, fdir)
	if st, _ := streamFrame(t, srv, recordsFrame(t, "t", 1, recs[:3])); st != streamAckOK {
		t.Fatal("seed frame refused")
	}
	srv.Close()
	if err := fctrl.Close(); err != nil {
		t.Fatal(err)
	}

	fctrl2, _, srv2 := newFollower(t, fdir)
	if got := fctrl2.TenantNext("t"); got != 4 {
		t.Fatalf("restarted follower at %d, want 4", got)
	}
	if st, body := streamFrame(t, srv2, recordsFrame(t, "t", 4, recs[3:])); st != streamAckOK {
		t.Fatalf("resume frame refused: %d %s", st, body)
	}
	lsys, err := leader.System("t")
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprintOf(fctrl2, "t"); got != lsys.Fingerprint() {
		t.Fatalf("restarted follower diverged:\n%s\n%s", lsys.Fingerprint(), got)
	}
}

// TestReceiverRequiresJournaledFollower: an in-memory controller cannot be
// a follower target.
func TestReceiverRequiresJournaledFollower(t *testing.T) {
	cfg := admission.DefaultConfig()
	cfg.Follower = true
	ctrl := admission.NewController(cfg) // no DataDir
	_, recs := buildLeaderHistory(t, 0)
	if _, _, err := ctrl.ApplyReplicatedRecords("t", 1, recs); err == nil || !strings.Contains(err.Error(), "data directory") {
		t.Fatalf("memory-only follower: %v, want the data-directory refusal", err)
	}
	if _, err := NewShipper(ctrl, []string{"http://x"}, ShipperConfig{}); err == nil {
		t.Fatal("shipper accepted an unjournaled controller")
	}
	if _, err := NewShipper(admission.NewController(leaderConfig(t.TempDir(), 0)), nil, ShipperConfig{}); err == nil {
		t.Fatal("shipper accepted zero followers")
	}
	if _, err := NewShipper(admission.NewController(leaderConfig(t.TempDir(), 0)), []string{"not a url"}, ShipperConfig{}); err == nil {
		t.Fatal("shipper accepted a relative follower URL")
	}
}
