package replication

// Follower fail-closed suite: torn frames, reordered batches, gapped
// cursors, tampered records and role conflicts must all be refused without
// touching the replica's durable state — plus the promotion and
// write-gating contracts of a warm standby. Frames go down raw streams, so
// the tests control every byte on the wire.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
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

// recordsFrame renders a JSON records frame, the encoding of leaders
// before frames went binary-only. It skips the encoder's validation so
// tests can ship what a strict encoder would refuse.
func recordsFrame(t *testing.T, tenant string, first uint64, recs [][]byte) []byte {
	t.Helper()
	raw := make([]json.RawMessage, len(recs))
	for i, r := range recs {
		raw[i] = r
	}
	b, err := json.Marshal(mcsio.ReplFrameJSON{
		Version: 1, Kind: mcsio.ReplRecords, Tenant: tenant, First: first, Records: raw,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// binaryRecordsFrame renders a binary records frame by hand, following the
// layout documented in internal/mcsio/binary.go, again unvalidated.
func binaryRecordsFrame(_ *testing.T, tenant string, first uint64, recs [][]byte) []byte {
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

// failClosedFixture is one follower fed over one raw stream in one frame
// codec, seeded with a valid prefix.
type failClosedFixture struct {
	journal  mcsio.Codec // the records' codec: JSON frames carry only JSON records
	frame    func(t *testing.T, tenant string, first uint64, recs [][]byte) []byte
	recs     [][]byte
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

func (fx *failClosedFixture) unchanged(t *testing.T) {
	t.Helper()
	if got := fingerprintOf(fx.fctrl, "t"); got != fx.base {
		t.Fatalf("mutated follower state:\n%s\n%s", fx.base, got)
	}
	if got := fx.fctrl.TenantNext("t"); got != fx.baseNext {
		t.Fatalf("moved the journal tail to %d", got)
	}
}

// TestFollowerFailClosed runs the fail-closed table over JSON frames, the
// encoding of leaders before frames went binary-only, carrying the JSON
// records of a legacy directory.
func TestFollowerFailClosed(t *testing.T) {
	runFailClosed(t, &failClosedFixture{journal: mcsio.CodecJSON, frame: recordsFrame})
}

// TestStreamFailClosedBinary runs the fail-closed table over binary frames,
// the only encoding a current leader ships.
func TestStreamFailClosedBinary(t *testing.T) {
	runFailClosed(t, &failClosedFixture{journal: mcsio.CodecBinary, frame: binaryRecordsFrame})
}

// runFailClosed drives torn, reordered, gapped, foreign and tampered frames
// down one live stream in fx's frame codec. Every semantic rejection must
// leave the replica untouched and the stream open; framing damage, the last
// case, must close it.
func runFailClosed(t *testing.T, fx *failClosedFixture) {
	_, fx.recs = buildLeaderHistory(t, 4)
	if fx.journal == mcsio.CodecJSON {
		// JSON frames carry only JSON records: those of a legacy directory.
		recs, err := journaltest.WriteJSON(t.TempDir(), decodeEvents(t, fx.recs), nil)
		if err != nil {
			t.Fatal(err)
		}
		fx.recs = recs
	}
	var srv *httptest.Server
	fx.fctrl, fx.recv, srv = newFollower(t, t.TempDir())
	fx.rs = dialRawStream(t, srv.URL)
	// Seed the follower with the valid prefix: create + 2 admits.
	fx.ack(t, fx.frame(t, "t", 1, fx.recs[:3]), streamAckOK)
	fx.base, fx.baseNext = fingerprintOf(fx.fctrl, "t"), fx.fctrl.TenantNext("t")
	if fx.baseNext != 4 {
		t.Fatalf("follower at %d after 3 records, want 4", fx.baseNext)
	}

	for _, tc := range []struct {
		name       string
		binaryOnly bool // JSON frames and records carry no checksum
		run        func(t *testing.T, fx *failClosedFixture)
	}{
		{"torn stream", false, func(t *testing.T, fx *failClosedFixture) {
			full := fx.frame(t, "t", 4, fx.recs[3:])
			fx.refused(t, full[:len(full)-7])
		}},
		{"reordered batch", false, func(t *testing.T, fx *failClosedFixture) {
			// Two otherwise-valid records in swapped order.
			fx.refused(t, fx.frame(t, "t", 3, [][]byte{fx.recs[3], fx.recs[2]}))
		}},
		{"gap beyond tail", false, func(t *testing.T, fx *failClosedFixture) {
			fx.resync(t, fx.frame(t, "t", 5, fx.recs[4:]), fx.baseNext)
			fx.unchanged(t)
		}},
		{"unknown tenant mid-stream", false, func(t *testing.T, fx *failClosedFixture) {
			fx.resync(t, fx.frame(t, "ghost", 4, fx.recs[3:4]), 1)
		}},
		{"tampered record", false, func(t *testing.T, fx *failClosedFixture) {
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
			fx.refused(t, fx.frame(t, "t", 4, [][]byte{forged}))
		}},
		{"tampered CRC", true, func(t *testing.T, fx *failClosedFixture) {
			// A record whose own CRC is flipped, inside an intact frame...
			rec := append([]byte(nil), fx.recs[3]...)
			rec[len(rec)-1] ^= 0xFF
			fx.refused(t, fx.frame(t, "t", 4, [][]byte{rec}))
			// ...and an intact record inside a frame whose CRC is flipped.
			frame := fx.frame(t, "t", 4, fx.recs[3:])
			frame[len(frame)-1] ^= 0xFF
			fx.refused(t, frame)
		}},
		{"redelivery is idempotent", false, func(t *testing.T, fx *failClosedFixture) {
			body := fx.ack(t, fx.frame(t, "t", 1, fx.recs[:3]), streamAckOK)
			if ack, err := mcsio.DecodeReplAck(body); err != nil || ack.Next != fx.baseNext {
				t.Fatalf("redelivery ack: %+v, %v", ack, err)
			}
			fx.unchanged(t)
		}},
		{"overlap applies the suffix", false, func(t *testing.T, fx *failClosedFixture) {
			fx.ack(t, fx.frame(t, "t", 2, fx.recs[1:]), streamAckOK)
			if got := fx.fctrl.TenantNext("t"); got != uint64(len(fx.recs))+1 {
				t.Fatalf("after overlap: next %d, want %d", got, len(fx.recs)+1)
			}
		}},
		{"framing damage closes the stream", false, func(t *testing.T, fx *failClosedFixture) {
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
		if tc.binaryOnly && fx.journal != mcsio.CodecBinary {
			continue
		}
		t.Run(tc.name, func(t *testing.T) { tc.run(t, fx) })
	}
	if fx.recv.Applied().RejectedFrames == 0 {
		t.Fatal("receiver counted no rejected frames")
	}
}

func TestFollowerRejectsWritesUntilPromoted(t *testing.T) {
	_, recs := buildLeaderHistory(t, 3)
	fctrl, _, srv := newFollower(t, t.TempDir())
	if st, body := streamFrame(t, srv, binaryRecordsFrame(t, "t", 1, recs)); st != streamAckOK {
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
	if st, _ := streamFrame(t, srv, binaryRecordsFrame(t, "t", 1, recs)); st != streamAckOK {
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
	st, body := streamFrame(t, srv, binaryRecordsFrame(t, "t", 1, recs))
	if st != streamAckNotFollower {
		t.Fatalf("frame after promotion: status %d (%s), want not-follower", st, body)
	}
	if next := fctrl.TenantNext("t"); next != uint64(len(recs))+1 {
		t.Fatalf("fenced frame moved the tail to %d", next)
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
	if st, _ := streamFrame(t, srv, binaryRecordsFrame(t, "t", 1, recs[:3])); st != streamAckOK {
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
	if st, body := streamFrame(t, srv2, binaryRecordsFrame(t, "t", 4, recs[3:])); st != streamAckOK {
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
	if _, _, err := ctrl.ApplyReplicatedRecords("t", 1, [][]byte{[]byte("{}")}); err == nil {
		t.Fatal("memory-only follower accepted records")
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
