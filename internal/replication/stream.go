package replication

// Streaming replication, the one transport. The leader holds one
// long-lived POST to StreamPath per follower and writes length-prefixed
// binary frames (mcsio.EncodeReplFrameBinary, which carries records and
// snapshots of either journal codec) down the request body; the receiver
// applies each frame as it arrives and writes a status-tagged
// acknowledgement back through the (full-duplex) response body. The
// receiver checks each frame's envelope (mcsio.DecodeReplFrame) and the
// one apply path decodes its payloads; both fail closed. A JSON frame,
// which leaders sent before frames went binary-only, is refused with a bad
// ack that says to upgrade the leader first.
//
// Uplink framing:   [4B little-endian frame length][frame bytes]
// Downlink framing: [1B status][4B little-endian body length][body]
//
// where status is one of the streamAck* codes below and the body is a
// ReplAckJSON (ok, conflict) or an {"error": ...} document (the rest). A
// semantic rejection keeps the stream open — the framing is intact and the
// next frame is independent; only transport or framing damage tears the
// connection down, after which the leader redials with capped backoff via
// the ordinary retry loop.

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"mcsched/internal/admission"
	"mcsched/internal/mcsio"
)

// Downlink ack status codes.
const (
	streamAckOK          = 0 // frame applied; body is the ack
	streamAckConflict    = 1 // sequence conflict; body carries the resync ack
	streamAckBad         = 2 // fail-closed rejection
	streamAckNotFollower = 3 // receiver is not a follower (stale-leader fencing)
	streamAckUnavailable = 4 // local journal I/O failure; retryable
)

// maxStreamAckBody bounds one downlink ack body.
const maxStreamAckBody = 1 << 20

// ---------------------------------------------------------------------------
// Receiver side
// ---------------------------------------------------------------------------

// HandleStream serves one streaming replication connection: a read loop
// over length-prefixed frames, each applied through applyFrame and
// acknowledged in arrival order. Requires a full-duplex-capable server
// (net/http on HTTP/1.1 or HTTP/2); without it the handler answers 501,
// which the leader reports as a follower it cannot replicate to.
func (r *Receiver) HandleStream(w http.ResponseWriter, req *http.Request) {
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		http.Error(w, "streaming replication unsupported by this server", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	// Commit the 200 before the first read so the leader's dial completes
	// immediately instead of waiting for the first ack.
	if err := rc.Flush(); err != nil {
		return
	}
	br := bufio.NewReader(req.Body)
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return // leader closed (or lost) the uplink; nothing to answer
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n == 0 || n > maxFrameBody {
			// Framing damage: the stream position is unrecoverable, so fail
			// the connection closed rather than resynchronize on guesses.
			r.writeStreamResult(w, rc, "", 0, fmt.Errorf("replication: %d-byte stream frame", n))
			return
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			return
		}
		// A strict-decode or apply rejection keeps the stream: the length
		// prefix preserved the frame boundary.
		f, err := mcsio.DecodeReplFrame(body)
		var next uint64
		if err == nil {
			next, err = r.applyFrame(f)
		}
		if r.writeStreamResult(w, rc, f.Tenant, next, err) != nil {
			return
		}
	}
}

// writeStreamResult is the one place a frame's outcome becomes a downlink
// status: applied (ok), off the follower's tail (conflict, carrying the
// resync position instead of an error so the shipper self-heals), the wrong
// role (not-follower), local journal I/O (unavailable), and anything else —
// strict-decode failures included — bad.
func (r *Receiver) writeStreamResult(w io.Writer, rc *http.ResponseController, tenant string, next uint64, err error) error {
	var status byte
	switch {
	case err == nil:
		status = streamAckOK
	case errors.Is(err, admission.ErrReplicationGap):
		status, next = streamAckConflict, max(next, 1)
	case errors.Is(err, admission.ErrNotFollower):
		status = streamAckNotFollower
	case errors.Is(err, admission.ErrJournalIO):
		status = streamAckUnavailable
	default:
		status = streamAckBad
	}
	if err != nil {
		r.rejectedFrames.Add(1)
	}
	if status == streamAckOK || status == streamAckConflict {
		body, encErr := mcsio.EncodeReplAck(mcsio.ReplAckJSON{Tenant: tenant, Next: next})
		if encErr == nil {
			return r.writeStreamAck(w, rc, status, body)
		}
		status, err = streamAckUnavailable, encErr
	}
	return r.writeStreamAck(w, rc, status, errorDocument(err))
}

// writeStreamAck frames one downlink acknowledgement and flushes it so the
// leader's pending read completes without waiting for buffer pressure.
func (r *Receiver) writeStreamAck(w io.Writer, rc *http.ResponseController, status byte, body []byte) error {
	msg := make([]byte, 5+len(body))
	msg[0] = status
	binary.LittleEndian.PutUint32(msg[1:5], uint32(len(body)))
	copy(msg[5:], body)
	if _, err := w.Write(msg); err != nil {
		return err
	}
	return rc.Flush()
}

// errorDocument renders an error as the protocol's JSON error body.
func errorDocument(err error) []byte {
	b, _ := json.Marshal(map[string]string{"error": err.Error()})
	return b
}

// ---------------------------------------------------------------------------
// Shipper side
// ---------------------------------------------------------------------------

// streamConn is one live stream toward a follower: the uplink pipe feeding
// the request body and the downlink response reader. Only the owning
// link's run goroutine touches it.
type streamConn struct {
	pw     *io.PipeWriter
	body   io.ReadCloser
	br     *bufio.Reader
	cancel context.CancelFunc
}

func (sc *streamConn) close() {
	sc.cancel()
	sc.pw.Close()
	sc.body.Close()
}

// closeStream tears down the link's stream (if any); the next send redials.
func (l *link) closeStream() {
	if l.sc != nil {
		l.sc.close()
		l.sc = nil
	}
}

// probeStream checks that the follower serves the stream endpoint. The
// probe body is empty on purpose: a server refusing the route (404, 501,
// a proxy's 502) drains the request body before flushing its response, so
// probing with the real open-pipe request would deadlock — the server
// waiting for body EOF, the client waiting for the verdict. A zero-length
// POST drains instantly, and HandleStream treats it as an immediately
// closed uplink and answers 200.
func (l *link) probeStream(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.base+StreamPath, http.NoBody)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusNotFound, http.StatusMethodNotAllowed, http.StatusNotImplemented:
		return fmt.Errorf("follower %s does not serve %s (answered %d): it needs upgrading", l.base, StreamPath, resp.StatusCode)
	}
	return fmt.Errorf("stream probe: follower answered %d", resp.StatusCode)
}

// dialStream probes the endpoint, then opens the long-lived stream
// request. The response arrives as soon as the receiver commits its 200
// (before any frame flows); a deadline covers the dial so a server that
// stalls the response — e.g. one that was replaced by a non-streaming
// version after the probe and is now draining the open body — fails the
// attempt instead of wedging the link.
func (l *link) dialStream(ctx context.Context) (*streamConn, error) {
	if err := l.probeStream(ctx); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.base+StreamPath, pr)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	dialTimer := time.AfterFunc(frameTimeout, cancel)
	resp, err := http.DefaultClient.Do(req)
	dialTimer.Stop()
	if err != nil {
		cancel()
		pw.Close()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		pw.Close() // unblock the server's body drain before reading the verdict
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("stream: follower answered %d", resp.StatusCode)
	}
	return &streamConn{pw: pw, body: resp.Body, br: bufio.NewReader(resp.Body), cancel: cancel}, nil
}

// send ships one binary frame over the stream (dialing on first use) and
// reads its acknowledgement. It returns streamAckOK or streamAckConflict
// with the parsed ack; every other status comes back as an error carrying
// the follower's error document. Transport failures tear the connection
// down and report an error; the retry loop's next attempt redials, which is
// the reconnect-with-capped-backoff behavior — the backoff lives in run.
func (l *link) send(ctx context.Context, f mcsio.ReplFrame) (mcsio.ReplAckJSON, byte, error) {
	if h := l.s.shipSeconds.Load(); h != nil {
		start := time.Now()
		defer func() { h.Observe(time.Since(start)) }()
	}
	body, err := mcsio.EncodeReplFrameBinary(f)
	if err != nil {
		return mcsio.ReplAckJSON{}, 0, fmt.Errorf("encode %s frame: %w", f.Kind, err)
	}
	if l.sc == nil {
		sc, err := l.dialStream(ctx)
		if err != nil {
			return mcsio.ReplAckJSON{}, 0, err
		}
		l.sc = sc
	}
	sc := l.sc
	// Per-frame deadline: a wedged follower aborts the whole request,
	// failing the pending read below; the next attempt redials.
	timer := time.AfterFunc(frameTimeout, sc.cancel)
	defer timer.Stop()

	msg := make([]byte, 4+len(body))
	binary.LittleEndian.PutUint32(msg, uint32(len(body)))
	copy(msg[4:], body)
	if _, err := sc.pw.Write(msg); err != nil {
		l.closeStream()
		return mcsio.ReplAckJSON{}, 0, fmt.Errorf("stream write: %w", err)
	}
	var hdr [5]byte
	if _, err := io.ReadFull(sc.br, hdr[:]); err != nil {
		l.closeStream()
		return mcsio.ReplAckJSON{}, 0, fmt.Errorf("stream ack: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[1:5])
	if n > maxStreamAckBody {
		l.closeStream()
		return mcsio.ReplAckJSON{}, 0, fmt.Errorf("stream ack: %d-byte body", n)
	}
	ackBody := make([]byte, n)
	if _, err := io.ReadFull(sc.br, ackBody); err != nil {
		l.closeStream()
		return mcsio.ReplAckJSON{}, 0, fmt.Errorf("stream ack: %w", err)
	}
	status := hdr[0]
	if status != streamAckOK && status != streamAckConflict {
		return mcsio.ReplAckJSON{}, status, fmt.Errorf("%s frame for %q refused (ack status %d): %.200s", f.Kind, f.Tenant, status, ackBody)
	}
	ack, err := mcsio.DecodeReplAck(ackBody)
	if err != nil {
		return mcsio.ReplAckJSON{}, status, fmt.Errorf("unparseable ack: %.200s", ackBody)
	}
	if ack.Tenant != f.Tenant {
		return mcsio.ReplAckJSON{}, status, fmt.Errorf("ack names tenant %q, frame was %q", ack.Tenant, f.Tenant)
	}
	return ack, status, nil
}
