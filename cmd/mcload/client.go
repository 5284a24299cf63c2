package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// clients is the fixed connection count: the reference box has 2 cores, the
// daemon needs its share of them, and every tenant is pinned to one
// connection so its ops arrive in generated order.
const clients = 2

// opTimeout bounds one request; a request that exceeds it is a failure and
// its connection is replaced.
const opTimeout = 2 * time.Second

// conn is one keep-alive HTTP/1.1 connection speaking just enough of the
// protocol for mcschedd's replies, over a blocking socket driven by raw
// system calls. A client goroutine that owns its OS thread and blocks in
// read(2) is woken by the kernel the moment the reply arrives, with no trip
// through the Go network poller and none of net/http's per-connection
// goroutines: the loader's share of a request is one write and one read, so
// on a 2-core box the numbers describe the daemon rather than the load
// generator. With a net/http client in its place the loader took half the
// box and every latency doubled; README.md, "Why the loader is not
// net/http", has the measurements.
type conn struct {
	addr string
	fd   int // -1 when closed
	r    *bufio.Reader
	body []byte
}

// sock adapts a blocking socket to io.Reader for the buffered reader.
type sock int

func (s sock) Read(p []byte) (int, error) {
	for {
		n, err := syscall.Read(int(s), p)
		switch {
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			return 0, fmt.Errorf("read: no reply within %v", opTimeout)
		case err != nil:
			return 0, err
		case n == 0:
			return 0, io.EOF
		}
		return n, nil
	}
}

func (s sock) writeAll(p []byte) error {
	for len(p) > 0 {
		n, err := syscall.Write(int(s), p)
		switch {
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			return fmt.Errorf("write: blocked for %v", opTimeout)
		case err != nil:
			return err
		}
		p = p[n:]
	}
	return nil
}

func dial(addr string) (*conn, error) {
	tcp, err := net.ResolveTCPAddr("tcp4", addr)
	if err != nil {
		return nil, err
	}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, err
	}
	sa := &syscall.SockaddrInet4{Port: tcp.Port}
	copy(sa.Addr[:], tcp.IP.To4())
	// The timeouts turn a hung daemon into a failed request instead of a
	// hung benchmark.
	tv := syscall.NsecToTimeval(int64(opTimeout))
	for _, step := range []func() error{
		func() error { return syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv) },
		func() error { return syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_SNDTIMEO, &tv) },
		func() error { return syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1) },
		func() error { return connect(fd, sa) },
	} {
		if err := step(); err != nil {
			syscall.Close(fd)
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
	}
	return &conn{addr: addr, fd: fd, r: bufio.NewReaderSize(sock(fd), 16<<10)}, nil
}

// connect is connect(2) on a blocking socket, carried through the signals
// the Go runtime sends its own threads: an interrupted connect keeps going
// in the kernel, and asking again reports how it ended.
func connect(fd int, sa syscall.Sockaddr) error {
	for {
		switch err := syscall.Connect(fd, sa); err {
		case nil, syscall.EISCONN:
			return nil
		case syscall.EINTR:
		case syscall.EALREADY:
			time.Sleep(50 * time.Microsecond)
		default:
			return err
		}
	}
}

func (c *conn) close() {
	if c.fd >= 0 {
		syscall.Close(c.fd)
		c.fd = -1
	}
}

// redial replaces a connection whose protocol state is unknown.
func (c *conn) redial() error {
	c.close()
	n, err := dial(c.addr)
	if err != nil {
		return err
	}
	c.fd, c.r = n.fd, n.r
	return nil
}

// do sends one pre-built request and reads the reply. The returned body
// aliases the connection's buffer and is valid until the next call.
func (c *conn) do(req []byte) (status int, body []byte, err error) {
	if c.fd < 0 {
		if err := c.redial(); err != nil {
			return 0, nil, err
		}
	}
	if err := sock(c.fd).writeAll(req); err != nil {
		c.close()
		return 0, nil, err
	}
	status, body, err = c.readResponse()
	if err != nil {
		c.close()
	}
	return status, body, err
}

func (c *conn) readResponse() (int, []byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err = c.r.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		switch {
		case hasPrefixFold(line, "content-length:"):
			length, err = strconv.Atoi(string(bytes.TrimSpace(line[len("content-length:"):])))
			if err != nil {
				return 0, nil, fmt.Errorf("malformed content-length %q", line)
			}
		case hasPrefixFold(line, "transfer-encoding:"):
			chunked = bytes.Contains(bytes.ToLower(line), []byte("chunked"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			line, err = c.r.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			n, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 32)
			if err != nil {
				return 0, nil, fmt.Errorf("malformed chunk size %q", line)
			}
			if err := c.readBody(int(n) + 2); err != nil { // chunk + CRLF
				return 0, nil, err
			}
			c.body = c.body[:len(c.body)-2]
			if n == 0 {
				break
			}
		}
	case length > 0:
		if err := c.readBody(length); err != nil {
			return 0, nil, err
		}
	case length < 0 && status != 204 && status != 304:
		return 0, nil, fmt.Errorf("reply without a length")
	}
	return status, c.body, nil
}

// readBody appends exactly n bytes of the stream to c.body.
func (c *conn) readBody(n int) error {
	at := len(c.body)
	if cap(c.body) < at+n {
		grown := make([]byte, at, 2*(at+n))
		copy(grown, c.body)
		c.body = grown
	}
	c.body = c.body[:at+n]
	_, err := io.ReadFull(c.r, c.body[at:])
	return err
}

func hasPrefixFold(line []byte, prefix string) bool {
	return len(line) >= len(prefix) && bytes.EqualFold(line[:len(prefix)], []byte(prefix))
}

// Reply bodies, as cmd/mcschedd renders them. Only the fields the shadow
// predicts are declared.
type decideReply struct {
	Admitted *bool `json:"admitted"`
	// Core answers a single-task request, Results a batch.
	Core    *int `json:"core"`
	Results []struct {
		Core int `json:"core"`
	} `json:"results"`
}

type releaseReply struct {
	Released *int `json:"released"`
}

type getReply struct {
	Tasks *int `json:"tasks"`
}

// verify checks one reply against what the shadow controller decided. An
// empty string is a pass; anything else names the first disagreement. The
// reply is decoded in full, after the latency has been taken.
func verify(o *op, status int, body []byte) string {
	if status != 200 {
		return fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(body))
	}
	switch o.kind {
	case opAdmit, opProbe:
		var reply decideReply
		if err := json.Unmarshal(body, &reply); err != nil {
			return "malformed reply: " + err.Error()
		}
		if reply.Admitted == nil {
			return "reply without admitted"
		}
		if *reply.Admitted != o.admitted {
			return fmt.Sprintf("admitted=%v, shadow decided %v", *reply.Admitted, o.admitted)
		}
		var cores []int
		if reply.Core != nil {
			cores = []int{*reply.Core}
		}
		for _, r := range reply.Results {
			cores = append(cores, r.Core)
		}
		if len(cores) != len(o.cores) {
			return fmt.Sprintf("reply carries %d cores, shadow placed %d", len(cores), len(o.cores))
		}
		for k, want := range o.cores {
			if cores[k] != want {
				return fmt.Sprintf("task %d placed on core %d, shadow chose %d", k, cores[k], want)
			}
		}
	case opRelease:
		var reply releaseReply
		if err := json.Unmarshal(body, &reply); err != nil || reply.Released == nil || *reply.Released != o.count {
			return fmt.Sprintf("reply %s, shadow released %d", bytes.TrimSpace(body), o.count)
		}
	case opGet:
		var reply getReply
		if err := json.Unmarshal(body, &reply); err != nil || reply.Tasks == nil || *reply.Tasks != o.count {
			return fmt.Sprintf("tasks missing or wrong, shadow holds %d", o.count)
		}
	}
	return ""
}

// requestLine is the first line of the op's request, for error messages.
func (o *op) requestLine() string {
	line, _, _ := bytes.Cut(o.req, []byte("\r\n"))
	return string(line)
}

// phaseRec is what one client goroutine records during one phase.
type phaseRec struct {
	lat  [numKinds]latencies
	late latencies // wake-up time − due time of an idle client, open loop only
	// rate is completed, verified ops per second; merging adds the clients'
	// rates.
	rate float64

	attempted, failed, sloMiss int
	status4xx, status5xx       int
	firstFail                  string
}

func (p *phaseRec) merge(o *phaseRec) {
	for k := range p.lat {
		p.lat[k].merge(&o.lat[k])
	}
	p.late.merge(&o.late)
	p.rate += o.rate
	p.attempted += o.attempted
	p.failed += o.failed
	p.sloMiss += o.sloMiss
	p.status4xx += o.status4xx
	p.status5xx += o.status5xx
	if p.firstFail == "" {
		p.firstFail = o.firstFail
	}
}

// class merges the latencies of the picked kinds.
func (p *phaseRec) class(pick func(opKind) bool) *latencies {
	var l latencies
	for k := opKind(0); k < numKinds; k++ {
		if pick(k) {
			l.merge(&p.lat[k])
		}
	}
	return &l
}

// send issues one op and books the outcome. from is the instant latency is
// charged from: the op's due time in an open loop, the send time in a
// closed one.
func (p *phaseRec) send(c *conn, o *op, from time.Time, limit time.Duration) {
	status, body, err := c.do(o.req)
	lat := time.Since(from)
	p.attempted++
	var why string
	switch {
	case err != nil:
		why = err.Error()
	default:
		if status >= 500 {
			p.status5xx++
		} else if status >= 400 {
			p.status4xx++
		}
		why = verify(o, status, body)
	}
	if why != "" {
		p.failed++
		if p.firstFail == "" {
			p.firstFail = fmt.Sprintf("%s: %s", o.requestLine(), why)
		}
	} else {
		p.lat[o.kind].add(lat)
	}
	if limit > 0 && (why != "" || lat > limit) {
		p.sloMiss++
	}
}

// openLoop sends ops[i] at start+due[i] whether or not earlier replies were
// quick: a stall makes the following requests late, and because latency is
// charged from the due time, that wait is counted instead of hidden.
func openLoop(c *conn, ops []*op, due []time.Duration, start time.Time, limit time.Duration) *phaseRec {
	// The Go runtime's timers wake an idle process at millisecond
	// granularity, far too coarse for inter-arrival gaps of a few hundred
	// microseconds, and spinning would take a core from the daemon. A raw
	// nanosleep on a thread with minimal timer slack is precise to tens of
	// microseconds and burns nothing.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000 /* ns */, 0)
	p := &phaseRec{}
	for i, o := range ops {
		at := start.Add(due[i])
		if d := time.Until(at); d > 0 {
			for ; d > 0; d = time.Until(at) { // a signal cuts nanosleep short
				ts := syscall.NsecToTimespec(int64(d))
				syscall.Nanosleep(&ts, nil)
			}
			// Only a client that was waiting for the due time can be late
			// through the generator's own fault; one still busy with the
			// previous reply is late through the daemon's, and that wait is
			// in the latency.
			p.late.add(time.Since(at))
		}
		p.send(c, o, at, limit)
	}
	return p
}

// prSetTimerSlack is PR_SET_TIMERSLACK from <linux/prctl.h>.
const prSetTimerSlack = 29

// closedLoop sends the ops back to back: a caller that waits for each reply.
func closedLoop(c *conn, ops []*op) *phaseRec {
	p := &phaseRec{}
	t0 := time.Now()
	for _, o := range ops {
		p.send(c, o, time.Now(), 0)
	}
	// Each client reports its own rate: the clients do not finish together,
	// and dividing the total by the slower one's time would charge the
	// faster client's idle tail to the daemon.
	p.rate = float64(p.attempted-p.failed) / time.Since(t0).Seconds()
	return p
}
