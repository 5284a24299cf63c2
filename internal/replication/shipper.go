package replication

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcsched/internal/admission"
	"mcsched/internal/journal"
	"mcsched/internal/mcsio"
	"mcsched/internal/obs"
)

// Wire paths of the replication protocol, relative to a follower's base
// URL. The mcschedd daemon mounts them on its service mux; Receiver.Mux
// builds a standalone handler with the same shape.
const (
	StreamPath = "/v1/replication/stream"
	StatusPath = "/v1/replication"
)

// Shipping parameters. A frame's summed record payload stays within
// batchBytes, but a single record always ships (the receiver's body cap
// exceeds the journal's per-record limit), so the budget bounds frame size
// without ever wedging a link on one large batch event. Failed sends back
// off from retryMin, doubling up to retryMax. frameTimeout bounds the
// status fetch, the stream probe and dial, and each frame's write+ack
// round trip.
const (
	defaultBatchRecords = 256
	batchBytes          = 4 << 20
	retryMin            = 50 * time.Millisecond
	retryMax            = 2 * time.Second
	frameTimeout        = 10 * time.Second
)

// client issues the short requests: the status fetch and the stream probe.
// The long-lived stream request goes through http.DefaultClient instead,
// because a whole-request timeout would kill it; frameTimeout bounds its
// dial and each frame there.
var client = &http.Client{Timeout: frameTimeout}

// ShipperConfig parameterizes a Shipper.
type ShipperConfig struct {
	// BatchRecords caps the records per frame. 0 selects 256; the wire
	// layer refuses anything over mcsio.MaxReplBatch.
	BatchRecords int
	// Logf, when set, receives one line per send failure.
	Logf func(format string, args ...any)
}

// Shipper is the leader side of journal replication: one goroutine per
// follower drains a FIFO of dirty tenants, reading committed records
// through each tenant journal's ReadFrom cursor and streaming them as binary
// wire frames. Register its Hooks on the controller, then Start it.
type Shipper struct {
	ctrl  *admission.Controller
	cfg   ShipperConfig
	links []*link

	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	started atomic.Bool

	// shipSeconds late-binds the frame-send latency histogram installed by
	// RegisterMetrics; a nil load means sends are not timed.
	shipSeconds atomic.Pointer[obs.Histogram]
}

// work is one queued unit for a link: ship a tenant's pending records, or
// propagate its removal.
type work struct {
	tenant string
	remove bool
}

// link is the shipping state toward one follower.
type link struct {
	base string
	s    *Shipper

	mu      sync.Mutex
	queue   []work
	queued  map[string]bool   // tenant has pending record-work in queue
	cursors map[string]uint64 // next sequence to ship, per tenant
	primed  bool              // cursors initialized from the follower's status
	lastErr string
	busy    bool

	wake chan struct{}

	// sc is the live stream connection, nil between dials. Only the link's
	// run goroutine touches it.
	sc *streamConn

	shippedRecords, shippedSnapshots, shippedRemoves, sendErrors atomic.Uint64
}

// NewShipper builds a shipper from a journaled leader controller and the
// followers' base URLs (e.g. "http://standby:8080").
func NewShipper(ctrl *admission.Controller, followers []string, cfg ShipperConfig) (*Shipper, error) {
	if !ctrl.Journaled() {
		return nil, errors.New("replication: shipper requires a journaled controller (data directory)")
	}
	if len(followers) == 0 {
		return nil, errors.New("replication: no followers")
	}
	if cfg.BatchRecords <= 0 || cfg.BatchRecords > mcsio.MaxReplBatch {
		cfg.BatchRecords = defaultBatchRecords
	}
	s := &Shipper{ctrl: ctrl, cfg: cfg}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	for _, f := range followers {
		u, err := url.Parse(f)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("replication: follower URL %q: must be absolute (http://host:port)", f)
		}
		s.links = append(s.links, &link{
			base:    strings.TrimRight(f, "/"),
			s:       s,
			queued:  make(map[string]bool),
			cursors: make(map[string]uint64),
			wake:    make(chan struct{}, 1),
		})
	}
	return s, nil
}

// Hooks returns the commit observers to register on the controller
// (Controller.SetHooks) so committed appends wake the shipper.
func (s *Shipper) Hooks() admission.Hooks {
	return admission.Hooks{
		Committed: func(tenant string, seq uint64) { s.Committed(tenant, seq) },
		Removed:   func(tenant string) { s.Removed(tenant) },
	}
}

// Committed marks a tenant dirty on every link. It is non-blocking and
// safe from the append path (it runs under the tenant lock).
func (s *Shipper) Committed(tenant string, _ uint64) {
	for _, l := range s.links {
		l.enqueue(work{tenant: tenant})
	}
}

// Removed queues a tenant-removal frame on every link.
func (s *Shipper) Removed(tenant string) {
	for _, l := range s.links {
		l.enqueue(work{tenant: tenant, remove: true})
	}
}

// Start primes every link with the controller's current tenants (so
// history committed before the shipper existed — including recovered
// state — ships too) and launches the per-follower loops.
func (s *Shipper) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	for _, id := range s.ctrl.SystemIDs() {
		s.Committed(id, 0)
	}
	for _, l := range s.links {
		s.wg.Add(1)
		go func(l *link) {
			defer s.wg.Done()
			l.run(s.ctx)
		}(l)
	}
}

// Stop cancels the loops and waits for them. Records committed but not yet
// shipped stay in the leader journal; a restarted shipper re-primes from
// the follower's status document.
func (s *Shipper) Stop() {
	s.cancel()
	s.wg.Wait()
}

// Flush blocks until every link is idle and every journaled tenant's
// cursor has reached the leader's tail, or ctx expires. It is the
// graceful-shutdown barrier and the test synchronization point. Polling
// backs off exponentially (100µs up to 5ms), so the common
// already-caught-up case returns in microseconds while a long drain
// against a slow follower does not spin on the tenant locks.
func (s *Shipper) Flush(ctx context.Context) error {
	delay := 100 * time.Microsecond
	for {
		if s.caughtUp() {
			return nil
		}
		select {
		case <-ctx.Done():
			var errs []string
			for _, l := range s.links {
				l.mu.Lock()
				if l.lastErr != "" {
					errs = append(errs, fmt.Sprintf("%s: %s", l.base, l.lastErr))
				}
				l.mu.Unlock()
			}
			if len(errs) > 0 {
				return fmt.Errorf("replication: flush: %w (%s)", ctx.Err(), strings.Join(errs, "; "))
			}
			return fmt.Errorf("replication: flush: %w", ctx.Err())
		case <-time.After(delay):
			if delay < 5*time.Millisecond {
				delay *= 2
			}
		}
	}
}

func (s *Shipper) caughtUp() bool {
	progress := s.ctrl.ReplicationProgress()
	for _, l := range s.links {
		l.mu.Lock()
		idle := len(l.queue) == 0 && !l.busy
		if idle {
			for id, next := range progress {
				if l.cursors[id] < next {
					idle = false
					break
				}
			}
		}
		l.mu.Unlock()
		if !idle {
			return false
		}
	}
	return true
}

// TenantLag is one tenant's shipping position toward one follower.
type TenantLag struct {
	// Acked is the highest sequence the follower has acknowledged
	// applying; LeaderNext is the leader's next append position. Lag is
	// their distance in records (0 = fully caught up).
	Acked      uint64 `json:"acked"`
	LeaderNext uint64 `json:"leader_next"`
	Lag        uint64 `json:"lag"`
}

// FollowerStatus is the shipper's view of one follower.
type FollowerStatus struct {
	URL              string               `json:"url"`
	Pending          int                  `json:"pending"`
	ShippedRecords   uint64               `json:"shipped_records"`
	ShippedSnapshots uint64               `json:"shipped_snapshots"`
	ShippedRemoves   uint64               `json:"shipped_removes,omitempty"`
	SendErrors       uint64               `json:"send_errors,omitempty"`
	LastError        string               `json:"last_error,omitempty"`
	Tenants          map[string]TenantLag `json:"tenants"`
}

// Status reports per-follower, per-tenant replication lag.
func (s *Shipper) Status() []FollowerStatus {
	progress := s.ctrl.ReplicationProgress()
	out := make([]FollowerStatus, 0, len(s.links))
	for _, l := range s.links {
		l.mu.Lock()
		fs := FollowerStatus{
			URL:              l.base,
			Pending:          len(l.queue),
			ShippedRecords:   l.shippedRecords.Load(),
			ShippedSnapshots: l.shippedSnapshots.Load(),
			ShippedRemoves:   l.shippedRemoves.Load(),
			SendErrors:       l.sendErrors.Load(),
			LastError:        l.lastErr,
			Tenants:          make(map[string]TenantLag, len(progress)),
		}
		for id, next := range progress {
			cursor := l.cursors[id]
			lag := next - 1 // nothing acked yet: the whole history is owed
			if cursor > 0 {
				if cursor > next {
					cursor = next // follower ahead of a restarted leader's view
				}
				lag = next - cursor
			}
			acked := uint64(0)
			if cursor > 0 {
				acked = cursor - 1
			}
			fs.Tenants[id] = TenantLag{Acked: acked, LeaderNext: next, Lag: lag}
		}
		l.mu.Unlock()
		out = append(out, fs)
	}
	return out
}

// ---------------------------------------------------------------------------
// Per-follower loop
// ---------------------------------------------------------------------------

func (l *link) enqueue(w work) {
	l.mu.Lock()
	if w.remove {
		l.queue = append(l.queue, w)
		// Clear the record-work dedup flag: commits of a tenant recreated
		// under the same ID must enqueue fresh record-work AFTER this
		// removal, not be swallowed by a stale pre-removal item.
		delete(l.queued, w.tenant)
	} else if !l.queued[w.tenant] {
		l.queue = append(l.queue, w)
		l.queued[w.tenant] = true
	}
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// pop takes the head work item and marks the link busy; requeue puts a
// failed item back at the front.
func (l *link) pop() (work, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.queue) == 0 {
		return work{}, false
	}
	w := l.queue[0]
	l.queue = l.queue[1:]
	if !w.remove {
		delete(l.queued, w.tenant)
	}
	l.busy = true
	return w, true
}

func (l *link) requeue(w work) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.queue = append([]work{w}, l.queue...)
	if !w.remove {
		l.queued[w.tenant] = true
	}
}

func (l *link) setIdle(errText string) {
	l.mu.Lock()
	l.busy = false
	l.lastErr = errText
	l.mu.Unlock()
}

func (l *link) run(ctx context.Context) {
	defer l.closeStream()
	backoff := retryMin
	for {
		w, ok := l.pop()
		if !ok {
			select {
			case <-ctx.Done():
				return
			case <-l.wake:
				continue
			}
		}
		err := l.process(ctx, w)
		if err == nil {
			l.setIdle("")
			backoff = retryMin
			continue
		}
		if ctx.Err() != nil {
			l.setIdle(err.Error())
			return
		}
		// Failed sends retry forever with capped exponential backoff: a
		// follower outage must not drop records, and a fail-closed
		// rejection stays visible through lastErr until an operator acts.
		l.sendErrors.Add(1)
		l.requeue(w)
		l.setIdle(err.Error())
		if logf := l.s.cfg.Logf; logf != nil {
			logf("replication: %s: %v", l.base, err)
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		backoff = min(2*backoff, retryMax)
	}
}

// process ships one work item to completion: all pending records of a
// tenant (looping batch by batch, falling back to a snapshot when the
// cursor is behind the leader's truncation horizon), or one removal.
func (l *link) process(ctx context.Context, w work) error {
	if w.remove {
		_, status, err := l.send(ctx, mcsio.ReplFrameJSON{
			Kind: mcsio.ReplRemove, Tenant: w.tenant,
		})
		if err != nil {
			return err
		}
		if status != streamAckOK {
			return fmt.Errorf("remove %q: follower answered a conflict", w.tenant)
		}
		l.shippedRemoves.Add(1)
		l.mu.Lock()
		delete(l.cursors, w.tenant)
		l.mu.Unlock()
		return nil
	}

	for {
		sys, err := l.s.ctrl.System(w.tenant)
		if err != nil {
			return nil // tenant gone; its removal frame follows in the queue
		}
		lg := sys.Journal()
		if lg == nil {
			return nil
		}
		cursor := l.cursor(ctx, w.tenant)
		leaderNext := lg.NextSeq()
		if cursor >= leaderNext {
			return nil // caught up
		}
		recs, _, err := lg.ReadFrom(cursor, l.s.cfg.BatchRecords)
		switch {
		case errors.Is(err, journal.ErrCompacted):
			if err := l.shipSnapshot(ctx, w.tenant, lg); err != nil {
				return err
			}
			continue
		case err != nil:
			return fmt.Errorf("read %q from %d: %w", w.tenant, cursor, err)
		case len(recs) == 0:
			return nil
		}
		// Enforce the byte budget: a batch of large records (journal
		// payloads can approach the 16 MiB record limit) must not exceed
		// what the receiver's body cap accepts. At least one record always
		// ships, so progress is guaranteed.
		total := 0
		cut := len(recs)
		for i, r := range recs {
			if i > 0 && total+len(r) > batchBytes {
				cut = i
				break
			}
			total += len(r)
		}
		recs = recs[:cut]
		raw := make([]json.RawMessage, len(recs))
		for i, r := range recs {
			raw[i] = r
		}
		ack, status, err := l.send(ctx, mcsio.ReplFrameJSON{
			Kind: mcsio.ReplRecords, Tenant: w.tenant, First: cursor, Records: raw,
		})
		if err != nil {
			return err
		}
		if status == streamAckOK {
			l.shippedRecords.Add(uint64(len(recs)))
		}
		l.setCursor(w.tenant, ack.Next) // after a conflict: resync and retry from there
	}
}

// shipSnapshot transfers the leader's latest snapshot for catch-up.
func (l *link) shipSnapshot(ctx context.Context, tenant string, lg *journal.Log) error {
	payload, seq, ok, err := lg.Snapshot()
	if err != nil {
		return fmt.Errorf("snapshot of %q: %w", tenant, err)
	}
	if !ok {
		return fmt.Errorf("snapshot of %q: compacted journal without snapshot", tenant)
	}
	ack, status, err := l.send(ctx, mcsio.ReplFrameJSON{
		Kind: mcsio.ReplSnapshot, Tenant: tenant, Seq: seq, Snapshot: payload,
	})
	if err != nil {
		return err
	}
	if status != streamAckOK {
		return fmt.Errorf("snapshot of %q: follower answered a conflict", tenant)
	}
	l.shippedSnapshots.Add(1)
	l.setCursor(tenant, ack.Next)
	return nil
}

// cursor returns the next sequence to ship for a tenant, priming the
// link's cursors from the follower's status document on first use. Priming
// is best effort: without it every cursor starts at 1 and idempotent
// redelivery converges anyway.
func (l *link) cursor(ctx context.Context, tenant string) uint64 {
	l.mu.Lock()
	primed, cur := l.primed, l.cursors[tenant]
	l.mu.Unlock()
	if cur > 0 {
		return cur
	}
	if !primed {
		if st, err := l.fetchStatus(ctx); err == nil {
			l.mu.Lock()
			l.primed = true
			for id, next := range st.Tenants {
				if l.cursors[id] == 0 {
					l.cursors[id] = next
				}
			}
			cur = l.cursors[tenant]
			l.mu.Unlock()
			if cur > 0 {
				return cur
			}
		}
	}
	l.setCursor(tenant, 1)
	return 1
}

func (l *link) setCursor(tenant string, next uint64) {
	l.mu.Lock()
	l.cursors[tenant] = next
	l.mu.Unlock()
}

// fetchStatus GETs the follower's position document.
func (l *link) fetchStatus(ctx context.Context) (mcsio.ReplStatusJSON, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.base+StatusPath, nil)
	if err != nil {
		return mcsio.ReplStatusJSON{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return mcsio.ReplStatusJSON{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return mcsio.ReplStatusJSON{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return mcsio.ReplStatusJSON{}, fmt.Errorf("status: follower answered %d", resp.StatusCode)
	}
	return mcsio.DecodeReplStatus(b)
}
