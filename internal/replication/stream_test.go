package replication

// Streaming-transport suite: every journal codec converges to
// bit-identical followers over the stream, a leader whose directory mixes
// codecs still ships its whole history, and a follower outage — refused
// dials or a stream cut mid-flight — is retried and redialed.

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"mcsched/internal/admission"
	"mcsched/internal/mcs"
	"mcsched/internal/mcsio"
)

// TestReplicationTransportCodecMatrix drives the failover-equivalence
// workload under each journal codec, on leader and follower alike: the
// follower must be bit-identical at every commit index, and the promoted
// follower must match a fresh recovery of the leader's journal.
func TestReplicationTransportCodecMatrix(t *testing.T) {
	for _, codec := range []mcsio.Codec{mcsio.CodecJSON, mcsio.CodecBinary} {
		t.Run(string(codec), func(t *testing.T) {
			t.Parallel()
			test := allTests()[0]
			lcfg := leaderConfig(t.TempDir(), 3)
			lcfg.JournalCodec = codec
			leader := admission.NewController(lcfg)
			if _, err := leader.Recover(); err != nil {
				t.Fatal(err)
			}
			fcfg := followerConfig(t.TempDir())
			fcfg.JournalCodec = codec
			fctrl := admission.NewController(fcfg)
			if _, err := fctrl.Recover(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { fctrl.Close() })
			srv := httptest.NewServer(NewReceiver(fctrl).Mux())
			t.Cleanup(srv.Close)
			ship := connect(t, leader, srv.URL)

			sys, err := leader.CreateSystem("t", 4, test)
			if err != nil {
				t.Fatal(err)
			}
			commits := 0
			driveReplicated(t, sys, test, 515, 2, 0, func(label string) {
				commits++
				flush(t, ship)
				if lfp, ffp := sys.Fingerprint(), fingerprintOf(fctrl, "t"); lfp != ffp {
					t.Fatalf("commit %d (%s): follower diverged:\nleader:\n%s\nfollower:\n%s",
						commits, label, lfp, ffp)
				}
			})
			if commits == 0 {
				t.Fatal("workload committed nothing")
			}
			flush(t, ship)
			leaderFP := sys.Fingerprint()

			// Kill the leader, promote, compare against a fresh recovery.
			ship.Stop()
			if err := leader.Close(); err != nil {
				t.Fatal(err)
			}
			promote(t, srv)
			rec := admission.NewController(lcfg)
			if _, err := rec.Recover(); err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			rsys, err := rec.System("t")
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprintOf(fctrl, "t"); got != rsys.Fingerprint() || got != leaderFP {
				t.Fatalf("promoted follower != fresh recovery:\nfollower:\n%s\nrecovered:\n%s", got, rsys.Fingerprint())
			}
		})
	}
}

// TestMixedCodecLeaderReplicates: a leader whose directory holds binary
// records (or a binary snapshot), restarted under the JSON journal codec,
// must still ship its whole history. Frames are binary whatever the journal
// codec, because only binary frames carry records of either codec.
func TestMixedCodecLeaderReplicates(t *testing.T) {
	for _, tc := range []struct {
		name      string
		snapEvery int
	}{
		{"records", -1},
		{"snapshot", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			open := func(codec mcsio.Codec) *admission.Controller {
				cfg := leaderConfig(dir, tc.snapEvery)
				cfg.JournalCodec = codec
				c := admission.NewController(cfg)
				if _, err := c.Recover(); err != nil {
					t.Fatal(err)
				}
				return c
			}
			first := open(mcsio.CodecBinary)
			sys, err := first.CreateSystem("t", 2, allTests()[0])
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				if _, err := sys.Admit(mcs.NewLC(i, 1, 1000)); err != nil {
					t.Fatal(err)
				}
			}
			if err := first.Close(); err != nil {
				t.Fatal(err)
			}

			// The daemon's default codec from here on: JSON records land on
			// top of the binary history.
			leader := open(mcsio.CodecJSON)
			defer leader.Close()
			if sys, err = leader.System("t"); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Admit(mcs.NewLC(8, 1, 1000)); err != nil {
				t.Fatal(err)
			}
			if tc.snapEvery > 0 {
				if snap, _, ok, err := sys.Journal().Snapshot(); err != nil || !ok || !mcsio.IsBinaryRecord(snap) {
					t.Fatalf("setup: want a binary snapshot (ok=%v, err=%v)", ok, err)
				}
			} else if recs, _, err := sys.Journal().ReadFrom(1, 1); err != nil || !mcsio.IsBinaryRecord(recs[0]) {
				t.Fatalf("setup: want a binary first record (%v)", err)
			}

			fctrl, recv, srv := newFollower(t, t.TempDir())
			ship := connect(t, leader, srv.URL)
			flush(t, ship)
			if got := fingerprintOf(fctrl, "t"); got != sys.Fingerprint() {
				t.Fatalf("follower diverged from the mixed-codec leader:\n%s\n%s", sys.Fingerprint(), got)
			}
			if tc.snapEvery > 0 && recv.Applied().Snapshots == 0 {
				t.Fatal("catch-up used no snapshot frame despite compaction")
			}
		})
	}
}

// outageRig wires a leader to a follower behind a proxy that refuses the
// first refusals stream dials with a 502. admit commits tasks from..to on
// the leader, flushes, and demands that the follower converged.
func outageRig(t *testing.T, refusals int64) (ship *Shipper, proxy *httptest.Server, left *atomic.Int64, admit func(from, to int)) {
	t.Helper()
	leader := admission.NewController(leaderConfig(t.TempDir(), -1))
	if _, err := leader.Recover(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leader.Close() })
	fctrl, recv, _ := newFollower(t, t.TempDir())
	mux := recv.Mux()
	left = new(atomic.Int64)
	left.Store(refusals)
	proxy = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == StreamPath && left.Load() > 0 {
			left.Add(-1)
			http.Error(w, "injected outage", http.StatusBadGateway)
			return
		}
		mux.ServeHTTP(w, r)
	}))
	// Registered before connect: cleanups run LIFO, so the shipper (and its
	// live stream) stops before the server waits out open connections.
	t.Cleanup(proxy.Close)

	ship = connect(t, leader, proxy.URL)
	sys, err := leader.CreateSystem("t", 2, allTests()[0])
	if err != nil {
		t.Fatal(err)
	}
	admit = func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if _, err := sys.Admit(mcs.NewLC(i, 1, 1000)); err != nil {
				t.Fatal(err)
			}
		}
		flush(t, ship)
		if got := fingerprintOf(fctrl, "t"); got != sys.Fingerprint() {
			t.Fatalf("follower diverged after admits %d..%d:\n%s\n%s", from, to, sys.Fingerprint(), got)
		}
	}
	return ship, proxy, left, admit
}

// TestStreamRedialsAfterDialFailure: refused dials (here injected 502s)
// retry with backoff and redial the stream, and the follower converges with
// the failed dials counted as send errors.
func TestStreamRedialsAfterDialFailure(t *testing.T) {
	ship, _, left, admit := outageRig(t, 2)
	admit(0, 4)
	if left.Load() != 0 {
		t.Fatalf("outage not exercised: %d injected failures left", left.Load())
	}
	if st := ship.Status(); len(st) != 1 || st[0].SendErrors == 0 {
		t.Fatalf("status did not count the failed dials: %+v", st)
	}
}

// TestShipperSurvivesFollowerOutage: a live stream cut between frames fails
// the next frame, the retry redials, and the follower converges with the
// failure counted and no lag left.
func TestShipperSurvivesFollowerOutage(t *testing.T) {
	ship, proxy, _, admit := outageRig(t, 0)
	admit(0, 4)
	before := ship.Status()[0].SendErrors
	proxy.CloseClientConnections()
	admit(4, 8)
	st := ship.Status()
	if len(st) != 1 || st[0].SendErrors <= before {
		t.Fatalf("the cut stream cost no send error: %+v", st)
	}
	if st[0].Tenants["t"].Lag != 0 {
		t.Fatalf("lag not zero after convergence: %+v", st[0].Tenants)
	}
}
