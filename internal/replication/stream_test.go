package replication

// Streaming-transport suite: a leader and follower converge to
// bit-identical state over the stream, a leader reopened on a legacy JSON
// directory still ships its whole history, and a follower outage — refused
// dials or a stream cut mid-flight — is retried and redialed.

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"

	"mcsched/internal/admission"
	"mcsched/internal/core"
	"mcsched/internal/journal"
	"mcsched/internal/journal/journaltest"
	"mcsched/internal/mcs"
	"mcsched/internal/mcsio"
)

// TestReplicationTransportCodecMatrix drives the failover-equivalence
// workload over the stream: the follower must be bit-identical at every
// commit index, and the promoted follower must match a fresh recovery of
// the leader's journal. The subtest is named after the codec both journals
// write, which is always binary; legacy JSON histories are shipped by
// TestMixedCodecLeaderReplicates.
func TestReplicationTransportCodecMatrix(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		test := core.Tests()[0]
		lcfg := leaderConfig(t.TempDir(), 3)
		leader := admission.NewController(lcfg)
		if _, err := leader.Recover(); err != nil {
			t.Fatal(err)
		}
		fctrl := admission.NewController(followerConfig(t.TempDir()))
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
		promote(t, fctrl)
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

// TestMixedCodecLeaderReplicates: a binary leader reopened on a legacy JSON
// directory ships its whole history — the JSON records as they are or, once
// they are compacted, the JSON snapshot covering them — followed by the
// binary records it appends. Frames are binary, because only binary frames
// carry records of either codec.
func TestMixedCodecLeaderReplicates(t *testing.T) {
	for _, tc := range []struct {
		name     string
		snapshot bool
	}{
		{"records", false},
		{"snapshot", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The legacy directory holds a binary leader's history re-encoded
			// as JSON, and in the snapshot case a JSON snapshot covering it.
			src, recs := buildLeaderHistory(t, 8)
			var snap *mcsio.SnapshotJSON
			if tc.snapshot {
				if err := src.SnapshotSystem("t"); err != nil {
					t.Fatal(err)
				}
				ssys, err := src.System("t")
				if err != nil {
					t.Fatal(err)
				}
				payload, _, _, err := ssys.Journal().Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				s, _, err := mcsio.DecodeSnapshot(payload)
				if err != nil {
					t.Fatal(err)
				}
				snap = &s
			}
			dir := t.TempDir()
			if _, err := journaltest.WriteJSON(filepath.Join(dir, journal.EncodeTenantID("t")), decodeEvents(t, recs), snap); err != nil {
				t.Fatal(err)
			}

			leader := admission.NewController(leaderConfig(dir, -1))
			if _, err := leader.Recover(); err != nil {
				t.Fatal(err)
			}
			defer leader.Close()
			sys, err := leader.System("t")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Admit(mcs.NewLC(8, 1, 1000)); err != nil {
				t.Fatal(err)
			}
			if tc.snapshot {
				if snap, _, ok, err := sys.Journal().Snapshot(); err != nil || !ok || mcsio.IsBinaryRecord(snap) {
					t.Fatalf("setup: want a JSON snapshot (ok=%v, err=%v)", ok, err)
				}
			} else if recs, _, err := sys.Journal().ReadFrom(1, 100); err != nil ||
				mcsio.IsBinaryRecord(recs[0]) || !mcsio.IsBinaryRecord(recs[len(recs)-1]) {
				t.Fatalf("setup: want JSON records followed by a binary one (%v)", err)
			}

			fctrl, recv, srv := newFollower(t, t.TempDir())
			ship := connect(t, leader, srv.URL)
			flush(t, ship)
			if got := fingerprintOf(fctrl, "t"); got != sys.Fingerprint() {
				t.Fatalf("follower diverged from the legacy-directory leader:\n%s\n%s", sys.Fingerprint(), got)
			}
			if tc.snapshot && recv.Applied().Snapshots == 0 {
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
	sys, err := leader.CreateSystem("t", 2, core.Tests()[0])
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
