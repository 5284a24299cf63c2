package replication

// Replication-lag benchmarks: what one committed transition costs end to
// end (leader decide → journal append → ship over HTTP → follower verify →
// follower append → ack), what the follower-side apply costs on its own,
// and what the commit hook adds to the leader's admit hot path when no
// follower is attached. Run via `go test -bench Replication -benchmem
// ./internal/replication/`.

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"mcsched/internal/admission"
	"mcsched/internal/mcs"
	"mcsched/internal/mcsio"
)

func benchLeader(b *testing.B, dir string, codec mcsio.Codec) *admission.Controller {
	b.Helper()
	cfg := admission.DefaultConfig()
	cfg.DataDir = dir
	cfg.SnapshotEvery = -1
	cfg.Tests = resolveTest
	cfg.JournalCodec = codec
	ctrl := admission.NewController(cfg)
	if _, err := ctrl.Recover(); err != nil {
		b.Fatal(err)
	}
	return ctrl
}

func benchFollower(b *testing.B, dir string) (*admission.Controller, *httptest.Server) {
	b.Helper()
	cfg := admission.DefaultConfig()
	cfg.DataDir = dir
	cfg.SnapshotEvery = -1
	cfg.Tests = resolveTest
	cfg.Follower = true
	ctrl := admission.NewController(cfg)
	if _, err := ctrl.Recover(); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(NewReceiver(ctrl).Mux())
	b.Cleanup(srv.Close)
	b.Cleanup(func() { ctrl.Close() })
	return ctrl, srv
}

func benchFlush(b *testing.B, ship *Shipper) {
	b.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ship.Flush(ctx); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkReplicationLagSingle measures one admit's full replication
// round trip: the flush after every admit makes ns/op the per-decision
// replication lag (leader commit through follower ack).
func BenchmarkReplicationLagSingle(b *testing.B) {
	leader := benchLeader(b, b.TempDir(), mcsio.CodecJSON)
	defer leader.Close()
	_, srv := benchFollower(b, b.TempDir())
	ship, err := NewShipper(leader, []string{srv.URL}, ShipperConfig{})
	if err != nil {
		b.Fatal(err)
	}
	leader.SetHooks(ship.Hooks())
	ship.Start()
	defer ship.Stop()

	sys, err := leader.CreateSystem("bench", 8, allTests()[0])
	if err != nil {
		b.Fatal(err)
	}
	benchFlush(b, ship)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Admit(mcs.NewLC(i, 1, 1_000_000)); err != nil {
			b.Fatal(err)
		}
		benchFlush(b, ship)
		if (i+1)%64 == 0 {
			// Keep the resident set bounded; releases replicate too.
			ids := make([]int, 0, 64)
			for j := i - 63; j <= i; j++ {
				ids = append(ids, j)
			}
			if _, err := sys.Release(ids...); err != nil {
				b.Fatal(err)
			}
			benchFlush(b, ship)
		}
	}
}

// BenchmarkReplicationStreamBatch64 measures a 64-task batch admit's
// replication round trip (one journal record, one frame) under each
// journal codec. Frames are binary either way; the journal codec moves the
// leader's encode and the follower's verify cost per record.
func BenchmarkReplicationStreamBatch64(b *testing.B) {
	for _, codec := range []mcsio.Codec{mcsio.CodecJSON, mcsio.CodecBinary} {
		b.Run(string(codec), func(b *testing.B) {
			leader := benchLeader(b, b.TempDir(), codec)
			defer leader.Close()
			_, srv := benchFollower(b, b.TempDir())
			ship, err := NewShipper(leader, []string{srv.URL}, ShipperConfig{})
			if err != nil {
				b.Fatal(err)
			}
			leader.SetHooks(ship.Hooks())
			ship.Start()
			defer ship.Stop()

			sys, err := leader.CreateSystem("bench", 8, allTests()[0])
			if err != nil {
				b.Fatal(err)
			}
			benchFlush(b, ship)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch := make(mcs.TaskSet, 64)
				ids := make([]int, 64)
				for j := range batch {
					id := i*64 + j
					batch[j] = mcs.NewLC(id, 1, 1_000_000)
					ids[j] = id
				}
				br, err := sys.AdmitBatch(batch)
				if err != nil || !br.Admitted {
					b.Fatalf("batch rejected: %+v, %v", br, err)
				}
				benchFlush(b, ship)
				if _, err := sys.Release(ids...); err != nil {
					b.Fatal(err)
				}
				benchFlush(b, ship)
			}
		})
	}
}

// BenchmarkFollowerApplyRecords isolates the follower's verify → append →
// apply cost per record, without HTTP: an admit/release history is built
// on a leader, then applied record by record.
func BenchmarkFollowerApplyRecords(b *testing.B) {
	leader := benchLeader(b, b.TempDir(), mcsio.CodecJSON)
	defer leader.Close()
	sys, err := leader.CreateSystem("bench", 4, allTests()[0])
	if err != nil {
		b.Fatal(err)
	}
	// History of b.N events with a bounded resident set.
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			if _, err := sys.Admit(mcs.NewLC(i/2, 1, 1_000_000)); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := sys.Release(i / 2); err != nil {
				b.Fatal(err)
			}
		}
	}
	recs, _, err := sys.Journal().ReadFrom(1, b.N+1)
	if err != nil {
		b.Fatal(err)
	}
	fctrl, _ := benchFollower(b, b.TempDir())

	b.ReportAllocs()
	b.ResetTimer()
	const chunk = 256
	for off := 0; off < len(recs); off += chunk {
		end := off + chunk
		if end > len(recs) {
			end = len(recs)
		}
		if _, _, err := fctrl.ApplyReplicatedRecords("bench", uint64(off+1), recs[off:end]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplicationHookOverhead measures the admit hot path with hooks
// installed but nothing listening — the cost replication adds to a leader
// that has no follower work queued (an enqueue per link; here zero links
// are exercised by pointing the hook at a no-op).
func BenchmarkReplicationHookOverhead(b *testing.B) {
	for _, hooked := range []bool{false, true} {
		name := "bare"
		if hooked {
			name = "hooked"
		}
		b.Run(name, func(b *testing.B) {
			leader := benchLeader(b, b.TempDir(), mcsio.CodecJSON)
			defer leader.Close()
			if hooked {
				leader.SetHooks(admission.Hooks{
					Committed: func(string, uint64) {},
					Removed:   func(string) {},
				})
			}
			sys, err := leader.CreateSystem("bench", 8, allTests()[0])
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Admit(mcs.NewLC(i, 1, 1_000_000)); err != nil {
					b.Fatal(err)
				}
				if (i+1)%64 == 0 {
					ids := make([]int, 0, 64)
					for j := i - 63; j <= i; j++ {
						ids = append(ids, j)
					}
					if _, err := sys.Release(ids...); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
