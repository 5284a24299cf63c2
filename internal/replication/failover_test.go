package replication

// Failover-equivalence suite: the replication layer exists so that killing
// the leader at ANY committed event index leaves a follower that, once
// promoted, is indistinguishable from a controller freshly recovered from
// the leader's own journal. The tests drive deterministic workloads across
// all four schedulability tests, flush the shipper after every committed
// transition (equivalent to a leader kill at that index, since shipping is
// the only channel), and require the follower's partition fingerprints to
// be bit-identical at each step; at the end the follower is promoted over
// HTTP and compared — fingerprints, committed-transition stats and future
// verdicts — against a fresh admission.Recover of the leader's data dir.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"mcsched/internal/admission"
	"mcsched/internal/core"
	"mcsched/internal/mcs"
	"mcsched/internal/taskgen"
)

func leaderConfig(dir string, snapEvery int) admission.Config {
	cfg := admission.DefaultConfig()
	cfg.DataDir = dir
	cfg.SnapshotEvery = snapEvery
	return cfg
}

func followerConfig(dir string) admission.Config {
	cfg := leaderConfig(dir, 5)
	cfg.Follower = true
	return cfg
}

// newFollower builds a follower controller and serves its replication
// protocol over a real HTTP listener.
func newFollower(t *testing.T, dir string) (*admission.Controller, *Receiver, *httptest.Server) {
	t.Helper()
	ctrl := admission.NewController(followerConfig(dir))
	if _, err := ctrl.Recover(); err != nil {
		t.Fatal(err)
	}
	recv := NewReceiver(ctrl)
	srv := httptest.NewServer(recv.Mux())
	t.Cleanup(srv.Close)
	t.Cleanup(func() { ctrl.Close() })
	return ctrl, recv, srv
}

// connect wires a shipper from the leader to the follower URL and starts it.
func connect(t *testing.T, leader *admission.Controller, followerURL string) *Shipper {
	t.Helper()
	ship, err := NewShipper(leader, []string{followerURL}, ShipperConfig{})
	if err != nil {
		t.Fatal(err)
	}
	leader.SetHooks(ship.Hooks())
	ship.Start()
	t.Cleanup(ship.Stop)
	return ship
}

func flush(t *testing.T, ship *Shipper) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := ship.Flush(ctx); err != nil {
		t.Fatal(err)
	}
}

// fingerprintOf resolves a tenant's bit-precision state oracle, or "" when
// the controller does not hold it.
func fingerprintOf(c *admission.Controller, id string) string {
	sys, err := c.System(id)
	if err != nil {
		return ""
	}
	return sys.Fingerprint()
}

// driveReplicated applies a deterministic mix of admits, probes, batches
// and releases to sys, invoking check after every committed transition —
// each call is one potential leader-kill index.
func driveReplicated(t *testing.T, sys *admission.System, test core.Test, seed int64, rounds, idBase int, check func(label string)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := taskgen.DefaultConfig(4, 0.5, 0.3, 0.4)
	cfg.Constrained = !core.ImplicitOnly(test)
	nextID := idBase
	var resident []int
	for round := 0; round < rounds; round++ {
		ts, err := taskgen.Generate(rng, cfg)
		if err != nil {
			continue
		}
		switch rng.Intn(4) {
		case 0:
			batch := ts.Clone()
			for i := range batch {
				batch[i].ID = nextID
				nextID++
			}
			br, err := sys.AdmitBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			if br.Admitted {
				for _, r := range br.Results {
					resident = append(resident, r.TaskID)
				}
				check(fmt.Sprintf("round %d: batch of %d", round, len(br.Results)))
			}
		default:
			for _, task := range ts {
				task.ID = nextID
				nextID++
				if _, err := sys.Probe(task); err != nil {
					t.Fatal(err)
				}
				res, err := sys.Admit(task)
				if err != nil {
					t.Fatal(err)
				}
				if res.Admitted {
					resident = append(resident, task.ID)
					check(fmt.Sprintf("round %d: admit %d", round, task.ID))
				}
			}
		}
		for len(resident) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(resident))
			if _, err := sys.Release(resident[i]); err != nil {
				t.Fatal(err)
			}
			resident = append(resident[:i], resident[i+1:]...)
			check(fmt.Sprintf("round %d: release", round))
		}
	}
}

// promote flips the follower writable, as mcschedd's POST /v1/promote does.
func promote(t *testing.T, ctrl *admission.Controller) {
	t.Helper()
	if !ctrl.Promote() {
		t.Fatal("promote: controller already led")
	}
}

func TestFailoverEquivalenceEveryIndex(t *testing.T) {
	rounds := 4
	if testing.Short() {
		rounds = 2
	}
	for _, test := range core.Tests() {
		for _, snapEvery := range []int{-1, 3} {
			test, snapEvery := test, snapEvery
			t.Run(fmt.Sprintf("%s/snapshotEvery=%d", test.Name(), snapEvery), func(t *testing.T) {
				t.Parallel()
				leaderDir, followerDir := t.TempDir(), t.TempDir()
				leader := admission.NewController(leaderConfig(leaderDir, snapEvery))
				if _, err := leader.Recover(); err != nil {
					t.Fatal(err)
				}
				fctrl, recv, srv := newFollower(t, followerDir)
				ship := connect(t, leader, srv.URL)

				sys, err := leader.CreateSystem("t", 4, test)
				if err != nil {
					t.Fatal(err)
				}
				// Every committed transition is a kill index: flush, then
				// the follower must already be bit-identical.
				commits := 0
				driveReplicated(t, sys, test, 2027, rounds, 0, func(label string) {
					commits++
					flush(t, ship)
					lfp, ffp := sys.Fingerprint(), fingerprintOf(fctrl, "t")
					if lfp != ffp {
						t.Fatalf("kill index %d (%s): follower diverged:\nleader:\n%s\nfollower:\n%s",
							commits, label, lfp, ffp)
					}
				})
				if commits == 0 {
					t.Fatal("workload committed nothing")
				}
				flush(t, ship)
				leaderFP := sys.Fingerprint()
				leaderStats := leader.Stats()

				// Kill the leader: stop shipping, close the journals.
				ship.Stop()
				if err := leader.Close(); err != nil {
					t.Fatal(err)
				}

				// Promote the follower; further frames must be fenced off.
				promote(t, fctrl)
				if fctrl.IsFollower() {
					t.Fatal("controller still follower after promotion")
				}
				if _, _, err := fctrl.ApplyReplicatedRecords("t", 1, [][]byte{[]byte("{}")}); err == nil {
					t.Fatal("promoted follower accepted a replication frame")
				}

				// A fresh recovery of the leader's journal is the oracle.
				rec := admission.NewController(leaderConfig(leaderDir, snapEvery))
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
				recStats, folStats := rec.Stats(), fctrl.Stats()
				if folStats.Admits != recStats.Admits || folStats.Releases != recStats.Releases ||
					folStats.Systems != recStats.Systems || folStats.Tasks != recStats.Tasks {
					t.Fatalf("stats diverged:\nfollower  %+v\nrecovered %+v", folStats, recStats)
				}
				if folStats.Admits != leaderStats.Admits || folStats.Releases != leaderStats.Releases {
					t.Fatalf("follower stats != leader stats: %+v vs %+v", folStats, leaderStats)
				}

				// Every future verdict identical between the promoted
				// follower and the recovered oracle.
				fsys, err := fctrl.System("t")
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(771))
				gcfg := taskgen.DefaultConfig(4, 0.5, 0.3, 0.4)
				gcfg.Constrained = !core.ImplicitOnly(test)
				probeID := 1 << 20
				for round := 0; round < 3; round++ {
					ts, err := taskgen.Generate(rng, gcfg)
					if err != nil {
						continue
					}
					for _, task := range ts {
						task.ID = probeID
						probeID++
						a, errA := fsys.Probe(task)
						b, errB := rsys.Probe(task)
						if (errA == nil) != (errB == nil) {
							t.Fatalf("probe error divergence: %v vs %v", errA, errB)
						}
						if a.Admitted != b.Admitted || a.Core != b.Core {
							t.Fatalf("verdict divergence on %v: follower %+v vs recovered %+v", task, a, b)
						}
					}
				}
				// The promoted follower serves writes — and journals them.
				if _, err := fsys.Admit(mcs.NewLC(probeID+1, 1, 100_000)); err != nil {
					t.Fatal(err)
				}
				if recv.Applied().Records == 0 {
					t.Fatal("receiver applied no records")
				}
			})
		}
	}
}

// TestFailoverCatchUpFromSnapshot: a follower that attaches after the
// leader has compacted its journal must catch up through a snapshot frame
// and still end bit-identical.
func TestFailoverCatchUpFromSnapshot(t *testing.T) {
	test := core.Tests()[0]
	leaderDir := t.TempDir()
	leader := admission.NewController(leaderConfig(leaderDir, 4))
	if _, err := leader.Recover(); err != nil {
		t.Fatal(err)
	}
	sys, err := leader.CreateSystem("t", 4, test)
	if err != nil {
		t.Fatal(err)
	}
	// Build history across several snapshot truncations before any
	// follower exists.
	driveReplicated(t, sys, test, 909, 4, 0, func(string) {})

	fctrl, recv, srv := newFollower(t, t.TempDir())
	ship := connect(t, leader, srv.URL)
	flush(t, ship)

	if got := fingerprintOf(fctrl, "t"); got != sys.Fingerprint() {
		t.Fatalf("follower diverged after snapshot catch-up:\n%s\n%s", sys.Fingerprint(), got)
	}
	if recv.Applied().Snapshots == 0 {
		t.Fatal("catch-up used no snapshot frame despite compaction")
	}

	// New traffic keeps streaming as records on top of the snapshot.
	driveReplicated(t, sys, test, 910, 2, 1<<16, func(string) {})
	flush(t, ship)
	if got := fingerprintOf(fctrl, "t"); got != sys.Fingerprint() {
		t.Fatalf("follower diverged after post-snapshot records:\n%s\n%s", sys.Fingerprint(), got)
	}
	leader.Close()
}

// TestFailoverMultiTenantWithRemoval: several tenants with different tests
// and core counts replicate concurrently, and a leader-side removal
// propagates.
func TestFailoverMultiTenantWithRemoval(t *testing.T) {
	leaderDir := t.TempDir()
	leader := admission.NewController(leaderConfig(leaderDir, 6))
	if _, err := leader.Recover(); err != nil {
		t.Fatal(err)
	}
	fctrl, _, srv := newFollower(t, t.TempDir())
	ship := connect(t, leader, srv.URL)

	tests := core.Tests()
	for i, test := range tests {
		sys, err := leader.CreateSystem(fmt.Sprintf("tenant-%d", i), 2+i%3, test)
		if err != nil {
			t.Fatal(err)
		}
		driveReplicated(t, sys, test, int64(300+i), 2, 0, func(string) {})
	}
	if _, err := leader.CreateSystem("doomed", 2, tests[0]); err != nil {
		t.Fatal(err)
	}
	flush(t, ship)
	if _, err := fctrl.System("doomed"); err != nil {
		t.Fatal("doomed tenant did not replicate before removal")
	}
	if err := leader.RemoveSystem("doomed"); err != nil {
		t.Fatal(err)
	}
	flush(t, ship)
	if _, err := fctrl.System("doomed"); err == nil {
		t.Fatal("removed tenant still live on follower")
	}
	if fmt.Sprint(fctrl.SystemIDs()) != fmt.Sprint(leader.SystemIDs()) {
		t.Fatalf("tenant sets diverged: %v vs %v", fctrl.SystemIDs(), leader.SystemIDs())
	}
	for _, id := range leader.SystemIDs() {
		if fingerprintOf(fctrl, id) != fingerprintOf(leader, id) {
			t.Fatalf("tenant %s diverged", id)
		}
	}
	leader.Close()
}
