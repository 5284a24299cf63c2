package admission

// Replay-equivalence suite: the journal exists so that a controller
// recovered from disk is indistinguishable from one that never crashed.
// These tests drive random admit/probe/release/batch sequences across all
// four schedulability tests, recover a second controller from the same
// data directory, and require partitions, per-core float aggregates,
// committed-transition stats and all future verdicts to be bit-identical.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"mcsched/internal/analysis/amc"
	"mcsched/internal/analysis/ey"
	"mcsched/internal/core"
	"mcsched/internal/mcs"
	"mcsched/internal/mcsio"
	"mcsched/internal/taskgen"
)

// fingerprint is the suite's shorthand for the exported bit-precision
// state oracle.
func fingerprint(sys *System) string { return sys.Fingerprint() }

// driveRandomWorkload applies a deterministic pseudo-random mix of admits,
// probes, batches and releases to sys and returns the IDs still resident.
func driveRandomWorkload(t *testing.T, sys *System, test core.Test, seed int64, rounds int) []int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := taskgen.DefaultConfig(4, 0.5, 0.3, 0.4)
	cfg.Constrained = !core.ImplicitOnly(test)
	nextID := 0
	var resident []int
	for round := 0; round < rounds; round++ {
		ts, err := taskgen.Generate(rng, cfg)
		if err != nil {
			continue
		}
		switch rng.Intn(4) {
		case 0:
			// All-or-nothing batch (fresh IDs).
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
				}
			}
		}
		// Release a sprinkling of resident tasks.
		for len(resident) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(resident))
			if _, err := sys.Release(resident[i]); err != nil {
				t.Fatal(err)
			}
			resident = append(resident[:i], resident[i+1:]...)
		}
	}
	return resident
}

func TestReplayEquivalenceRandomSequences(t *testing.T) {
	for _, test := range core.Tests() {
		for _, snapEvery := range []int{-1, 5} {
			test, snapEvery := test, snapEvery
			name := fmt.Sprintf("%s/snapshotEvery=%d", test.Name(), snapEvery)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				cfg := DefaultConfig()
				cfg.DataDir = dir
				cfg.SnapshotEvery = snapEvery

				live := NewController(cfg)
				sys, err := live.CreateSystem("eq", 4, test)
				if err != nil {
					t.Fatal(err)
				}
				driveRandomWorkload(t, sys, test, 2026, 5)
				liveFP := fingerprint(sys)
				liveStats := live.Stats()
				if err := live.Close(); err != nil {
					t.Fatal(err)
				}

				rec := NewController(cfg)
				rs, err := rec.Recover()
				if err != nil {
					t.Fatal(err)
				}
				if rs.Systems != 1 {
					t.Fatalf("recovered %d systems, want 1", rs.Systems)
				}
				if snapEvery > 0 && rs.SnapshotsLoaded != 1 {
					t.Fatalf("snapshot cadence %d produced no snapshot to load", snapEvery)
				}
				rsys, err := rec.System("eq")
				if err != nil {
					t.Fatal(err)
				}

				// Partitions and per-core aggregates bit-identical.
				if got := fingerprint(rsys); got != liveFP {
					t.Fatalf("recovered state differs:\nlive:\n%s\nrecovered:\n%s", liveFP, got)
				}
				// Committed-transition stats identical (probes/rejects are
				// process-local and not journaled by design).
				recStats := rec.Stats()
				if recStats.Admits != liveStats.Admits || recStats.Releases != liveStats.Releases ||
					recStats.Systems != liveStats.Systems || recStats.Tasks != liveStats.Tasks {
					t.Fatalf("stats diverged:\nlive      %+v\nrecovered %+v", liveStats, recStats)
				}
				// Replay went through the live analysis path (snapshot-only
				// recovery may skip analyses, so only require it when
				// events were replayed).
				if rs.Events > 1 && recStats.TestsRun == 0 {
					t.Errorf("replay of %d events ran no analyses — recorded decisions were not verified", rs.Events)
				}
				// Every future verdict identical: probe a fresh battery on
				// both controllers.
				rng := rand.New(rand.NewSource(777))
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
						a, errA := sys.Probe(task)
						b, errB := rsys.Probe(task)
						if (errA == nil) != (errB == nil) {
							t.Fatalf("probe error divergence: %v vs %v", errA, errB)
						}
						if a.Admitted != b.Admitted || a.Core != b.Core {
							t.Fatalf("verdict divergence on %v: live %+v vs recovered %+v", task, a, b)
						}
					}
				}
				// The recovered cores still pass the raw test.
				certify(t, test, rsys, "after recovery")
			})
		}
	}
}

// TestReplayEquivalenceJournalingTransparent runs the same workload
// through a journaled and an unjournaled controller: journaling must not
// change a single decision or analysis count.
func TestReplayEquivalenceJournalingTransparent(t *testing.T) {
	for _, test := range core.Tests() {
		test := test
		t.Run(test.Name(), func(t *testing.T) {
			t.Parallel()
			jcfg := DefaultConfig()
			jcfg.DataDir = t.TempDir()
			journaled := NewController(jcfg)
			plain := NewController(DefaultConfig())
			a, err := journaled.CreateSystem("x", 3, test)
			if err != nil {
				t.Fatal(err)
			}
			b, err := plain.CreateSystem("x", 3, test)
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(99))
			cfg := taskgen.DefaultConfig(3, 0.45, 0.3, 0.35)
			cfg.Constrained = !core.ImplicitOnly(test)
			nextID := 0
			for round := 0; round < 4; round++ {
				ts, err := taskgen.Generate(rng, cfg)
				if err != nil {
					continue
				}
				for _, task := range ts {
					task.ID = nextID
					nextID++
					ra, errA := a.Admit(task)
					rb, errB := b.Admit(task)
					if (errA == nil) != (errB == nil) {
						t.Fatalf("error divergence: %v vs %v", errA, errB)
					}
					if ra.Admitted != rb.Admitted || ra.Core != rb.Core || ra.Tests != rb.Tests {
						t.Fatalf("journaling changed a decision on %v:\njournaled %+v\nplain     %+v", task, ra, rb)
					}
					if task.ID%4 == 0 && ra.Admitted {
						if _, err := a.Release(task.ID); err != nil {
							t.Fatal(err)
						}
						if _, err := b.Release(task.ID); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if fa, fb := fingerprint(a), fingerprint(b); fa != fb {
				t.Fatalf("journaling changed state:\n%s\n%s", fa, fb)
			}
		})
	}
}

// TestRecoverMultiTenant checks recovery across several tenants with
// different tests and core counts, plus continued service afterwards.
func TestRecoverMultiTenant(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.DataDir = dir
	cfg.SnapshotEvery = 4

	live := NewController(cfg)
	tests := core.Tests()
	for i, test := range tests {
		sys, err := live.CreateSystem(fmt.Sprintf("tenant-%d", i), 2+i%3, test)
		if err != nil {
			t.Fatal(err)
		}
		driveRandomWorkload(t, sys, test, int64(100+i), 2)
	}
	// A removed tenant must not resurrect.
	if _, err := live.CreateSystem("doomed", 2, tests[0]); err != nil {
		t.Fatal(err)
	}
	if err := live.RemoveSystem("doomed"); err != nil {
		t.Fatal(err)
	}
	fps := map[string]string{}
	for _, id := range live.SystemIDs() {
		sys, _ := live.System(id)
		fps[id] = fingerprint(sys)
	}
	live.Close()

	rec := NewController(cfg)
	rs, err := rec.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Systems != len(tests) {
		t.Fatalf("recovered %d systems, want %d", rs.Systems, len(tests))
	}
	if got := fmt.Sprint(rec.SystemIDs()); got != fmt.Sprint(live.SystemIDs()) {
		t.Fatalf("system IDs diverged: %s vs %s", got, fmt.Sprint(live.SystemIDs()))
	}
	for id, want := range fps {
		sys, err := rec.System(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(sys); got != want {
			t.Fatalf("tenant %s diverged:\n%s\n%s", id, want, got)
		}
	}
	// The recovered controller keeps serving: admit, release, snapshot.
	sys, _ := rec.System("tenant-0")
	task := mcs.NewLC(9_000_000, 1, 100)
	if _, err := sys.Admit(task); err != nil {
		t.Fatal(err)
	}
	if err := rec.SnapshotSystem("tenant-0"); err != nil {
		t.Fatal(err)
	}
	rec.Close()

	// And a third generation recovers the post-recovery appends too.
	third := NewController(cfg)
	if _, err := third.Recover(); err != nil {
		t.Fatal(err)
	}
	tsys, err := third.System("tenant-0")
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(tsys); got != fingerprint(sys) {
		t.Fatalf("third generation diverged:\n%s\n%s", fingerprint(sys), got)
	}
	third.Close()
}

// TestRecoverFailsClosed: a journal recorded under a different placement
// (wrong core), an unknown test, or a create colliding with a live tenant
// must abort recovery rather than serve a made-up state.
func TestRecoverFailsClosed(t *testing.T) {
	t.Run("divergent core", func(t *testing.T) {
		dir := t.TempDir()
		cfg := DefaultConfig()
		cfg.DataDir = dir
		live := NewController(cfg)
		sys, err := live.CreateSystem("d", 2, core.Tests()[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Admit(mcs.NewLC(1, 1, 10)); err != nil {
			t.Fatal(err)
		}
		// Forge an admit event claiming core 1 where placement picks 0.
		sys.mu.Lock()
		j := mcsio.TaskToJSON(mcs.NewLC(2, 1, 10))
		wait, err := sys.appendLocked(mcsio.EventJSON{Kind: mcsio.EventAdmit, Task: &j, Core: 1})
		sys.mu.Unlock()
		if err == nil {
			err = waitCommitted(wait)
		}
		if err != nil {
			t.Fatal(err)
		}
		live.Close()
		rec := NewController(cfg)
		if _, err := rec.Recover(); err == nil {
			t.Fatal("divergent journal recovered without error")
		}
	})
	t.Run("unknown test", func(t *testing.T) {
		dir := t.TempDir()
		cfg := DefaultConfig()
		cfg.DataDir = dir
		live := NewController(cfg)
		// AMC-rtb under deadline-monotonic priorities admits fine, but the
		// core.TestByName registry has no name for it.
		unregistered := amc.Test{Opts: amc.Options{Variant: amc.RTB, Policy: amc.DeadlineMonotonic}}
		if _, err := live.CreateSystem("d", 2, unregistered); err != nil {
			t.Fatal(err)
		}
		live.Close()
		rec := NewController(cfg)
		if _, err := rec.Recover(); err == nil {
			t.Fatal("journal with unresolvable test recovered without error")
		}
	})
	// A rewritten snapshot, CRC intact, must pass the rule a snapshot frame
	// passes: it names its tenant and the sequence its file covers, and
	// every core passes the tenant's test, or, under EY, the utilization
	// filter in front of it.
	for _, tc := range []struct {
		name, test string
		edit       func(s *mcsio.SnapshotJSON)
	}{
		{"snapshot stamped for another sequence", "EDF-VD", func(s *mcsio.SnapshotJSON) { s.Seq-- }},
		{"over-full snapshot", "EDF-VD", overFill},
		{"over-full EY snapshot", "EY", overFill},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := crashConfig(t.TempDir())
			live, sys, snap, seq := snapshotted(t, cfg, tc.test)
			if err := sys.Journal().WriteSnapshot(encodeSnapshot(t, snap, tc.edit), seq); err != nil {
				t.Fatal(err)
			}
			live.Close()
			rs, err := NewController(cfg).Recover()
			if !errors.Is(err, ErrReplayDivergence) {
				t.Fatalf("tampered snapshot recovered: %+v, %v", rs, err)
			}
		})
	}
	t.Run("create onto existing journal", func(t *testing.T) {
		dir := t.TempDir()
		cfg := DefaultConfig()
		cfg.DataDir = dir
		live := NewController(cfg)
		if _, err := live.CreateSystem("d", 2, core.Tests()[0]); err != nil {
			t.Fatal(err)
		}
		live.Close()
		fresh := NewController(cfg) // skipped Recover
		if _, err := fresh.CreateSystem("d", 2, core.Tests()[0]); err == nil {
			t.Fatal("create over an existing journal accepted")
		}
	})
}

// snapshotted journals a tenant "d" under the named test on 2 cores
// holding two LC tasks of u = 0.6, which place one per core, snapshots it
// and returns the open controller, the tenant, the snapshot and the
// sequence it covers.
func snapshotted(t testing.TB, cfg Config, testName string) (*Controller, *System, mcsio.SnapshotJSON, uint64) {
	t.Helper()
	test, _ := core.TestByName(testName)
	ctrl := NewController(cfg)
	sys, err := ctrl.CreateSystem("d", 2, test)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AdmitBatch(mcs.TaskSet{mcs.NewLC(1, 6, 10), mcs.NewLC(2, 6, 10)}); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.SnapshotSystem("d"); err != nil {
		t.Fatal(err)
	}
	payload, seq, _, err := sys.Journal().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := mcsio.DecodeSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl, sys, snap, seq
}

// overFill moves every task of a snapshot onto core 0.
func overFill(s *mcsio.SnapshotJSON) {
	var all []int
	for _, ids := range s.Partition.Cores {
		all = append(all, ids...)
	}
	s.Partition.Cores = make([][]int, len(s.Partition.Cores))
	s.Partition.Cores[0] = all
}

// encodeSnapshot encodes s, after edit if edit is not nil, as a binary
// snapshot.
func encodeSnapshot(t testing.TB, s mcsio.SnapshotJSON, edit func(*mcsio.SnapshotJSON)) []byte {
	t.Helper()
	if edit != nil {
		edit(&s)
	}
	b, err := mcsio.EncodeSnapshotBinary(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSnapshotAfterReleaseUnderEY: EY is not sustainable, so a release
// can leave a core that EY run cold refuses. A snapshot of that state is
// what the journal reached, and recovery and a follower must both take it.
func TestSnapshotAfterReleaseUnderEY(t *testing.T) {
	cfg := crashConfig(t.TempDir())
	live := NewController(cfg)
	test, _ := core.TestByName("EY")
	sys, err := live.CreateSystem("e", 1, test)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range []mcs.Task{
		mcs.NewHCConstrained(1, 4, 8, 88, 78),
		mcs.NewHC(2, 7, 16, 52),
		mcs.NewHCConstrained(3, 11, 33, 92, 47),
	} {
		if res, err := sys.Admit(task); err != nil || !res.Admitted {
			t.Fatalf("admit %d: %+v, %v", task.ID, res, err)
		}
	}
	if _, err := sys.Release(1); err != nil {
		t.Fatal(err)
	}
	left := sys.Snapshot().Cores[0]
	if test.Schedulable(left) {
		t.Fatal("EY run cold accepts the core the release left; the case shows nothing")
	}
	if err := live.SnapshotSystem("e"); err != nil {
		t.Fatal(err)
	}
	payload, seq, _, err := sys.Journal().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	live.Close()

	rc := NewController(cfg)
	defer rc.Close()
	if rs, err := rc.Recover(); err != nil || rs.SnapshotsLoaded != 1 || rs.Tasks != 2 {
		t.Fatalf("recover: %+v, %v", rs, err)
	}
	fcfg := crashConfig(t.TempDir())
	fcfg.Follower = true
	follower := NewController(fcfg)
	defer follower.Close()
	if _, err := follower.ApplyReplicatedSnapshot("e", seq, payload); err != nil {
		t.Fatalf("follower refused the snapshot: %v", err)
	}
	for _, c := range []*Controller{rc, follower} {
		got, err := c.System("e")
		if err != nil {
			t.Fatal(err)
		}
		if cores := got.Snapshot().Cores; len(cores) != 1 || !sameIDs(cores[0], left) {
			t.Fatalf("restored %v, want %v", cores, left)
		}
	}
}

// sameIDs reports whether a and b hold the same task IDs in the same order.
func sameIDs(a, b mcs.TaskSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

// FuzzReplicatedSnapshot feeds a follower an arbitrary snapshot payload at
// an arbitrary sequence. Whatever it accepts must be a tenant in which no
// task repeats and, under a sustainable test, every non-empty core passes
// the tenant's test, run cold; under EY or ECDF, the utilization filter in
// front of the test.
func FuzzReplicatedSnapshot(f *testing.F) {
	live, _, snap, seq := snapshotted(f, crashConfig(f.TempDir()), "EDF-VD")
	live.Close()
	f.Add(encodeSnapshot(f, snap, nil), seq)
	f.Add(encodeSnapshot(f, snap, func(s *mcsio.SnapshotJSON) { s.Seq-- }), seq)
	f.Add(encodeSnapshot(f, snap, overFill), seq)
	f.Add(encodeSnapshot(f, snap, func(s *mcsio.SnapshotJSON) { overFill(s); s.Test = "EY" }), seq)
	f.Fuzz(func(t *testing.T, payload []byte, seq uint64) {
		cfg := crashConfig(t.TempDir())
		cfg.Follower = true
		follower := NewController(cfg)
		defer follower.Close()
		if _, err := follower.ApplyReplicatedSnapshot("d", seq, payload); err != nil {
			return
		}
		sys, err := follower.System("d")
		if err != nil {
			t.Fatalf("accepted snapshot installed no tenant: %v", err)
		}
		test, ok := core.TestByName(sys.TestName())
		if !ok {
			t.Fatalf("installed tenant runs unregistered test %q", sys.TestName())
		}
		seen := make(map[int]bool)
		for k, ts := range sys.Snapshot().Cores {
			for _, task := range ts {
				if seen[task.ID] {
					t.Fatalf("task %d installed twice", task.ID)
				}
				seen[task.ID] = true
			}
			if len(ts) > 0 && core.Sustainable(test) && !test.Schedulable(ts) {
				t.Fatalf("installed core %d fails %s", k, test.Name())
			}
			if !core.Sustainable(test) && ey.FoldQuick(ts).Verdict() < 0 {
				t.Fatalf("installed core %d has LO or HI utilization over 1 under %s", k, test.Name())
			}
		}
	})
}
