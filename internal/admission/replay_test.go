package admission

// Replay-equivalence suite: the journal exists so that a controller
// recovered from disk is indistinguishable from one that never crashed.
// These tests drive random admit/probe/release/batch sequences across all
// four schedulability tests, recover a second controller from the same
// data directory, and require partitions, per-core float aggregates,
// committed-transition stats and all future verdicts to be bit-identical.

import (
	"fmt"
	"math/rand"
	"testing"

	"mcsched/internal/analysis/amc"
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
