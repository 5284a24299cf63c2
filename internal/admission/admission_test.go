package admission

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mcsched/internal/analysis/edfvd"
	"mcsched/internal/core"
	"mcsched/internal/mcs"
	"mcsched/internal/taskgen"
)

// lc and hc build small tasks with round utilizations.
func lc(id int, c, t mcs.Ticks) mcs.Task      { return mcs.NewLC(id, c, t) }
func hc(id int, cl, ch, t mcs.Ticks) mcs.Task { return mcs.NewHC(id, cl, ch, t) }

func newTestController() *Controller { return NewController(DefaultConfig()) }

func mustSystem(t *testing.T, c *Controller, id string, m int) *System {
	t.Helper()
	sys, err := c.CreateSystem(id, m, edfvd.Test{})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestCreateSystemValidation(t *testing.T) {
	c := newTestController()
	if _, err := c.CreateSystem("x", 0, edfvd.Test{}); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := c.CreateSystem("x", 2, nil); err == nil {
		t.Error("nil test accepted")
	}
	mustSystem(t, c, "x", 2)
	if _, err := c.CreateSystem("x", 2, edfvd.Test{}); !errors.Is(err, ErrDuplicateSystem) {
		t.Errorf("duplicate id: got %v", err)
	}
	if _, err := c.System("nope"); !errors.Is(err, ErrNoSystem) {
		t.Errorf("missing system: got %v", err)
	}
	// Auto-generated IDs are unique and resolvable.
	a, _ := c.CreateSystem("", 1, edfvd.Test{})
	b, _ := c.CreateSystem("", 1, edfvd.Test{})
	if a.ID() == b.ID() {
		t.Errorf("generated IDs collide: %q", a.ID())
	}
	if _, err := c.System(a.ID()); err != nil {
		t.Errorf("generated ID not resolvable: %v", err)
	}
}

func TestAdmitPlacesHCWorstFitByUtilDiff(t *testing.T) {
	c := newTestController()
	sys := mustSystem(t, c, "t", 2)

	// First HC task lands on core 0 (all diffs zero, ties by index).
	r1, err := sys.Admit(hc(1, 1, 4, 10)) // diff 0.3
	if err != nil || !r1.Admitted || r1.Core != 0 {
		t.Fatalf("r1=%+v err=%v", r1, err)
	}
	// Second HC task must go to core 1: worst fit by utilization difference.
	r2, err := sys.Admit(hc(2, 1, 3, 10)) // diff 0.2
	if err != nil || !r2.Admitted || r2.Core != 1 {
		t.Fatalf("r2=%+v err=%v", r2, err)
	}
	// Third: core 1 has the smaller diff (0.2 < 0.3), so it is tried first.
	r3, err := sys.Admit(hc(3, 1, 2, 10))
	if err != nil || !r3.Admitted || r3.Core != 1 {
		t.Fatalf("r3=%+v err=%v", r3, err)
	}
	// An LC task is first-fit: core 0 regardless of diffs.
	r4, err := sys.Admit(lc(4, 1, 10))
	if err != nil || !r4.Admitted || r4.Core != 0 {
		t.Fatalf("r4=%+v err=%v", r4, err)
	}
}

func TestAdmitRejectLeavesStateUntouched(t *testing.T) {
	c := newTestController()
	sys := mustSystem(t, c, "t", 1)
	if r, err := sys.Admit(hc(1, 4, 8, 10)); err != nil || !r.Admitted {
		t.Fatalf("seed admit failed: %+v %v", r, err)
	}
	before := sys.Snapshot()
	// A task pushing UHH past 1 on the only core must be rejected.
	r, err := sys.Admit(hc(2, 2, 3, 10))
	if err != nil || r.Admitted {
		t.Fatalf("expected clean rejection, got %+v err=%v", r, err)
	}
	if r.Core != -1 || r.Reason == "" {
		t.Errorf("rejection shape: %+v", r)
	}
	after := sys.Snapshot()
	if fmt.Sprint(before) != fmt.Sprint(after) {
		t.Errorf("state changed by rejection:\n%v\n%v", before, after)
	}
}

func TestAdmitDuplicateAndInvalid(t *testing.T) {
	c := newTestController()
	sys := mustSystem(t, c, "t", 2)
	if _, err := sys.Admit(lc(1, 1, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Admit(lc(1, 1, 10)); !errors.Is(err, ErrDuplicateTask) {
		t.Errorf("duplicate: got %v", err)
	}
	bad := lc(2, 5, 4) // C > T=D
	if _, err := sys.Admit(bad); err == nil {
		t.Error("invalid task admitted")
	}
}

func TestReleaseTransactional(t *testing.T) {
	c := newTestController()
	sys := mustSystem(t, c, "t", 2)
	for i := 1; i <= 4; i++ {
		if r, err := sys.Admit(lc(i, 1, 10)); err != nil || !r.Admitted {
			t.Fatalf("admit %d: %+v %v", i, r, err)
		}
	}
	// Unknown ID in the middle: nothing released.
	if _, err := sys.Release(1, 99, 2); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("got %v", err)
	}
	if n := sys.NumTasks(); n != 4 {
		t.Fatalf("partial release: %d tasks left", n)
	}
	if _, err := sys.Release(1, 3); err != nil {
		t.Fatal(err)
	}
	if n := sys.NumTasks(); n != 2 {
		t.Fatalf("release left %d tasks", n)
	}
	// Released IDs are admissible again.
	if r, err := sys.Admit(lc(1, 1, 10)); err != nil || !r.Admitted {
		t.Fatalf("re-admit: %+v %v", r, err)
	}
	// Repeated IDs in one call release the task once and count once.
	n, err := sys.Release(1, 1, 1)
	if err != nil || n != 1 {
		t.Fatalf("duplicate release: n=%d err=%v", n, err)
	}
}

func TestProbeDoesNotCommit(t *testing.T) {
	c := newTestController()
	sys := mustSystem(t, c, "t", 2)
	r, err := sys.Probe(hc(1, 2, 5, 10))
	if err != nil || !r.Admitted || !r.Probed {
		t.Fatalf("probe: %+v %v", r, err)
	}
	if n := sys.NumTasks(); n != 0 {
		t.Fatalf("probe committed: %d tasks", n)
	}
	// The admit that follows re-judges the identical candidate set and must
	// agree with the probe, core included.
	ra, err := sys.Admit(hc(1, 2, 5, 10))
	if err != nil || !ra.Admitted || ra.Core != r.Core {
		t.Fatalf("admit after probe: %+v %v, probe said %+v", ra, err, r)
	}
}

func TestBatchAllOrNothing(t *testing.T) {
	c := newTestController()
	sys := mustSystem(t, c, "t", 1)
	// Batch that cannot fit on one core at HI level.
	over := mcs.TaskSet{hc(1, 3, 6, 10), hc(2, 3, 6, 10)}
	br, err := sys.AdmitBatch(over)
	if err != nil {
		t.Fatal(err)
	}
	if br.Admitted {
		t.Fatalf("oversized batch admitted: %+v", br)
	}
	if n := sys.NumTasks(); n != 0 {
		t.Fatalf("rollback failed: %d tasks resident", n)
	}
	// A fitting batch commits every task.
	okBatch := mcs.TaskSet{hc(3, 1, 2, 10), lc(4, 2, 10), lc(5, 1, 10)}
	br, err = sys.AdmitBatch(okBatch)
	if err != nil || !br.Admitted {
		t.Fatalf("batch: %+v %v", br, err)
	}
	if n := sys.NumTasks(); n != 3 {
		t.Fatalf("batch committed %d tasks", n)
	}
	// Duplicate IDs within a batch are rejected up front.
	if _, err := sys.AdmitBatch(mcs.TaskSet{lc(9, 1, 10), lc(9, 1, 10)}); !errors.Is(err, ErrDuplicateTask) {
		t.Errorf("batch duplicate: %v", err)
	}
}

func TestGeneratedIDSkipsClaimedName(t *testing.T) {
	c := newTestController()
	mustSystem(t, c, "s1", 1)
	sys, err := c.CreateSystem("", 1, edfvd.Test{})
	if err != nil {
		t.Fatalf("generated-id create collided with claimed \"s1\": %v", err)
	}
	if sys.ID() == "s1" {
		t.Fatalf("generated ID reused claimed name %q", sys.ID())
	}
}

func TestRejectedBatchCountsOneReject(t *testing.T) {
	c := newTestController()
	sys := mustSystem(t, c, "t", 1)
	// Two heavy HC tasks cannot share the single core; the first places and
	// rolls back, only the misfit is a rejection.
	br, err := sys.AdmitBatch(mcs.TaskSet{hc(1, 3, 6, 10), hc(2, 3, 6, 10)})
	if err != nil || br.Admitted {
		t.Fatalf("batch: %+v %v", br, err)
	}
	st := c.Stats()
	if st.Rejects != 1 {
		t.Errorf("rejected batch counted %d rejects, want 1", st.Rejects)
	}
	if st.Admits != 0 {
		t.Errorf("rolled-back placements counted as %d admits", st.Admits)
	}
}

func TestProbeBatchDoesNotCommit(t *testing.T) {
	c := newTestController()
	sys := mustSystem(t, c, "t", 2)
	br, err := sys.ProbeBatch(mcs.TaskSet{hc(1, 1, 3, 10), lc(2, 2, 10)})
	if err != nil || !br.Admitted {
		t.Fatalf("probe batch: %+v %v", br, err)
	}
	for _, r := range br.Results {
		if !r.Probed {
			t.Errorf("result not marked probed: %+v", r)
		}
	}
	if n := sys.NumTasks(); n != 0 {
		t.Fatalf("probe batch committed: %d tasks", n)
	}
}

// TestTestsRunMatchesResponses holds the analysis accounting to one number:
// every response's Tests is the number of probes its decision made (an
// explained decision shows them), a batch's Tests is the sum of its
// entries', and Stats.TestsRun is exactly the sum over all responses.
func TestTestsRunMatchesResponses(t *testing.T) {
	c := newTestController()
	rng := rand.New(rand.NewSource(15))
	sum := 0
	for i, test := range core.Tests() {
		sys, err := c.CreateSystem(fmt.Sprintf("t%d", i), 4, test)
		if err != nil {
			t.Fatal(err)
		}
		gen := taskgen.DefaultConfig(4, 0.5, 0.3, 0.4)
		gen.Constrained = !core.ImplicitOnly(test)
		nextID := 0
		for round := 0; round < 4; round++ {
			ts, err := taskgen.Generate(rng, gen)
			if err != nil {
				continue
			}
			for j := range ts {
				ts[j].ID = nextID
				nextID++
			}
			for _, f := range []func(mcs.TaskSet) (BatchResult, error){sys.ProbeBatch, sys.AdmitBatch} {
				br, err := f(ts[:3])
				if err != nil {
					t.Fatal(err)
				}
				entries := 0
				for _, r := range br.Results {
					entries += r.Tests
				}
				if br.Tests != entries {
					t.Fatalf("%s: batch tests %d, entries sum to %d", test.Name(), br.Tests, entries)
				}
				sum += br.Tests
			}
			for _, task := range ts[3:] {
				probe, err := sys.Probe(task)
				if err != nil {
					t.Fatal(err)
				}
				res, trace, err := sys.AdmitExplain(task)
				if err != nil {
					t.Fatal(err)
				}
				if res.Tests != len(trace.Cores) || probe.Tests != res.Tests {
					t.Fatalf("%s: probe ran %d tests, admit %d, over a scan of %d cores",
						test.Name(), probe.Tests, res.Tests, len(trace.Cores))
				}
				sum += probe.Tests + res.Tests
			}
		}
	}
	if sum == 0 {
		t.Fatal("churn ran no analyses")
	}
	if got := c.Stats().TestsRun; got != uint64(sum) {
		t.Errorf("Stats.TestsRun = %d, responses sum to %d", got, sum)
	}
}

func TestCreateSystemBoundsProcessors(t *testing.T) {
	c := newTestController()
	if _, err := c.CreateSystem("big", MaxProcessors+1, edfvd.Test{}); err == nil {
		t.Error("m beyond MaxProcessors accepted")
	}
	if _, err := c.CreateSystem("ok", MaxProcessors, edfvd.Test{}); err != nil {
		t.Errorf("m = MaxProcessors rejected: %v", err)
	}
}

func TestEmptyBatchRejected(t *testing.T) {
	c := newTestController()
	sys := mustSystem(t, c, "t", 1)
	if _, err := sys.AdmitBatch(nil); err == nil {
		t.Error("empty admit batch accepted")
	}
	if _, err := sys.ProbeBatch(mcs.TaskSet{}); err == nil {
		t.Error("empty probe batch accepted")
	}
}

func TestRemoveSystemAndStats(t *testing.T) {
	c := newTestController()
	mustSystem(t, c, "a", 1)
	mustSystem(t, c, "b", 1)
	if got := c.SystemIDs(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("SystemIDs: %v", got)
	}
	var removed []string
	c.SetHooks(Hooks{Removed: func(id string) { removed = append(removed, id) }})
	if err := c.RemoveSystem("a"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveSystem("a"); !errors.Is(err, ErrNoSystem) {
		t.Errorf("double remove: %v", err)
	}
	if st := c.Stats(); st.Systems != 1 {
		t.Errorf("stats after remove: %+v", st)
	}
	if len(removed) != 1 || removed[0] != "a" {
		t.Errorf("Removed hook saw %v, want [a]", removed)
	}
	// Hooks without a Removed callback: a removal must not call it.
	c.SetHooks(Hooks{})
	if err := c.RemoveSystem("b"); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentTenants hammers independent tenants from many goroutines;
// run under -race this is the package-level concurrency check (the daemon
// test covers the HTTP layer).
func TestConcurrentTenants(t *testing.T) {
	c := newTestController()
	const tenants = 8
	const workers = 4
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		sys := mustSystem(t, c, fmt.Sprintf("t%d", i), 2)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(sys *System, w int) {
				defer wg.Done()
				for j := 0; j < 50; j++ {
					id := w*1000 + j
					sys.Probe(lc(id, 1, 10))
					if r, err := sys.Admit(lc(id, 1, 10)); err == nil && r.Admitted {
						sys.Release(id)
					}
					c.Stats()
				}
			}(sys, w)
		}
	}
	wg.Wait()
	st := c.Stats()
	if st.Tasks != 0 {
		t.Errorf("leftover tasks: %+v", st)
	}
}

// TestParallelConcurrentTenants hammers one controller from many goroutines
// across several tenants with generated task sets — the daemon's traffic
// shape — to give the race detector surface over the tenant locks, the
// per-core analyzers and the shared counters.
func TestParallelConcurrentTenants(t *testing.T) {
	ctrl := newTestController()
	const tenants = 4
	for i := 0; i < tenants; i++ {
		if _, err := ctrl.CreateSystem(fmt.Sprintf("t%d", i), 4, core.Tests()[0]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			cfg := taskgen.DefaultConfig(4, 0.4, 0.3, 0.3)
			sys, err := ctrl.System(fmt.Sprintf("t%d", g%tenants))
			if err != nil {
				t.Error(err)
				return
			}
			for round := 0; round < 3; round++ {
				ts, err := taskgen.Generate(rng, cfg)
				if err != nil {
					continue
				}
				for i := range ts {
					ts[i].ID = g*100000 + round*1000 + i
				}
				for _, task := range ts {
					sys.Probe(task)
					res, err := sys.Admit(task)
					if err != nil {
						t.Error(err)
						return
					}
					if res.Admitted && task.ID%2 == 0 {
						if _, err := sys.Release(task.ID); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := ctrl.Stats()
	if st.TestsRun == 0 {
		t.Errorf("no analyses ran: %+v", st)
	}
}
