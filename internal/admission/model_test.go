package admission

// Model-based lockstep test of the tenant state machine. The model below is
// the naive thing a reader would write from the paper: a task list per core,
// utilization sums folded from those lists every time they are needed, a
// cursor, and the schedulability test's own Schedulable, run cold — no
// incremental analyzers, no tentative commits (a batch is tried on a
// copy), no journal.
// TestTenantStateMachineLockstep drives it beside a real leader, a real
// follower and real restarts over seeded random operation sequences and
// requires the two to agree after every step.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"mcsched/internal/analysis/amc"
	"mcsched/internal/analysis/edfvd"
	"mcsched/internal/core"
	"mcsched/internal/journal"
	"mcsched/internal/mcs"
)

// model is the reference tenant.
type model struct {
	test             core.Test
	placement        string
	cores            []mcs.TaskSet
	cursor           int // core of the last commit, -1 before the first
	admits, releases uint64
}

func (m *model) clone() *model {
	c := *m
	c.cores = make([]mcs.TaskSet, len(m.cores))
	for k := range m.cores {
		c.cores[k] = m.cores[k].Clone()
	}
	return &c
}

// sums folds core k's utilizations in list order.
func (m *model) sums(k int) (ulh, uhh, ull float64) {
	for _, t := range m.cores[k] {
		if t.IsHC() {
			ulh, uhh = ulh+t.ULo, uhh+t.UHi
		} else {
			ull += t.ULo
		}
	}
	return
}

// order lists t's candidate cores: the paper's rule ("": HC worst-fit by
// UHH−ULH, LC first-fit), next-fit, or best-fit by total utilization ≤ 0.9.
func (m *model) order(t mcs.Task) []int {
	order := make([]int, len(m.cores))
	for i := range order {
		order[i] = i
	}
	key := func(int) float64 { return 0 }
	switch {
	case m.placement == "nf":
		for i := range order {
			order[i] = (max(m.cursor, 0) + i) % len(order)
		}
	case m.placement == "bf-total@0.9":
		key = func(k int) float64 { _, uhh, ull := m.sums(k); return -(uhh + ull) }
	case t.IsHC():
		key = func(k int) float64 { ulh, uhh, _ := m.sums(k); return uhh - ulh }
	}
	sort.SliceStable(order, func(i, j int) bool { return key(order[i]) < key(order[j]) })
	if m.placement != "bf-total@0.9" {
		return order
	}
	kept := order[:0]
	for _, k := range order {
		if _, uhh, ull := m.sums(k); uhh+ull+t.LevelUtil() <= 0.9 {
			kept = append(kept, k)
		}
	}
	return kept
}

// place returns the first candidate core whose task set still passes the
// test with t added, or -1.
func (m *model) place(t mcs.Task) int {
	for _, k := range m.order(t) {
		if m.test.Schedulable(append(m.cores[k].Clone(), t)) {
			return k
		}
	}
	return -1
}

// admit places tasks in order on a copy — sorted by decreasing level
// utilization when there are several — and keeps the copy only if all of
// them fit and keep is set. It returns the core of every task tried.
func (m *model) admit(ts mcs.TaskSet, keep bool) (cores []int, ok bool) {
	ts = ts.Clone()
	sort.SliceStable(ts, func(i, j int) bool {
		if ui, uj := ts[i].LevelUtil(), ts[j].LevelUtil(); ui != uj {
			return ui > uj
		}
		return ts[i].ID < ts[j].ID
	})
	w := m.clone()
	for _, t := range ts {
		k := w.place(t)
		cores = append(cores, k)
		if k < 0 {
			return cores, false
		}
		w.cores[k], w.cursor = append(w.cores[k], t), k
		w.admits++
	}
	if keep {
		*m = *w
	}
	return cores, true
}

func (m *model) release(id int) {
	for k := range m.cores {
		m.cores[k] = slices.DeleteFunc(m.cores[k], func(t mcs.Task) bool { return t.ID == id })
	}
	m.releases++
}

// fingerprint renders the model in System.Fingerprint's format.
func (m *model) fingerprint() string {
	var b strings.Builder
	for k, c := range m.cores {
		ulh, uhh, _ := m.sums(k)
		fmt.Fprintf(&b, "core%d[diff=%016x uhh=%016x]:", k, math.Float64bits(uhh-ulh), math.Float64bits(uhh))
		for _, t := range c {
			fmt.Fprintf(&b, " %d(%016x/%016x)", t.ID, math.Float64bits(t.ULo), math.Float64bits(t.UHi))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// The lockstep driver
// ---------------------------------------------------------------------------

const lockstepCores = 3

var lockstepPlacements = []string{"", "nf", "bf-total@0.9"}

// lockTenant pairs one real tenant ID with its model.
type lockTenant struct {
	id       string
	m        *model
	nextID   int
	resident []int
}

// lockstep is one run: a leader, a follower fed from the leader's journals,
// and the models of the tenants created so far.
type lockstep struct {
	t        *testing.T
	rng      *rand.Rand
	test     core.Test
	cfg      Config // the leader's; the follower's differs in DataDir and role
	leader   *Controller
	follower *Controller
	tenants  []*lockTenant
	// ops counts the operations played, by name; installs the snapshot
	// catch-ups among the follower syncs.
	ops      map[string]int
	installs int
}

func (ls *lockstep) followerConfig(dir string) Config {
	cfg := ls.cfg
	cfg.DataDir, cfg.Follower, cfg.SnapshotEvery = dir, true, 5
	return cfg
}

// task draws a small random task: implicit deadlines for EDF-VD, which
// needs them, constrained ones otherwise.
func (ls *lockstep) task(lt *lockTenant) mcs.Task {
	id := lt.nextID
	lt.nextID++
	period := []mcs.Ticks{10, 20, 25, 50, 100}[ls.rng.Intn(5)]
	clo := max(1, mcs.Ticks(float64(period)*(0.05+0.4*ls.rng.Float64())))
	chi, hc := clo, ls.rng.Intn(5) < 2
	if hc {
		chi = min(period, clo+mcs.Ticks(ls.rng.Intn(int(clo)+1)))
	}
	deadline := period
	if !core.ImplicitOnly(ls.test) {
		deadline = chi + mcs.Ticks(ls.rng.Intn(int(period-chi)+1))
	}
	if hc {
		return mcs.NewHCConstrained(id, clo, chi, period, deadline)
	}
	return mcs.NewLCConstrained(id, clo, period, deadline)
}

// check compares one controller's copy of a tenant with its model:
// partition and per-core aggregates (bit for bit, through the fingerprint),
// resident set, lifetime counters and placement name — and the cursor,
// except under the default placement, which never reads it and whose
// snapshots therefore do not carry it.
func (ls *lockstep) check(c *Controller, lt *lockTenant, who, after string) {
	ls.t.Helper()
	sys, err := c.System(lt.id)
	if err != nil {
		ls.t.Fatalf("%s after %s: %v", who, after, err)
	}
	if got, want := sys.Fingerprint(), lt.m.fingerprint(); got != want {
		ls.t.Fatalf("%s %s after %s: state diverged from the model:\nmodel:\n%s\n%s:\n%s", who, lt.id, after, want, who, got)
	}
	if got, want := len(sys.resident), len(lt.resident); got != want {
		ls.t.Fatalf("%s %s after %s: %d resident tasks, model %d", who, lt.id, after, got, want)
	}
	for _, id := range lt.resident {
		if !sys.resident[id] {
			ls.t.Fatalf("%s %s after %s: task %d not resident", who, lt.id, after, id)
		}
	}
	if sys.admits != lt.m.admits || sys.releases != lt.m.releases {
		ls.t.Fatalf("%s %s after %s: lifetime counters %d/%d, model %d/%d",
			who, lt.id, after, sys.admits, sys.releases, lt.m.admits, lt.m.releases)
	}
	if want, _ := core.PlacerByName(lt.m.placement); sys.PlacementName() != want.Name() {
		ls.t.Fatalf("%s %s after %s: placement %q, want %q", who, lt.id, after, sys.PlacementName(), want.Name())
	}
	if got := sys.asn.LastCore(); lt.m.placement != "" && got != lt.m.cursor {
		ls.t.Fatalf("%s %s after %s: cursor %d, model %d", who, lt.id, after, got, lt.m.cursor)
	}
}

// decide plays one admit or probe of either shape on the leader and the
// model and requires the same verdict for every task.
func (ls *lockstep) decide(lt *lockTenant, batch, commit bool) {
	ts := mcs.TaskSet{ls.task(lt)}
	for batch && len(ts) < 2+ls.rng.Intn(4) {
		ts = append(ts, ls.task(lt))
	}
	sys, err := ls.leader.System(lt.id)
	if err != nil {
		ls.t.Fatal(err)
	}
	var got BatchResult
	switch {
	case batch && commit:
		got, err = sys.AdmitBatch(ts)
	case batch:
		got, err = sys.ProbeBatch(ts)
	default:
		f := sys.Probe
		if commit {
			f = sys.Admit
		}
		var res AdmitResult
		res, err = f(ts[0])
		got = BatchResult{Admitted: res.Admitted, Results: []AdmitResult{res}}
	}
	if err != nil {
		ls.t.Fatal(err)
	}
	cores, ok := lt.m.admit(ts, commit)
	if got.Admitted != ok || len(got.Results) != len(cores) {
		ls.t.Fatalf("%s: decision on %v = %+v, model says %v on cores %v", lt.id, ts, got, ok, cores)
	}
	for i, r := range got.Results {
		if r.Core != cores[i] || r.Admitted != (cores[i] >= 0) || r.Probed == commit {
			ls.t.Fatalf("%s: task %d decided %+v, model says core %d", lt.id, r.TaskID, r, cores[i])
		}
		if ok && commit {
			lt.resident = append(lt.resident, r.TaskID)
		}
	}
}

// sync feeds the follower every record the leader has committed and it has
// not yet applied, by frames of up to three records; where the leader has
// already truncated them it installs the leader's snapshot instead.
func (ls *lockstep) sync() {
	for _, lt := range ls.tenants {
		sys, err := ls.leader.System(lt.id)
		if err != nil {
			ls.t.Fatal(err)
		}
		for {
			next := ls.follower.TenantNext(lt.id)
			recs, _, err := sys.Journal().ReadFrom(next, 3)
			if errors.Is(err, journal.ErrCompacted) {
				payload, seq, _, err := sys.Journal().Snapshot()
				if err != nil {
					ls.t.Fatal(err)
				}
				if _, err := ls.follower.ApplyReplicatedSnapshot(lt.id, seq, payload); err != nil {
					ls.t.Fatalf("install snapshot of %s at %d: %v", lt.id, seq, err)
				}
				ls.installs++
				continue
			}
			if err != nil {
				ls.t.Fatal(err)
			}
			if len(recs) == 0 {
				break
			}
			if _, applied, err := ls.follower.ApplyReplicatedRecords(lt.id, next, recs); err != nil || applied != len(recs) {
				ls.t.Fatalf("follower applied %d of %d records of %s from %d: %v", applied, len(recs), lt.id, next, err)
			}
		}
		ls.check(ls.follower, lt, "follower", "sync")
	}
}

// step plays one random operation and checks every tenant on the leader.
func (ls *lockstep) step() {
	ops := []string{"admit", "admit", "admit", "admit-batch", "probe", "probe-batch", "release",
		"snapshot", "recover", "follower-apply", "snapshot-catch-up", "promote"}
	op := ops[ls.rng.Intn(len(ops))]
	if len(ls.tenants) == 0 || (len(ls.tenants) < len(lockstepPlacements) && ls.rng.Intn(8) == 0) {
		op = "create"
	}
	ls.ops[op]++
	var lt *lockTenant
	if op != "create" {
		lt = ls.tenants[ls.rng.Intn(len(ls.tenants))]
	}
	switch op {
	case "create":
		lt = &lockTenant{id: fmt.Sprintf("t%d", len(ls.tenants))}
		lt.m = &model{test: ls.test, placement: lockstepPlacements[len(ls.tenants)],
			cores: make([]mcs.TaskSet, lockstepCores), cursor: -1}
		if _, err := ls.leader.CreateSystemWithPlacement(lt.id, lockstepCores, ls.test, lt.m.placement); err != nil {
			ls.t.Fatal(err)
		}
		ls.tenants = append(ls.tenants, lt)
	case "admit", "admit-batch", "probe", "probe-batch":
		ls.decide(lt, strings.HasSuffix(op, "-batch"), strings.HasPrefix(op, "admit"))
	case "release":
		if len(lt.resident) == 0 {
			break
		}
		i := ls.rng.Intn(len(lt.resident))
		sys, _ := ls.leader.System(lt.id)
		if n, err := sys.Release(lt.resident[i]); err != nil || n != 1 {
			ls.t.Fatalf("release %d of %s = %d, %v", lt.resident[i], lt.id, n, err)
		}
		lt.m.release(lt.resident[i])
		lt.resident = append(lt.resident[:i], lt.resident[i+1:]...)
	case "snapshot":
		if err := ls.leader.SnapshotSystem(lt.id); err != nil {
			ls.t.Fatal(err)
		}
	case "recover":
		// Restart the leader on its own data directory.
		if err := ls.leader.Close(); err != nil {
			ls.t.Fatal(err)
		}
		ls.leader = NewController(ls.cfg)
		if rs, err := ls.leader.Recover(); err != nil || rs.Systems != len(ls.tenants) {
			ls.t.Fatalf("Recover = %+v, %v; want %d systems", rs, err, len(ls.tenants))
		}
	case "follower-apply":
		ls.sync()
	case "snapshot-catch-up":
		// Truncate under the follower's feet, so that a lagging follower
		// can only catch up through the snapshot.
		if err := ls.leader.SnapshotSystem(lt.id); err != nil {
			ls.t.Fatal(err)
		}
		ls.sync()
	case "promote":
		// Fail over: the caught-up follower becomes the leader, the old
		// leader is gone, and a new empty follower takes its place.
		ls.sync()
		if err := ls.leader.Close(); err != nil {
			ls.t.Fatal(err)
		}
		if !ls.follower.Promote() {
			ls.t.Fatal("follower was already promoted")
		}
		ls.leader, ls.cfg.DataDir = ls.follower, ls.follower.cfg.DataDir
		ls.follower = NewController(ls.followerConfig(ls.t.TempDir()))
	}
	for _, lt := range ls.tenants {
		ls.check(ls.leader, lt, "leader", op)
	}
}

func TestTenantStateMachineLockstep(t *testing.T) {
	seeds, steps := 4, 160
	if testing.Short() {
		seeds = 2
	}
	for _, test := range []core.Test{edfvd.Test{}, amc.Test{Opts: amc.DefaultOptions()}} {
		for seed := 1; seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", test.Name(), seed), func(t *testing.T) {
				t.Parallel()
				ls := &lockstep{t: t, rng: rand.New(rand.NewSource(int64(seed))), test: test, ops: map[string]int{}}
				ls.cfg = DefaultConfig()
				ls.cfg.DataDir, ls.cfg.SnapshotEvery = t.TempDir(), 7
				ls.leader = NewController(ls.cfg)
				ls.follower = NewController(ls.followerConfig(t.TempDir()))
				for i := 0; i < steps; i++ {
					ls.step()
				}
				// Final word: the follower and a cold restart both agree.
				ls.sync()
				ls.leader.Close()
				ls.follower.Close()
				rec := NewController(ls.cfg)
				if _, err := rec.Recover(); err != nil {
					t.Fatal(err)
				}
				defer rec.Close()
				for _, lt := range ls.tenants {
					ls.check(rec, lt, "recovered", "the run")
				}
				if census := rec.Stats().Placements; census["udp-ca"] != 1 || census["nf"] != 1 || census["bf-total@0.9"] != 1 {
					t.Errorf("recovered placement census %v, want one tenant per placement", census)
				}
				for _, op := range []string{"create", "admit", "admit-batch", "probe", "probe-batch", "release",
					"snapshot", "recover", "follower-apply", "snapshot-catch-up", "promote"} {
					if ls.ops[op] == 0 {
						t.Errorf("the run never played %q", op)
					}
				}
				if len(ls.tenants) != len(lockstepPlacements) || ls.installs == 0 {
					t.Errorf("%d of %d placements created, %d snapshot installs; the run must see all of them",
						len(ls.tenants), len(lockstepPlacements), ls.installs)
				}
			})
		}
	}
}
