package core

import (
	"math"
	"math/rand"
	"testing"

	"mcsched/internal/analysis/edfvd"
	"mcsched/internal/mcs"
)

// placerTestAssigner builds an assigner with a deterministic random load:
// tasks are committed round-robin with occasional skips so the per-core
// utilizations differ.
func placerTestAssigner(t *testing.T, m int, seed int64) *Assigner {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := NewAssigner(m, edfvd.Test{})
	for id := 0; id < 4*m; id++ {
		period := mcs.Ticks(10 + rng.Intn(90))
		cl := mcs.Ticks(1 + rng.Intn(int(period)/4+1))
		var task mcs.Task
		if rng.Intn(2) == 0 {
			task = mcs.NewHC(id, cl, cl+mcs.Ticks(rng.Intn(int(period)/4+1)), period)
		} else {
			task = mcs.NewLC(id, cl, period)
		}
		a.Commit(task, rng.Intn(m))
	}
	return a
}

func TestPlacerRegistry(t *testing.T) {
	ps := Placers()
	if len(ps) < 10 {
		t.Fatalf("registry holds %d placers, want >= 10", len(ps))
	}
	if ps[0].Name() != DefaultPlacement {
		t.Fatalf("registry leads with %q, want the default %q", ps[0].Name(), DefaultPlacement)
	}
	seen := map[string]bool{}
	for _, p := range ps {
		name := p.Name()
		if seen[name] {
			t.Fatalf("duplicate registry name %q", name)
		}
		seen[name] = true
		got, ok := PlacerByName(name)
		if !ok || got.Name() != name {
			t.Fatalf("PlacerByName(%q) = %v, %v", name, got, ok)
		}
	}
	if names := PlacementNames(); len(names) != len(ps) || names[0] != DefaultPlacement {
		t.Fatalf("PlacementNames mismatch: %v", names)
	}
	if p, ok := PlacerByName(""); !ok || p.Name() != DefaultPlacement {
		t.Fatalf("empty name resolved to %v, %v", p, ok)
	}
}

func TestPlacerByNameLimits(t *testing.T) {
	valid := []string{"ff@0.5", "wf-total@1", "udp-ca@0.75", "prm-ll@0.001"}
	for _, name := range valid {
		p, ok := PlacerByName(name)
		if !ok {
			t.Errorf("PlacerByName(%q) rejected", name)
			continue
		}
		if p.Name() != name {
			t.Errorf("PlacerByName(%q).Name() = %q, not canonical", name, p.Name())
		}
	}
	invalid := []string{
		"nope", "ff@", "ff@0", "ff@-0.5", "ff@1.5", "ff@abc", "ff@NaN",
		"ff@0.50", // non-canonical spelling must not round-trip
		"@0.5", "nope@0.5", "ff@0.5@0.5",
	}
	for _, name := range invalid {
		if p, ok := PlacerByName(name); ok {
			t.Errorf("PlacerByName(%q) accepted as %q", name, p.Name())
		}
	}
}

func TestURMBound(t *testing.T) {
	if got := urm(0); got != 1 {
		t.Errorf("urm(0) = %g, want 1", got)
	}
	if got := urm(1); got != 1 {
		t.Errorf("urm(1) = %g, want 1", got)
	}
	if got, want := urm(2), 2*(math.Sqrt2-1); math.Abs(got-want) > 1e-12 {
		t.Errorf("urm(2) = %g, want %g", got, want)
	}
	prev := urm(1)
	for n := 2; n <= 64; n++ {
		u := urm(n)
		if u >= prev {
			t.Fatalf("urm not strictly decreasing at n=%d: %g >= %g", n, u, prev)
		}
		prev = u
	}
	if math.Abs(urm(1<<20)-math.Ln2) > 1e-5 {
		t.Errorf("urm(n) does not approach ln 2: %g", urm(1<<20))
	}
}

// TestPlacerOrderProperties checks the structural contract of every
// registered placer: candidate orders visit distinct in-range cores, and
// sorted policies rank them by non-decreasing Score.
func TestPlacerOrderProperties(t *testing.T) {
	const m = 6
	tasks := []mcs.Task{
		mcs.NewHC(100, 2, 4, 20),
		mcs.NewLC(101, 3, 30),
	}
	for _, p := range Placers() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			for seed := int64(0); seed < 6; seed++ {
				a := placerTestAssigner(t, m, seed)
				for _, task := range tasks {
					order := p.Order(a, task)
					if len(order) > m {
						t.Fatalf("order longer than core count: %v", order)
					}
					seen := map[int]bool{}
					for _, k := range order {
						if k < 0 || k >= m || seen[k] {
							t.Fatalf("order %v has out-of-range or duplicate core %d", order, k)
						}
						seen[k] = true
					}
					// Sorting placers must agree with their own score —
					// non-decreasing along the scan. prm-ll is a pure
					// filter (first-fit over surviving cores) whose score
					// is informational slack, so it is exempt.
					if p.Name() != "prm-ll" {
						scores := make([]float64, len(order))
						for i, k := range order {
							scores[i] = p.Score(a, task, k)
						}
						for i := 1; i < len(scores); i++ {
							if scores[i] < scores[i-1]-1e-12 {
								t.Fatalf("scan position %d has score %g < previous %g (order %v, scores %v)",
									i, scores[i], scores[i-1], order, scores)
							}
						}
					}
					if p.Policy(task) == "" {
						t.Fatal("empty policy string")
					}
				}
			}
		})
	}
}

// TestNextFitCursor pins the next-fit rotation: the scan starts at the
// last-committed core and wraps.
func TestNextFitCursor(t *testing.T) {
	nf, _ := PlacerByName("nf")
	a := NewAssigner(4, edfvd.Test{})
	task := mcs.NewLC(0, 1, 10)
	order := nf.Order(a, task)
	if order[0] != 0 {
		t.Fatalf("empty assigner should scan from core 0: %v", order)
	}
	a.Commit(mcs.NewLC(1, 1, 10), 2)
	order = nf.Order(a, task)
	want := []int{2, 3, 0, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("after commit on core 2, order = %v, want %v", order, want)
		}
	}
}

// TestPRMFilter pins the Liu–Layland pre-filter: cores whose bound the
// incoming task would break are excluded, with positive slack elsewhere.
func TestPRMFilter(t *testing.T) {
	prm, _ := PlacerByName("prm-ll")
	a := NewAssigner(2, edfvd.Test{})
	// Core 0: two tasks at 0.3 total utilization each -> urm(3) ≈ 0.7798.
	a.Commit(mcs.NewLC(0, 3, 10), 0)
	a.Commit(mcs.NewLC(1, 3, 10), 0)
	heavy := mcs.NewLC(2, 5, 10) // u = 0.5: 0.6+0.5 > urm(3), must exclude core 0
	order := prm.Order(a, heavy)
	if len(order) != 1 || order[0] != 1 {
		t.Fatalf("heavy task order = %v, want [1]", order)
	}
	if s := prm.Score(a, heavy, 0); s >= 0 {
		t.Fatalf("excluded core has non-negative slack %g", s)
	}
	light := mcs.NewLC(3, 1, 10) // u = 0.1: 0.7 < urm(3), both cores remain
	if order := prm.Order(a, light); len(order) != 2 {
		t.Fatalf("light task order = %v, want both cores", order)
	}
}

// TestLimitedPlacerExcludes pins the "<name>@<limit>" cap: cores whose
// total utilization would exceed the limit are pruned from the base order.
func TestLimitedPlacerExcludes(t *testing.T) {
	capped, ok := PlacerByName("ff@0.5")
	if !ok {
		t.Fatal("ff@0.5 did not resolve")
	}
	a := NewAssigner(3, edfvd.Test{})
	a.Commit(mcs.NewLC(0, 4, 10), 0) // core 0 at 0.4
	task := mcs.NewLC(1, 2, 10)      // u = 0.2: core 0 would reach 0.6 > 0.5
	order := capped.Order(a, task)
	want := []int{1, 2}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestAssignerLCUtilizationTracking checks the incremental Σ u^L of LC
// tasks (ull) against recomputation from the committed sets, across
// commits and removals.
func TestAssignerLCUtilizationTracking(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	a := NewAssigner(3, edfvd.Test{})
	var ids []int
	check := func(when string) {
		t.Helper()
		for k := 0; k < a.NumCores(); k++ {
			c := a.Core(k)
			if got, want := a.ULL(k), c.ULL(); math.Abs(got-want) > 1e-9 {
				t.Fatalf("%s: core %d ULL drifted: %g vs recomputed %g", when, k, got, want)
			}
			if got, want := a.LoUtil(k), c.ULH()+c.ULL(); math.Abs(got-want) > 1e-9 {
				t.Fatalf("%s: core %d LoUtil: %g vs %g", when, k, got, want)
			}
			if got, want := a.TotalUtil(k), c.UHH()+c.ULL(); math.Abs(got-want) > 1e-9 {
				t.Fatalf("%s: core %d TotalUtil: %g vs %g", when, k, got, want)
			}
		}
	}
	for id := 0; id < 30; id++ {
		period := mcs.Ticks(10 + rng.Intn(40))
		cl := mcs.Ticks(1 + rng.Intn(5))
		var task mcs.Task
		if rng.Intn(2) == 0 {
			task = mcs.NewHC(id, cl, cl+1, period)
		} else {
			task = mcs.NewLC(id, cl, period)
		}
		a.Commit(task, rng.Intn(3))
		ids = append(ids, id)
		check("after commit")
		if len(ids) > 4 && rng.Intn(3) == 0 {
			i := rng.Intn(len(ids))
			if _, ok := a.Remove(ids[i]); !ok {
				t.Fatalf("resident task %d not removable", ids[i])
			}
			ids = append(ids[:i], ids[i+1:]...)
			check("after remove")
		}
	}
}
