package mcs

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func sample() TaskSet {
	return TaskSet{
		NewHC(0, 10, 30, 100), // uL=0.1 uH=0.3
		NewLC(1, 20, 100),     // u=0.2
		NewHC(2, 5, 10, 50),   // uL=0.1 uH=0.2
		NewLC(3, 15, 50),      // u=0.3
	}
}

func TestAggregates(t *testing.T) {
	ts := sample()
	if got := ts.ULL(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("ULL = %g, want 0.5", got)
	}
	if got := ts.ULH(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("ULH = %g, want 0.2", got)
	}
	if got := ts.UHH(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("UHH = %g, want 0.5", got)
	}
	if got := ts.UtilDiff(); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("UtilDiff = %g, want 0.3", got)
	}
	if got := ts.TotalLo(); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("TotalLo = %g, want 0.7", got)
	}
}

func TestBound(t *testing.T) {
	ts := sample()
	// UB = max(0.7, 0.5)/m
	if got := ts.Bound(1); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("Bound(1) = %g, want 0.7", got)
	}
	if got := ts.Bound(2); math.Abs(got-0.35) > 1e-12 {
		t.Errorf("Bound(2) = %g, want 0.35", got)
	}
}

func TestHCLCSplit(t *testing.T) {
	ts := sample()
	hc, lc := ts.HC(), ts.LC()
	if len(hc) != 2 || len(lc) != 2 {
		t.Fatalf("split sizes = %d,%d want 2,2", len(hc), len(lc))
	}
	if hc[0].ID != 0 || hc[1].ID != 2 {
		t.Errorf("HC order not preserved: %v %v", hc[0].ID, hc[1].ID)
	}
	for _, task := range hc {
		if !task.IsHC() {
			t.Errorf("HC() returned LC task %d", task.ID)
		}
	}
}

func TestValidateSet(t *testing.T) {
	if err := (TaskSet{}).Validate(); err != ErrEmptyTaskSet {
		t.Errorf("empty set error = %v", err)
	}
	dup := TaskSet{NewLC(1, 1, 10), NewLC(1, 1, 10)}
	if err := dup.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate IDs error = %v", err)
	}
	if err := sample().Validate(); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
}

// validateByMap is Validate as it was written with a set of seen IDs: the
// reference for which error comes first.
func validateByMap(ts TaskSet) error {
	if len(ts) == 0 {
		return ErrEmptyTaskSet
	}
	seen := map[int]bool{}
	for _, t := range ts {
		if err := t.Validate(); err != nil {
			return err
		}
		if seen[t.ID] {
			return fmt.Errorf("mcs: duplicate task ID %d", t.ID)
		}
		seen[t.ID] = true
	}
	return nil
}

// TestValidateMatchesMapVersion: the allocation-free duplicate check must
// report exactly the error the map reported — same duplicate, same
// precedence against an invalid task — on both sides of dupScanMax.
func TestValidateMatchesMapVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(2*dupScanMax)
		ids := n // distinct IDs to draw from: about half the sets repeat one
		if rng.Intn(2) == 0 {
			ids = 20 * n
		}
		ts := make(TaskSet, n)
		for i := range ts {
			ts[i] = NewLC(rng.Intn(ids), 1, 10)
			if rng.Intn(4*n) == 0 {
				ts[i].Period = 0 // an invalid task somewhere
			}
		}
		if got, want := errText(ts.Validate()), errText(validateByMap(ts)); got != want {
			t.Fatalf("n=%d: Validate %q, map version %q", n, got, want)
		}
	}
	ts := make(TaskSet, 40) // 5m at m=8
	for i := range ts {
		ts[i] = NewLC(i, 1, 10)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = ts.Validate() }); allocs != 0 {
		t.Errorf("Validate of %d tasks allocates %v times", len(ts), allocs)
	}
}

func TestSortByLevelUtil(t *testing.T) {
	ts := sample()
	ts.SortByLevelUtil()
	// Level utils: τ0=0.3, τ1=0.2, τ2=0.2, τ3=0.3. Sorted desc with ID
	// tiebreak: τ0(0.3), τ3(0.3), τ1(0.2), τ2(0.2).
	wantIDs := []int{0, 3, 1, 2}
	for i, want := range wantIDs {
		if ts[i].ID != want {
			t.Fatalf("sorted order = %v at %d, want %v", ts[i].ID, i, wantIDs)
		}
	}
}

// TestSortByLevelUtilTies holds the sort to the permutation a stable sort
// by (level utilization desc, ID asc) gives, on sets large enough to leave
// the insertion-sort regime and with most utilizations tied — including
// HC/LC ties, where the two classes read different fields.
func TestSortByLevelUtilTies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		n := 2 + rng.Intn(60)
		ts := make(TaskSet, n)
		for i, id := range rng.Perm(n) {
			c := Ticks(1 + rng.Intn(3)) // three distinct utilizations at most
			if rng.Intn(2) == 0 {
				ts[i] = NewHC(id, 1, c, 10)
			} else {
				ts[i] = NewLC(id, c, 10)
			}
		}
		want := ts.Clone()
		sort.SliceStable(want, func(i, j int) bool {
			if ui, uj := want[i].LevelUtil(), want[j].LevelUtil(); ui != uj {
				return ui > uj
			}
			return want[i].ID < want[j].ID
		})
		ts.SortByLevelUtil()
		for i := range want {
			if ts[i] != want[i] {
				t.Fatalf("round %d: position %d holds task %d, stable order has task %d", round, i, ts[i].ID, want[i].ID)
			}
		}
	}
}

func TestHyperperiod(t *testing.T) {
	ts := TaskSet{NewLC(0, 1, 4), NewLC(1, 1, 6)}
	if got := ts.Hyperperiod(0); got != 12 {
		t.Errorf("Hyperperiod = %d, want 12", got)
	}
	if got := ts.Hyperperiod(10); got != 10 {
		t.Errorf("capped Hyperperiod = %d, want 10", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	ts := sample()
	cp := ts.Clone()
	cp[0].ID = 99
	if ts[0].ID == 99 {
		t.Error("Clone shares backing storage")
	}
}

func TestByID(t *testing.T) {
	ts := sample()
	if task, ok := ts.ByID(2); !ok || task.Period != 50 {
		t.Errorf("ByID(2) = %v, %v", task, ok)
	}
	if _, ok := ts.ByID(42); ok {
		t.Error("ByID(42) found a ghost task")
	}
}

func TestSetString(t *testing.T) {
	s := sample().String()
	if !strings.Contains(s, "n=4") || !strings.Contains(s, "τ2") {
		t.Errorf("String() = %q", s)
	}
}

func TestImplicit(t *testing.T) {
	ts := sample()
	if !ts.Implicit() {
		t.Error("sample should be implicit")
	}
	ts = append(ts, NewHCConstrained(9, 1, 2, 10, 5))
	if ts.Implicit() {
		t.Error("set with constrained task reported implicit")
	}
}
