package experiments

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestMapOrderAndCoverage checks parallelMap evaluates every index exactly
// once and returns results in index order for every worker count, and an
// empty slice for an empty domain; and that every worker builds one
// scratch and no two jobs hold one at once.
func TestMapOrderAndCoverage(t *testing.T) {
	type scratch struct{ busy atomic.Bool }
	for _, w := range []int{1, 2, 5, 16} {
		if out := parallelMap(w, 0, func() int { return 0 }, func(_, i int) int { return i }); len(out) != 0 {
			t.Errorf("workers %d: empty domain returned %v", w, out)
		}
		var calls [100]atomic.Int32
		var built atomic.Int32
		out := parallelMap(w, len(calls), func() *scratch {
			built.Add(1)
			return new(scratch)
		}, func(s *scratch, i int) int {
			if s.busy.Swap(true) {
				t.Errorf("workers %d: index %d shares a scratch with a running job", w, i)
			}
			calls[i].Add(1)
			s.busy.Store(false)
			return i * i
		})
		if n := built.Load(); n < 1 || int(n) > w {
			t.Errorf("workers %d: %d scratches built, want 1 to %d", w, n, w)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers %d: out[%d]=%d want %d", w, i, v, i*i)
			}
			if c := calls[i].Load(); c != 1 {
				t.Fatalf("workers %d: index %d evaluated %d times", w, i, c)
			}
		}
	}
}

// TestPanicPropagation verifies a worker panic surfaces on the calling
// goroutine — never on a bare goroutine, which would kill the process — for
// serial and parallel engines.
func TestPanicPropagation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: panic did not propagate to the caller", name)
			}
		}()
		fn()
	}
	for _, w := range []int{1, 4} {
		mustPanic(fmt.Sprintf("workers=%d", w), func() {
			parallelMap(w, 8, func() int { return 0 }, func(_, i int) int {
				if i == 2 {
					panic("boom")
				}
				return i
			})
		})
	}
}
