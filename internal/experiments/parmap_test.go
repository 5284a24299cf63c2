package experiments

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestMapOrderAndCoverage checks parallelMap evaluates every index exactly
// once and returns results in index order for every worker count, and an
// empty slice for an empty domain.
func TestMapOrderAndCoverage(t *testing.T) {
	for _, w := range []int{1, 2, 5, 16} {
		if out := parallelMap(w, 0, func(i int) int { return i }); len(out) != 0 {
			t.Errorf("workers %d: empty domain returned %v", w, out)
		}
		var calls [100]atomic.Int32
		out := parallelMap(w, len(calls), func(i int) int {
			calls[i].Add(1)
			return i * i
		})
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
			parallelMap(w, 8, func(i int) int {
				if i == 2 {
					panic("boom")
				}
				return i
			})
		})
	}
}
