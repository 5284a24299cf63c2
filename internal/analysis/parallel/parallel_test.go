package parallel

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestMapOrderAndCoverage checks Map evaluates every index exactly once and
// returns results in index order for every worker count.
func TestMapOrderAndCoverage(t *testing.T) {
	for _, w := range []int{1, 2, 5, 16} {
		e := New(w)
		var calls [100]atomic.Int32
		out := Map(e, len(calls), func(i int) int {
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
		e := New(w)
		mustPanic(fmt.Sprintf("Map workers=%d", w), func() {
			Map(e, 8, func(i int) int {
				if i == 2 {
					panic("boom")
				}
				return i
			})
		})
	}
}

// TestDefaultsAndEdges pins the constructor conventions and the empty-input
// behavior.
func TestDefaultsAndEdges(t *testing.T) {
	if got := New(0).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("New(0).Workers()=%d want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
	if got := New(-3).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("New(-3).Workers()=%d want GOMAXPROCS", got)
	}
	if got := Serial().Workers(); got != 1 {
		t.Errorf("Serial().Workers()=%d want 1", got)
	}
	e := New(4)
	if out := Map(e, 0, func(i int) int { return i }); len(out) != 0 {
		t.Errorf("Map over empty domain returned %v", out)
	}
}
