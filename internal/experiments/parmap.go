package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// parallelMap evaluates fn(s, i) for every i in [0, n) on up to workers
// goroutines and returns the results in index order, whatever order they
// finish in. Each worker builds its own scratch s with scratch() once and
// hands it to every job it runs, so no two jobs share it at once. Work is
// handed out dynamically, so uneven per-index cost balances across
// workers; workers == 1 runs inline with no goroutine. fn must be safe for
// concurrent invocation on distinct scratches.
//
// A panic inside a worker is captured — the earliest one, so the outcome is
// deterministic — and re-raised on the calling goroutine once the workers
// have drained: a parallel sweep panics on the goroutine that started it
// instead of killing the process from a bare goroutine.
func parallelMap[S, T any](workers, n int, scratch func() S, fn func(s S, i int) T) []T {
	out := make([]T, n)
	if workers <= 1 || n <= 1 {
		s := scratch()
		for i := 0; i < n; i++ {
			out[i] = fn(s, i)
		}
		return out
	}
	var next atomic.Int64
	var first atomic.Pointer[any] // the first worker panic's value
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					first.CompareAndSwap(nil, &r)
				}
			}()
			s := scratch()
			for first.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(s, i)
			}
		}()
	}
	wg.Wait()
	if p := first.Load(); p != nil {
		panic(fmt.Sprintf("experiments: sweep worker panicked: %v", *p))
	}
	return out
}
