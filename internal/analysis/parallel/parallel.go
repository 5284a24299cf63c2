// Package parallel is a small worker-pool layer that fans independent
// function evaluations out across goroutines and hands the results back in
// index order.
//
// The package is deliberately generic — it knows nothing about tasks, cores
// or tests. Its one primitive, Map, evaluates an index-addressed function
// over [0, n) with bounded concurrency and returns the results in index
// order. The experiment driver in internal/experiments uses it for
// task-set-level parallelism of acceptance-ratio sweeps; nothing on the
// admission path does (a placement's candidate probes are a serial loop in
// internal/core).
//
// Map is deterministic for deterministic inputs: the result slice is
// ordered by index regardless of completion order. Callers must supply
// functions that are safe for concurrent invocation.
//
// A panic inside a worker is captured and re-raised on the calling
// goroutine once the workers have drained, so a parallel sweep panics on
// the goroutine that started it instead of killing the process from a bare
// goroutine.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// capturedPanic carries a worker panic back to the calling goroutine.
type capturedPanic struct{ value any }

// guard runs fn, converting a panic into a stored capturedPanic. first
// keeps only the earliest capture so the re-raised panic is deterministic
// under concurrency.
func guard(first *atomic.Pointer[capturedPanic], fn func()) {
	defer func() {
		if r := recover(); r != nil {
			first.CompareAndSwap(nil, &capturedPanic{value: r})
		}
	}()
	fn()
}

// rethrow re-raises a captured worker panic on the caller.
func rethrow(first *atomic.Pointer[capturedPanic]) {
	if p := first.Load(); p != nil {
		panic(fmt.Sprintf("parallel: worker panicked: %v", p.value))
	}
}

// Engine fans independent function evaluations across a fixed number of
// worker goroutines. The zero value is not useful; use New. An Engine is
// immutable after construction and safe for concurrent use by any number of
// callers — goroutines are spawned per call, so idle engines cost nothing.
type Engine struct {
	workers int
}

// New returns an engine with the given concurrency. workers <= 0 selects
// GOMAXPROCS; workers == 1 yields a serial engine whose methods run inline
// with no goroutines at all.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers}
}

// Serial returns the inline single-worker engine.
func Serial() *Engine { return &Engine{workers: 1} }

// Workers reports the engine's concurrency.
func (e *Engine) Workers() int { return e.workers }

// Map evaluates fn(i) for every i in [0, n) across the engine's workers and
// returns the results in index order. Work is handed out dynamically, so
// uneven per-index cost balances across workers; the result ordering is
// deterministic regardless. fn must be safe for concurrent invocation.
func Map[T any](e *Engine, n int, fn func(i int) T) []T {
	out := make([]T, n)
	if e.workers == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	var next atomic.Int64
	var first atomic.Pointer[capturedPanic]
	var wg sync.WaitGroup
	for w := 0; w < min(e.workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				guard(&first, func() { out[i] = fn(i) })
			}
		}()
	}
	wg.Wait()
	rethrow(&first)
	return out
}
