package core

import (
	"mcsched/internal/analysis/kernel"
	"mcsched/internal/mcs"
)

// Memoizer is an optional capability of a Test: a decorator that wants to
// stand around every analysis the Assigner runs — to count it (the
// admission layer) or time it (the load harness). When the Assigner detects
// it, each candidate probe becomes Memoize(candidate, that core's analyzer)
// instead of a direct analyzer call; the analyzer stays the thing that
// decides.
type Memoizer interface {
	// Memoize returns the verdict for ts, calling compute(ts) at most
	// once. compute must be invoked synchronously (ts is caller-owned
	// scratch, invalid after return).
	Memoize(ts mcs.TaskSet, compute func(mcs.TaskSet) bool) bool
}

// Unwrapper exposes the Test a decorator wraps, so the Assigner can find
// the analysis family underneath (e.g. the admission layer's counting
// wrapper around an AMC test) and build its incremental per-core analyzers.
type Unwrapper interface {
	Unwrap() Test
}

// analyzerFor resolves the per-core analyzer for a test: decorators are
// unwrapped, families implementing kernel.Incremental provide their engine,
// anything else gets the stateless adapter.
func analyzerFor(test Test) kernel.Analyzer {
	t := test
	for {
		if inc, ok := t.(kernel.Incremental); ok {
			return inc.NewAnalyzer()
		}
		if u, ok := t.(Unwrapper); ok {
			t = u.Unwrap()
			continue
		}
		return kernel.NewStateless(t)
	}
}
