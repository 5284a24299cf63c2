package core

import (
	"mcsched/internal/analysis/kernel"
	"mcsched/internal/mcs"
)

// Memoizer is an optional capability of a Test: a probe hook that stands
// around every analysis the Assigner runs. When the Assigner detects it,
// each candidate probe becomes Memoize(candidate, that core's analyzer)
// instead of a direct analyzer call; the analyzer stays the thing that
// decides, and the Assigner counts the probe itself (Probes). Its only
// implementer is cmd/mcload's tracedTest, which times each probe.
type Memoizer interface {
	// Memoize returns compute(ts), calling compute exactly once and
	// synchronously (ts is caller-owned scratch, invalid after return).
	Memoize(ts mcs.TaskSet, compute func(mcs.TaskSet) bool) bool
}

// Unwrapper exposes the Test a decorator wraps, so the Assigner can find
// the analysis family underneath (cmd/mcload's tracing wrapper around an
// AMC test, say) and build its incremental per-core analyzers.
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
