package kernel

import (
	"testing"

	"mcsched/internal/mcs"
)

type always bool

func (always) Name() string                   { return "always" }
func (a always) Schedulable(mcs.TaskSet) bool { return bool(a) }

// TestStatelessCountsExactRuns: a test with no incremental engine decides
// every probe by an exact run, and its counters say so.
func TestStatelessCountsExactRuns(t *testing.T) {
	s := NewStateless(always(true))
	for range 3 {
		if !s.Schedulable(nil) {
			t.Fatal("the wrapped test's verdict is lost")
		}
	}
	if got := *s.Counters(); got != (Counters{ExactRuns: 3}) {
		t.Errorf("counters %+v, want 3 exact runs", got)
	}
}
