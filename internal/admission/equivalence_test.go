package admission

import (
	"fmt"
	"math/rand"
	"testing"

	"mcsched/internal/core"
	"mcsched/internal/taskgen"
)

// certify asserts the invariant the whole subsystem exists to maintain:
// every non-empty core of the snapshot passes the system's test — judged
// directly by the test's own Schedulable, bypassing the per-core analyzers.
func certify(t *testing.T, test core.Test, sys *System, when string) {
	t.Helper()
	p := sys.Snapshot()
	for k, coreSet := range p.Cores {
		if len(coreSet) == 0 {
			continue
		}
		if !test.Schedulable(coreSet) {
			t.Fatalf("%s: %s rejects core %d of system %s:\n%v",
				when, test.Name(), k, sys.ID(), coreSet)
		}
	}
}

// TestEquivalenceRandomSequences drives random admit/probe/release/batch
// sequences against every test and certifies after each mutation that all
// per-core task sets remain schedulable — the online analogue of
// core.Algorithm.Verify.
func TestEquivalenceRandomSequences(t *testing.T) {
	for _, test := range core.Tests() {
		test := test
		t.Run(test.Name(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(2017))
			ctrl := NewController(DefaultConfig())
			sys, err := ctrl.CreateSystem("eq", 4, test)
			if err != nil {
				t.Fatal(err)
			}

			constrained := !core.ImplicitOnly(test)
			cfg := taskgen.DefaultConfig(4, 0.5, 0.3, 0.4)
			cfg.Constrained = constrained

			nextID := 0
			var resident []int
			admits := 0
			for round := 0; round < 6; round++ {
				ts, err := taskgen.Generate(rng, cfg)
				if err != nil {
					continue
				}
				for _, task := range ts {
					task.ID = nextID
					nextID++
					switch rng.Intn(10) {
					case 0, 1: // release a random resident task
						if len(resident) > 0 {
							i := rng.Intn(len(resident))
							if _, err := sys.Release(resident[i]); err != nil {
								t.Fatal(err)
							}
							resident = append(resident[:i], resident[i+1:]...)
							certify(t, test, sys, "after release")
						}
						fallthrough
					default:
						probe, err := sys.Probe(task)
						if err != nil {
							t.Fatal(err)
						}
						res, err := sys.Admit(task)
						if err != nil {
							t.Fatal(err)
						}
						// A probe and the admit that follows it must agree:
						// nothing changed in between.
						if probe.Admitted != res.Admitted {
							t.Fatalf("probe said %v, admit said %v for %v",
								probe.Admitted, res.Admitted, task)
						}
						if res.Admitted {
							resident = append(resident, task.ID)
							admits++
						}
						certify(t, test, sys, "after admit")
					}
				}
			}
			if admits == 0 {
				t.Error("sequence admitted nothing; sweep uninformative")
			}
		})
	}
}

// TestEquivalenceBatchMatchesSequential: an admitted batch must yield
// certified cores, and a rejected batch must leave the system exactly as
// before — for every test.
func TestEquivalenceBatchMatchesSequential(t *testing.T) {
	for _, test := range core.Tests() {
		test := test
		t.Run(test.Name(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(42))
			ctrl := NewController(DefaultConfig())
			sys, err := ctrl.CreateSystem("b", 2, test)
			if err != nil {
				t.Fatal(err)
			}
			cfg := taskgen.DefaultConfig(2, 0.4, 0.25, 0.3)
			cfg.Constrained = !core.ImplicitOnly(test)
			accepted, rejected := 0, 0
			nextID := 0
			for round := 0; round < 8; round++ {
				ts, err := taskgen.Generate(rng, cfg)
				if err != nil {
					continue
				}
				for i := range ts {
					ts[i].ID = nextID
					nextID++
				}
				before := fmt.Sprint(sys.Snapshot())
				br, err := sys.AdmitBatch(ts)
				if err != nil {
					t.Fatal(err)
				}
				if br.Admitted {
					accepted++
					certify(t, test, sys, "after batch admit")
					// Clean the slate for the next batch.
					var ids []int
					for _, r := range br.Results {
						ids = append(ids, r.TaskID)
					}
					if _, err := sys.Release(ids...); err != nil {
						t.Fatal(err)
					}
				} else {
					rejected++
					if after := fmt.Sprint(sys.Snapshot()); after != before {
						t.Fatalf("rejected batch mutated state:\n%s\n%s", before, after)
					}
				}
			}
			if accepted == 0 {
				t.Error("no batch accepted; sweep uninformative")
			}
			_ = rejected // rejection count varies by test strength; acceptance is what must occur
		})
	}
}
