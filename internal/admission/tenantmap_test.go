package admission

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"mcsched/internal/analysis/edfvd"
	"mcsched/internal/mcs"
)

// TestTenantMapChurn races tenant creates (explicit IDs, auto IDs and
// explicit "s<n>" claims of the auto-ID namespace), lookups, listings,
// Stats and removals against each other on one controller, in memory and
// journaling. Every successful create and remove updates a model set; at
// the end SystemIDs must equal it, and no auto-drawn ID may equal a claimed
// one. Run it with -race: it is the test that races map writes against
// lookups.
func TestTenantMapChurn(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func(t *testing.T) Config
	}{
		{"memory", func(*testing.T) Config { return Config{} }},
		{"journal", func(t *testing.T) Config { return crashConfig(t.TempDir()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(t)
			ctrl := NewController(cfg)
			defer ctrl.Close()
			model := runTenantChurn(t, ctrl, 4, 40)
			if got := ctrl.SystemIDs(); !slices.Equal(got, model) {
				t.Fatalf("SystemIDs = %v\nmodel     = %v", got, model)
			}
			if st := ctrl.Stats(); st.Systems != len(model) {
				t.Fatalf("Stats.Systems = %d, model holds %d", st.Systems, len(model))
			}
			if cfg.DataDir == "" {
				return
			}
			// Removed tenants took their journals with them: a restart
			// recovers exactly the model.
			if err := ctrl.Close(); err != nil {
				t.Fatal(err)
			}
			rec := reopen(t, cfg.DataDir)
			defer rec.Close()
			if got := rec.SystemIDs(); !slices.Equal(got, model) {
				t.Fatalf("recovered SystemIDs = %v\nmodel               = %v", got, model)
			}
		})
	}
}

// runTenantChurn runs workers goroutines of rounds rounds each and returns
// the sorted model of the tenants that must exist afterwards.
func runTenantChurn(t *testing.T, ctrl *Controller, workers, rounds int) []string {
	var (
		mu      sync.Mutex
		live    = map[string]bool{}
		auto    = map[string]bool{}
		claimed = map[string]bool{}
	)
	created := func(id string, into map[string]bool) {
		mu.Lock()
		defer mu.Unlock()
		if live[id] {
			t.Errorf("tenant %q created while it existed", id)
		}
		live[id] = true
		if into != nil {
			into[id] = true
		}
	}
	test := edfvd.Test{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var own []string
			for i := 0; i < rounds; i++ {
				// An explicit ID of this worker's own: must succeed.
				id := fmt.Sprintf("w%d-%d", w, i)
				sys, err := ctrl.CreateSystem(id, 2, test)
				if err != nil {
					t.Errorf("create %q: %v", id, err)
					return
				}
				created(id, nil)
				own = append(own, id)
				if _, err := sys.Admit(mcs.NewLC(i, 1, 100)); err != nil {
					t.Errorf("admit on %q: %v", id, err)
				}

				// An auto ID: a fresh "s<n>" nobody holds.
				sys, err = ctrl.CreateSystem("", 1, test)
				if err != nil {
					t.Errorf("auto create: %v", err)
					return
				}
				created(sys.ID(), auto)

				// A claim on the auto namespace, contended by every worker
				// and by the auto draws: exactly one create of each name wins.
				claim := fmt.Sprintf("s%d", i+w%2)
				if sys, err := ctrl.CreateSystem(claim, 1, test); err == nil {
					created(sys.ID(), claimed)
				} else if !errors.Is(err, ErrDuplicateSystem) {
					t.Errorf("claim %q: %v", claim, err)
				}

				// Reads race the writes above and the other workers'.
				for _, id := range own {
					if _, err := ctrl.System(id); err != nil {
						t.Errorf("lookup of live %q: %v", id, err)
					}
				}
				if ids := ctrl.SystemIDs(); !sort.StringsAreSorted(ids) {
					t.Errorf("SystemIDs unsorted: %v", ids)
				}
				ctrl.Stats()

				// Remove every other own tenant; it must be gone at once.
				if i%2 == 1 {
					victim := own[0]
					own = own[1:]
					mu.Lock()
					delete(live, victim)
					mu.Unlock()
					if err := ctrl.RemoveSystem(victim); err != nil {
						t.Errorf("remove %q: %v", victim, err)
					}
					if _, err := ctrl.System(victim); !errors.Is(err, ErrNoSystem) {
						t.Errorf("lookup of removed %q: %v", victim, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	for id := range auto {
		if claimed[id] {
			t.Errorf("auto ID %q collides with a claimed one", id)
		}
		if !strings.HasPrefix(id, "s") {
			t.Errorf("auto ID %q outside the s<n> namespace", id)
		}
	}
	if len(claimed) == 0 {
		t.Error("no claim won: the test exercised nothing")
	}
	model := make([]string, 0, len(live))
	for id := range live {
		model = append(model, id)
	}
	sort.Strings(model)
	return model
}
