package admission

// Placement-API suite: the named heuristic registry must be invisible when
// unused and durable when used. The differential test pins the explicit
// "udp-ca" spelling to the historical default down to the journal bytes;
// the fail-closed tests pin that unknown names are rejected at create and
// config time. That a journaled heuristic name — and the nf cursor — survives
// replay, snapshot recovery and failover is TestTenantStateMachineLockstep's
// to check, step by step.

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"mcsched/internal/core"
	"mcsched/internal/mcs"
	"mcsched/internal/taskgen"
)

// dirBytes maps every file under root (relative path) to its contents.
func dirBytes(t *testing.T, root string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files[rel] = string(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestPlacementNamedDefaultBitIdentical: creating a tenant with the
// explicit name "udp-ca" must be indistinguishable from the pre-registry
// hardwired path — same decisions, same cores, same analysis counters,
// same fingerprints, and byte-identical journals (the default name is
// never written, so old journal bytes replay unchanged).
func TestPlacementNamedDefaultBitIdentical(t *testing.T) {
	for _, snapEvery := range []int{-1, 4} {
		snapEvery := snapEvery
		t.Run(fmt.Sprintf("snapshotEvery=%d", snapEvery), func(t *testing.T) {
			t.Parallel()
			test := core.Tests()[0]
			mk := func(placement string) (*Controller, *System, string) {
				dir := t.TempDir()
				cfg := DefaultConfig()
				cfg.DataDir = dir
				cfg.SnapshotEvery = snapEvery
				c := NewController(cfg)
				sys, err := c.CreateSystemWithPlacement("twin", 4, test, placement)
				if err != nil {
					t.Fatal(err)
				}
				return c, sys, dir
			}
			cDefault, sysDefault, dirDefault := mk("")
			cNamed, sysNamed, dirNamed := mk(core.DefaultPlacement)

			if got := sysNamed.PlacementName(); got != core.DefaultPlacement {
				t.Fatalf("named tenant reports placement %q", got)
			}
			if sysDefault.PlacementName() != sysNamed.PlacementName() {
				t.Fatal("default and named tenants disagree on placement name")
			}

			// Identical workload, decision-by-decision comparison.
			rng := rand.New(rand.NewSource(41))
			gcfg := taskgen.DefaultConfig(4, 0.5, 0.3, 0.4)
			nextID := 0
			for round := 0; round < 5; round++ {
				ts, err := taskgen.Generate(rng, gcfg)
				if err != nil {
					continue
				}
				for _, task := range ts {
					task.ID = nextID
					nextID++
					ra, errA := sysDefault.Admit(task)
					rb, errB := sysNamed.Admit(task)
					if (errA == nil) != (errB == nil) {
						t.Fatalf("error divergence: %v vs %v", errA, errB)
					}
					if ra.Admitted != rb.Admitted || ra.Core != rb.Core || ra.Tests != rb.Tests {
						t.Fatalf("decision divergence on %v:\ndefault %+v\nnamed   %+v", task, ra, rb)
					}
					if task.ID%5 == 0 && ra.Admitted {
						if _, err := sysDefault.Release(task.ID); err != nil {
							t.Fatal(err)
						}
						if _, err := sysNamed.Release(task.ID); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if fa, fb := sysDefault.Fingerprint(), sysNamed.Fingerprint(); fa != fb {
				t.Fatalf("fingerprints diverged:\n%s\n%s", fa, fb)
			}
			sa, sb := cDefault.Stats(), cNamed.Stats()
			if sa.Admits != sb.Admits || sa.Releases != sb.Releases || sa.TestsRun != sb.TestsRun {
				t.Fatalf("counters diverged:\ndefault %+v\nnamed   %+v", sa, sb)
			}
			if err := cDefault.Close(); err != nil {
				t.Fatal(err)
			}
			if err := cNamed.Close(); err != nil {
				t.Fatal(err)
			}

			// The journals must be byte-identical: the default heuristic is
			// journaled as absence, under either spelling.
			da, db := dirBytes(t, dirDefault), dirBytes(t, dirNamed)
			if len(da) == 0 {
				t.Fatal("no journal files written")
			}
			if len(da) != len(db) {
				t.Fatalf("file sets differ: %d vs %d files", len(da), len(db))
			}
			for rel, want := range da {
				got, ok := db[rel]
				if !ok {
					t.Fatalf("named tenant missing journal file %s", rel)
				}
				if got != want {
					t.Fatalf("journal file %s differs between default and named udp-ca", rel)
				}
			}
		})
	}
}

// TestPlacementFailsClosed: unknown or malformed heuristic names are
// rejected at tenant create and by Config.Placement defaulting — the
// error is ErrUnknownPlacement, and nothing is journaled.
func TestPlacementFailsClosed(t *testing.T) {
	test := core.Tests()[0]
	t.Run("create", func(t *testing.T) {
		c := NewController(DefaultConfig())
		for _, name := range []string{"nosuch", "ff@2.5", "ff@0", "@0.5"} {
			_, err := c.CreateSystemWithPlacement("x", 2, test, name)
			if !errors.Is(err, ErrUnknownPlacement) {
				t.Errorf("CreateSystemWithPlacement(%q) = %v, want ErrUnknownPlacement", name, err)
			}
		}
		if len(c.SystemIDs()) != 0 {
			t.Fatal("failed creates left tenants behind")
		}
	})
	t.Run("config default", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Placement = "nosuch"
		c := NewController(cfg)
		if _, err := c.CreateSystem("x", 2, test); !errors.Is(err, ErrUnknownPlacement) {
			t.Fatalf("CreateSystem with bad Config.Placement = %v, want ErrUnknownPlacement", err)
		}
		// An explicit valid name still overrides the broken default.
		sys, err := c.CreateSystemWithPlacement("y", 2, test, "bf-lo")
		if err != nil {
			t.Fatal(err)
		}
		if sys.PlacementName() != "bf-lo" {
			t.Fatalf("explicit placement not honored: %q", sys.PlacementName())
		}
	})
	t.Run("config default applies", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Placement = "wf-hi"
		c := NewController(cfg)
		sys, err := c.CreateSystem("x", 2, test)
		if err != nil {
			t.Fatal(err)
		}
		if sys.PlacementName() != "wf-hi" {
			t.Fatalf("Config.Placement ignored: %q", sys.PlacementName())
		}
	})
}

// TestPlacementHeuristicsDiverge sanity-checks that the registry is not a
// zoo of synonyms: on an adversarial load, worst-fit and first-fit pick
// different cores.
func TestPlacementHeuristicsDiverge(t *testing.T) {
	test := core.Tests()[0]
	c := NewController(DefaultConfig())
	wf, err := c.CreateSystemWithPlacement("wf", 3, test, "wf-total")
	if err != nil {
		t.Fatal(err)
	}
	ff, err := c.CreateSystemWithPlacement("ff", 3, test, "ff")
	if err != nil {
		t.Fatal(err)
	}
	// On an empty tenant both heuristics resolve ties toward core 0, so
	// the first admit loads core 0 everywhere; the second admit is where
	// they part ways: first-fit stays on core 0, worst-fit spreads.
	seedTask := mcs.NewLC(0, 2, 10)
	if ra, err := wf.Admit(seedTask); err != nil || !ra.Admitted || ra.Core != 0 {
		t.Fatalf("wf seed admit: %+v, %v", ra, err)
	}
	if ra, err := ff.Admit(seedTask); err != nil || !ra.Admitted || ra.Core != 0 {
		t.Fatalf("ff seed admit: %+v, %v", ra, err)
	}
	probe := mcs.NewLC(1, 1, 10)
	ra, err := wf.Admit(probe)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := ff.Admit(probe)
	if err != nil {
		t.Fatal(err)
	}
	if !ra.Admitted || !rb.Admitted {
		t.Fatalf("trivial admits rejected: %+v %+v", ra, rb)
	}
	if ra.Core == rb.Core {
		t.Fatalf("wf-total and ff chose the same core %d on a skewed load", ra.Core)
	}
	if rb.Core != 0 {
		t.Fatalf("first-fit skipped the loaded first core: %d", rb.Core)
	}
}
