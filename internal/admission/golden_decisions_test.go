package admission

// Golden decision streams. One seeded churn — tenants created while others
// are already busy, single admits, all-or-nothing batches, probes of both
// shapes, releases — over the five analyzer families and three placement
// heuristics, journaled with the binary codec and automatic snapshots. For
// every tenant three values are pinned: an FNV-64 of its (admitted, core)
// decision stream, of its final Fingerprint(), and of the bytes of its
// journal directory. They are a function of the seed alone: nothing about
// how a probe is answered (what sits between a placement and the per-core
// analyzer, GOMAXPROCS) may move any of them. The churn runs once; CI's
// GOMAXPROCS rows (1, 2 and the runner's default) provide the scheduler
// dimension. A mismatch means decisions, state or journal bytes changed —
// not that the goldens are stale.

import (
	"fmt"
	"hash"
	"hash/fnv"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"mcsched/internal/analysis/amc"
	"mcsched/internal/core"
	"mcsched/internal/mcs"
	"mcsched/internal/taskgen"
)

// goldenTenant is what the churn leaves behind for one tenant.
type goldenTenant struct {
	decisions   uint64 // FNV-64 of the per-decision (kind, task, admitted, core) stream
	fingerprint uint64 // FNV-64 of the final Fingerprint()
	journal     uint64 // FNV-64 of every file (path, bytes) under the tenant's journal directory
}

// goldenDecisions maps "<test>/<placement>" to the recorded values.
var goldenDecisions = map[string]goldenTenant{
	"AMC-max/":             {decisions: 0xd4d5a9f7d5b7d4f6, fingerprint: 0x1cd0ece68d4260c0, journal: 0x497db722dddfddd5},
	"AMC-max/bf-total@0.9": {decisions: 0x43c21770e1ba7247, fingerprint: 0x295410fb12cd42b7, journal: 0xc4a4835806bf9482},
	"AMC-max/nf":           {decisions: 0x92e936c9efe67e25, fingerprint: 0x5798ee3c58f13739, journal: 0xd9127d1b15b01c0e},
	"AMC-rtb/":             {decisions: 0x0e744849663beaec, fingerprint: 0x230926cb9938c2e9, journal: 0x7c98e832c5f56572},
	"AMC-rtb/bf-total@0.9": {decisions: 0xf864558615d38e7e, fingerprint: 0x3ed42cdfe3ad555f, journal: 0xa274ccb9f4a680d3},
	"AMC-rtb/nf":           {decisions: 0x29ebbc5abfaffb51, fingerprint: 0xf415ae8298456d8d, journal: 0xf710f496a55c5964},
	"ECDF/":                {decisions: 0x88cd68036605c6e5, fingerprint: 0x85d7b3c5651db49e, journal: 0xa2b5d13e88c5e1de},
	"ECDF/bf-total@0.9":    {decisions: 0xfc7803cce48c7370, fingerprint: 0x026ed89ac222b0cf, journal: 0xb4e70198ec8343d0},
	"ECDF/nf":              {decisions: 0x0a314ad184403c79, fingerprint: 0xd7ff06e2bd7993e8, journal: 0x796cbbdf13f8b563},
	"EDF-VD/":              {decisions: 0x8fd84e8a978c8ee0, fingerprint: 0x4b2155ada68987d1, journal: 0x01be95e6f7f47589},
	"EDF-VD/bf-total@0.9":  {decisions: 0xaa07030dfa6d486b, fingerprint: 0x3a1191c87c2c1b05, journal: 0xf06518e5454cf220},
	"EDF-VD/nf":            {decisions: 0x844bf89e7582edf9, fingerprint: 0x0758841f87f11356, journal: 0x64676ba62ee3eeeb},
	"EY/":                  {decisions: 0xed71a7488c082789, fingerprint: 0x22de8c4c539c20ce, journal: 0x707d6ff9f226c65a},
	"EY/bf-total@0.9":      {decisions: 0xb8707f9fd3cdbb2a, fingerprint: 0x860854968280e2cb, journal: 0xdf0ddde289150890},
	"EY/nf":                {decisions: 0xba465f8df5123afc, fingerprint: 0x44c17b5cd904b9d3, journal: 0x0df8e9db9872ee56},
}

const (
	goldenCores  = 4
	goldenRounds = 6
	goldenSeed   = 2017
)

var goldenPlacements = []string{"", "nf", "bf-total@0.9"}

// goldenFamilies are the five analyzer families: the paper's four tests
// plus AMC-rtb.
func goldenFamilies() []core.Test {
	rtb := amc.DefaultOptions()
	rtb.Variant = amc.RTB
	return append(core.Tests(), amc.Test{Opts: rtb})
}

// churnTenant is one tenant's side of the churn: its own generator stream,
// ID space and decision hash, so tenants do not depend on one another
// beyond sharing a controller.
type churnTenant struct {
	key       string
	test      core.Test
	placement string
	sys       *System
	rng       *rand.Rand
	gen       taskgen.Config
	nextID    int
	resident  []int
	stream    hash.Hash64
	admitted  int
	rejected  int
}

func (ct *churnTenant) record(kind byte, id int, admitted bool, core int) {
	fmt.Fprintf(ct.stream, "%c %d %v %d\n", kind, id, admitted, core)
	if admitted {
		ct.admitted++
	} else {
		ct.rejected++
	}
}

func (ct *churnTenant) recordBatch(kind byte, br BatchResult) {
	fmt.Fprintf(ct.stream, "%c batch %v\n", kind, br.Admitted)
	for _, r := range br.Results {
		ct.record(kind, r.TaskID, r.Admitted, r.Core)
	}
}

// step plays one round of the tenant's stream against its system.
func (ct *churnTenant) step(t *testing.T) {
	t.Helper()
	ts, err := taskgen.Generate(ct.rng, ct.gen)
	if err != nil {
		return
	}
	for i := range ts {
		ts[i].ID = ct.nextID
		ct.nextID++
	}
	if ct.rng.Intn(2) == 0 && len(ts) > 4 {
		// The head of the set goes in as one all-or-nothing batch, probed
		// first every other time.
		batch := ts[:4].Clone()
		ts = ts[4:]
		if ct.rng.Intn(2) == 0 {
			br, err := ct.sys.ProbeBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			ct.recordBatch('q', br)
		}
		br, err := ct.sys.AdmitBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		ct.recordBatch('b', br)
		if br.Admitted {
			for _, task := range batch {
				ct.resident = append(ct.resident, task.ID)
			}
		}
	}
	for _, task := range ts {
		switch ct.rng.Intn(8) {
		case 0:
			if len(ct.resident) == 0 {
				continue
			}
			i := ct.rng.Intn(len(ct.resident))
			if _, err := ct.sys.Release(ct.resident[i]); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(ct.stream, "r %d\n", ct.resident[i])
			ct.resident = append(ct.resident[:i], ct.resident[i+1:]...)
		case 1:
			ct.decide(t, 'p', task, ct.sys.Probe)
		case 2:
			// Probe-then-admit, the client pattern a verdict cache serves.
			ct.decide(t, 'p', task, ct.sys.Probe)
			fallthrough
		default:
			if ct.decide(t, 'a', task, ct.sys.Admit) {
				ct.resident = append(ct.resident, task.ID)
			}
		}
	}
}

func (ct *churnTenant) decide(t *testing.T, kind byte, task mcs.Task, f func(mcs.Task) (AdmitResult, error)) bool {
	t.Helper()
	res, err := f(task)
	if err != nil {
		t.Fatal(err)
	}
	ct.record(kind, task.ID, res.Admitted, res.Core)
	return res.Admitted
}

// hashDir folds every file under root — relative path, then contents, in
// lexical path order — into one FNV-64.
func hashDir(t *testing.T, root string) uint64 {
	t.Helper()
	h := fnv.New64a()
	// WalkDir visits in lexical order, so the fold is deterministic.
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
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return h.Sum64()
}

// runGoldenChurn plays the whole churn on one controller and returns what
// it left behind, per tenant.
func runGoldenChurn(t *testing.T) map[string]goldenTenant {
	t.Helper()
	cfg := Config{
		DataDir:       t.TempDir(),
		SnapshotEvery: 6,
	}
	ctrl := NewController(cfg)
	var tenants []*churnTenant
	for i, test := range goldenFamilies() {
		for j, placement := range goldenPlacements {
			gen := taskgen.DefaultConfig(goldenCores, 0.5, 0.3, 0.4)
			gen.Constrained = !core.ImplicitOnly(test)
			tenants = append(tenants, &churnTenant{
				key:       test.Name() + "/" + placement,
				test:      test,
				placement: placement,
				rng:       rand.New(rand.NewSource(goldenSeed + int64(100*i+j))),
				gen:       gen,
				stream:    fnv.New64a(),
			})
		}
	}
	for round := 0; round < goldenRounds; round++ {
		for i, ct := range tenants {
			// A third of the tenants exist from the start; the rest are
			// created while the earlier ones are already churning.
			switch {
			case round < i%3:
				continue
			case round == i%3:
				sys, err := ctrl.CreateSystemWithPlacement(fmt.Sprintf("g%02d", i), goldenCores, ct.test, ct.placement)
				if err != nil {
					t.Fatal(err)
				}
				ct.sys = sys
			}
			ct.step(t)
		}
	}
	got := make(map[string]goldenTenant, len(tenants))
	for _, ct := range tenants {
		fp := fnv.New64a()
		fp.Write([]byte(ct.sys.Fingerprint()))
		got[ct.key] = goldenTenant{decisions: ct.stream.Sum64(), fingerprint: fp.Sum64()}
		if ct.admitted == 0 || ct.rejected == 0 {
			t.Errorf("%s: %d admitted, %d rejected decisions; the churn must see both", ct.key, ct.admitted, ct.rejected)
		}
	}
	if err := ctrl.Close(); err != nil {
		t.Fatal(err)
	}
	for _, ct := range tenants {
		g := got[ct.key]
		g.journal = hashDir(t, ctrl.tenantDir(ct.sys.ID()))
		got[ct.key] = g
	}
	// Close the loop: the bytes just hashed must recover to the states just
	// fingerprinted, tenant by tenant.
	rec := NewController(cfg)
	if _, err := rec.Recover(); err != nil {
		t.Fatalf("recover the churned data directory: %v", err)
	}
	defer rec.Close()
	for _, ct := range tenants {
		rsys, err := rec.System(ct.sys.ID())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rsys.Fingerprint(), ct.sys.Fingerprint(); got != want {
			t.Errorf("%s: recovered state differs from the one that wrote the journal:\n%s\n%s", ct.key, want, got)
		}
	}
	return got
}

func TestGoldenDecisions(t *testing.T) {
	got := runGoldenChurn(t)
	if len(got) != len(goldenDecisions) {
		t.Errorf("%d tenants, golden %d", len(got), len(goldenDecisions))
	}
	for key, g := range got {
		if want := goldenDecisions[key]; g != want {
			t.Errorf("%q: {decisions: %#016x, fingerprint: %#016x, journal: %#016x}, golden {decisions: %#016x, fingerprint: %#016x, journal: %#016x}",
				key, g.decisions, g.fingerprint, g.journal, want.decisions, want.fingerprint, want.journal)
		}
	}
}
