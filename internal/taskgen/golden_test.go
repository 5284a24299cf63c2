package taskgen

// Golden pins of the generator's output stream, recorded on the code as it
// stood before the discard loop was touched (PR 13). Every value here is a
// function of the seed alone: a change to this file is a change to the
// science (which task sets the paper's sweeps judge), never a refactor.
//
// Two things are pinned per row: an FNV-64a fingerprint over every field of
// every generated task (or every float of a drawn vector), and the number
// of 63-bit draws the call consumed from the source — the position the
// stream is left at, which the next call of a sweep inherits.

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"mcsched/internal/mcs"
)

// countingSource is the standard source with a draw counter. Both methods
// advance the underlying generator by exactly one step, so wrapping does
// not change the stream rand.New(rand.NewSource(seed)) would produce.
type countingSource struct {
	src rand.Source64
	n   int
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (c *countingSource) Int63() int64    { c.n++; return c.src.Int63() }
func (c *countingSource) Uint64() uint64  { c.n++; return c.src.Uint64() }
func (c *countingSource) Seed(seed int64) { c.src.Seed(seed); c.n = 0 }

func hashU64(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// hashTaskSet folds every field of every task, in order.
func hashTaskSet(h hash.Hash64, ts mcs.TaskSet) {
	hashU64(h, uint64(len(ts)))
	for _, t := range ts {
		hashU64(h, uint64(t.ID))
		hashU64(h, uint64(t.Crit))
		hashU64(h, uint64(t.Period))
		hashU64(h, uint64(t.Deadline))
		hashU64(h, uint64(t.WCET[mcs.LO]))
		hashU64(h, uint64(t.WCET[mcs.HI]))
		hashU64(h, math.Float64bits(t.ULo))
		hashU64(h, math.Float64bits(t.UHi))
	}
}

func hashVector(h hash.Hash64, u []float64) {
	hashU64(h, uint64(len(u)))
	for _, v := range u {
		hashU64(h, math.Float64bits(v))
	}
}

// The discard-loop classes a golden row can exercise.
const (
	firstTry  = "first-try"
	midLoop   = "mid-loop"
	exhausted = "exhausted"
)

func discardClass(tries int) string {
	switch {
	case tries == 1:
		return firstTry
	case tries < maxDiscardTries:
		return midLoop
	default:
		return exhausted
	}
}

// TestGoldenDiscardLoops pins BoundedSum and BoundedSumCapped called
// directly. One try consumes n−1 draws, so draws/(n−1) is the number of
// tries the loop ran; the table must hold all three classes for both
// functions, and a row that exhausts the loop pins the fallback's output
// (Rescale of the 1000th draw; the proportional split and its lo-repair).
func TestGoldenDiscardLoops(t *testing.T) {
	rows := []struct {
		name     string
		seed     int64
		n        int
		total    float64
		lo, hi   float64
		caps     []float64 // nil: BoundedSum against [lo, hi]
		class    string
		wantHash uint64
		wantDraw int
	}{
		{name: "sum/loose", seed: 1, n: 8, total: 2.0, lo: 0.001, hi: 0.99,
			class: firstTry, wantHash: 0x973b2035d2e969b7, wantDraw: 7},
		{name: "sum/tightish", seed: 2, n: 6, total: 4.2, lo: 0.001, hi: 0.99,
			class: midLoop, wantHash: 0xd5e3c10eddd732e3, wantDraw: 540},
		{name: "sum/low-total", seed: 3, n: 12, total: 0.4, lo: 0.01, hi: 0.99,
			class: midLoop, wantHash: 0x63dfee50d3348822, wantDraw: 660},
		{name: "sum/n·hi-rescale", seed: 4, n: 5, total: 4.949, lo: 0.001, hi: 0.99,
			class: exhausted, wantHash: 0x82899f330fba2aff, wantDraw: 4000},
		{name: "sum/n·lo-rescale", seed: 5, n: 4, total: 0.0401, lo: 0.01, hi: 0.99,
			class: exhausted, wantHash: 0x04ec127dfbe103d5, wantDraw: 3000},
		{name: "sum/pair-at-hi", seed: 6, n: 2, total: 1.98, lo: 0.001, hi: 0.99,
			class: exhausted, wantHash: 0x87e083282303c01f, wantDraw: 1000},

		{name: "capped/loose", seed: 7, n: 4, total: 0.4, lo: 0.001,
			caps:  []float64{0.9, 0.8, 0.7, 0.95},
			class: firstTry, wantHash: 0xcfd32595d0fd50d5, wantDraw: 3},
		{name: "capped/mixed", seed: 8, n: 4, total: 1.5, lo: 0.001,
			caps:  []float64{0.3, 0.5, 0.2, 0.9},
			class: midLoop, wantHash: 0xf2fa464fe82c24e1, wantDraw: 159},
		{name: "capped/late-violation", seed: 9, n: 10, total: 2.0, lo: 0.001,
			caps:  []float64{0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.3, 0.05},
			class: midLoop, wantHash: 0xdf0a6843a4b907cb, wantDraw: 54},
		{name: "capped/Σcap-proportional", seed: 10, n: 4, total: 1.9, lo: 0.001,
			caps:  []float64{0.3, 0.5, 0.2, 0.9},
			class: exhausted, wantHash: 0xc453a3d8b09e82e5, wantDraw: 3000},
		{name: "capped/many-small-proportional", seed: 11, n: 19, total: 1.2, lo: 0.001,
			caps: []float64{0.02, 0.3, 0.01, 0.2, 0.05, 0.04, 0.1, 0.03, 0.02, 0.15,
				0.01, 0.06, 0.08, 0.02, 0.12, 0.03, 0.07, 0.05, 0.09},
			class: exhausted, wantHash: 0xe90f55b14bd0fe97, wantDraw: 18000},
		{name: "capped/lo-repair", seed: 12, n: 3, total: 0.05, lo: 0.001,
			caps:  []float64{0.001, 0.9, 0.001},
			class: exhausted, wantHash: 0x424499a8275a8808, wantDraw: 2000},
	}
	seen := map[string]bool{}
	for _, r := range rows {
		src := newCountingSource(r.seed)
		rng := rand.New(src)
		var (
			u    []float64
			err  error
			kind = "sum"
		)
		if r.caps != nil {
			kind = "capped"
			u, err = BoundedSumCapped(rng, r.n, r.total, r.lo, r.caps)
		} else {
			u, err = BoundedSum(rng, r.n, r.total, r.lo, r.hi)
		}
		if err != nil {
			t.Errorf("%s: %v", r.name, err)
			continue
		}
		h := fnv.New64a()
		hashVector(h, u)
		if src.n%(r.n-1) != 0 {
			t.Errorf("%s: %d draws is not a whole number of %d-draw tries", r.name, src.n, r.n-1)
		}
		class := discardClass(src.n / (r.n - 1))
		seen[kind+"/"+class] = true
		if class != r.class {
			t.Errorf("%s: discard loop ran %d tries (%s), the row is meant to be %s",
				r.name, src.n/(r.n-1), class, r.class)
		}
		if got := h.Sum64(); got != r.wantHash || src.n != r.wantDraw {
			t.Errorf("%s: fingerprint %#016x after %d draws, golden %#016x after %d",
				r.name, got, src.n, r.wantHash, r.wantDraw)
		}
	}
	for _, kind := range []string{"sum", "capped"} {
		for _, class := range []string{firstTry, midLoop, exhausted} {
			if !seen[kind+"/"+class] {
				t.Errorf("no %s row is %s", kind, class)
			}
		}
	}
}

// TestGoldenGenerateStream pins Generate on named rows — one task set each,
// the class of the BoundedSumCapped call (and, under UUniFast-discard, of
// the two BoundedSum calls) noted from an instrumented run of the parent
// commit — and on one bulk pass over the paper's whole grid.
func TestGoldenGenerateStream(t *testing.T) {
	const rfs, uud = MethodRandFixedSum, MethodUUniFastDiscard
	rows := []struct {
		name          string
		m             int
		uhh, ulh, ull float64
		method        Method
		seed          int64
		// implicit and constrained deadlines share the utilization draws of
		// a seed, so one row pins both.
		wantHash [2]uint64
		wantDraw [2]int
	}{
		{name: "m8/capped first try", m: 8, uhh: 0.5, ulh: 0.05, ull: 0.05, method: rfs, seed: 1,
			wantHash: [2]uint64{0x6457cf9723e7c1b8, 0xbfa54ca2be1c1be5}, wantDraw: [2]int{48, 58}},
		{name: "m8/capped try 101", m: 8, uhh: 0.3, ulh: 0.15, ull: 0.55, method: rfs, seed: 3,
			wantHash: [2]uint64{0x58ceec707c08ce0d, 0x9218f99d706e33ff}, wantDraw: [2]int{342, 351}},
		{name: "m8/capped try 959", m: 8, uhh: 0.1, ulh: 0.05, ull: 0.05, method: rfs, seed: 3,
			wantHash: [2]uint64{0xc83e1d9664698ebd, 0xf2a27f11f7d97581}, wantDraw: [2]int{3875, 3884}},
		{name: "m8/capped exhausted nH=19", m: 8, uhh: 0.2, ulh: 0.15, ull: 0.25, method: rfs, seed: 4,
			wantHash: [2]uint64{0x52f0e4e2162ef62c, 0xef19b56fc469eafe}, wantDraw: [2]int{18184, 18222}},
		{name: "m8/capped exhausted nH=8", m: 8, uhh: 0.9, ulh: 0.65, ull: 0.15, method: rfs, seed: 2,
			wantHash: [2]uint64{0xec0fe7eb535ae301, 0x16eca35c26397b0a}, wantDraw: [2]int{7049, 7060}},
		{name: "m2/capped first try", m: 2, uhh: 0.1, ulh: 0.05, ull: 0.05, method: rfs, seed: 2,
			wantHash: [2]uint64{0xc9fbc170c777aa07, 0x2bede8973d1295b4}, wantDraw: [2]int{21, 26}},
		{name: "m2/capped try 258", m: 2, uhh: 0.1, ulh: 0.05, ull: 0.05, method: rfs, seed: 5,
			wantHash: [2]uint64{0xadbc2c84fcfa66a4, 0x976d8eac5db81c8f}, wantDraw: [2]int{535, 540}},
		{name: "m2/capped exhausted", m: 2, uhh: 0.4, ulh: 0.35, ull: 0.05, method: rfs, seed: 5,
			wantHash: [2]uint64{0x38f4d9f650143d76, 0x81e3d4b0540527cd}, wantDraw: [2]int{2019, 2024}},
		{name: "m2/discard first tries", m: 2, uhh: 0.2, ulh: 0.05, ull: 0.05, method: uud, seed: 1,
			wantHash: [2]uint64{0x11714ed9af98f56b, 0x6e0d757ad1ff6671}, wantDraw: [2]int{20, 24}},
		{name: "m2/discard HH rescaled", m: 2, uhh: 0.99, ulh: 0.05, ull: 0.05, method: uud, seed: 1,
			wantHash: [2]uint64{0x2968265744e4c865, 0x5ee3961fbe340972}, wantDraw: [2]int{1010, 1014}},
		{name: "m2/discard LL try 7, capped try 33", m: 2, uhh: 0.1, ulh: 0.05, ull: 0.85, method: uud, seed: 1,
			wantHash: [2]uint64{0x5d437f23222db214, 0xd52daa58ce874d15}, wantDraw: [2]int{49, 53}},
		{name: "m8/discard HH try 38, LL rescaled", m: 8, uhh: 0.5, ulh: 0.25, ull: 0.55, method: uud, seed: 1,
			wantHash: [2]uint64{0x26fe41934af1d3c8, 0xbdf6f19533f6511e}, wantDraw: [2]int{4180, 4190}},
		{name: "m8/discard HH try 8, LL try 873", m: 8, uhh: 0.5, ulh: 0.25, ull: 0.55, method: uud, seed: 2,
			wantHash: [2]uint64{0xd13221ac99d144fb, 0x33acfa1088a17b33}, wantDraw: [2]int{3709, 3720}},
		{name: "m8/discard HH rescaled, capped exhausted", m: 8, uhh: 0.6, ulh: 0.55, ull: 0.25, method: uud, seed: 1,
			wantHash: [2]uint64{0xc81228dddccce763, 0x77e266ef459cb050}, wantDraw: [2]int{8024, 8034}},
		{name: "m8/discard HH try 913", m: 8, uhh: 0.8, ulh: 0.05, ull: 0.65, method: uud, seed: 5,
			wantHash: [2]uint64{0xbe935b5cde834033, 0xfb28326436bcf7e6}, wantDraw: [2]int{8496, 8515}},
	}
	for _, r := range rows {
		for c, constrained := range []bool{false, true} {
			cfg := DefaultConfig(r.m, r.uhh, r.ulh, r.ull)
			cfg.Method = r.method
			cfg.Constrained = constrained
			src := newCountingSource(r.seed)
			ts, err := Generate(rand.New(src), cfg)
			if err != nil {
				t.Errorf("%s: %v", r.name, err)
				continue
			}
			h := fnv.New64a()
			hashTaskSet(h, ts)
			if got := h.Sum64(); got != r.wantHash[c] || src.n != r.wantDraw[c] {
				t.Errorf("%s constrained=%v: fingerprint %#016x after %d draws, golden %#016x after %d",
					r.name, constrained, got, src.n, r.wantHash[c], r.wantDraw[c])
			}
		}
	}

	// Bulk: every grid combo × m ∈ {2, 8} × both methods × both deadline
	// models, one set each, folded into one fingerprint. Infeasible draws
	// are part of the stream and fold in as a marker.
	const (
		wantBulkHash = uint64(0xf581b9d9da4394ec)
		wantBulkDraw = 9836118
		wantBulkErrs = 0
	)
	h := fnv.New64a()
	draws, errs := 0, 0
	for _, m := range []int{2, 8} {
		for ci, combo := range DefaultGrid() {
			for _, method := range []Method{rfs, uud} {
				for _, constrained := range []bool{false, true} {
					cfg := DefaultConfig(m, combo.UHH, combo.ULH, combo.ULL)
					cfg.Method = method
					cfg.Constrained = constrained
					src := newCountingSource(int64(1000*m + ci))
					ts, err := Generate(rand.New(src), cfg)
					if err != nil {
						errs++
						hashU64(h, math.MaxUint64)
					} else {
						hashTaskSet(h, ts)
					}
					draws += src.n
				}
			}
		}
	}
	if got := h.Sum64(); got != wantBulkHash || draws != wantBulkDraw || errs != wantBulkErrs {
		t.Errorf("bulk: fingerprint %#016x after %d draws and %d infeasible, golden %#016x after %d and %d",
			got, draws, errs, wantBulkHash, wantBulkDraw, wantBulkErrs)
	}
}

// TestCappedFallbackRate makes visible how often the LO-mode utilizations
// of the HC tasks are NOT a uniform draw: BoundedSumCapped runs UUniFast
// with discard against caps that RandFixedSum drew, and on the paper's grid
// (m = 8, the sweeps' 0.5 HC share) a large share of calls run out of tries
// and return the proportional split u[i] = total·cap[i]/Σcap instead. The
// walk replays the head of Generate — task counts, HI-mode vector, capped
// LO-mode vector — on 300 seeds per UB bucket, cycling through the bucket's
// combos the way the sweeps do. The counts are pinned exactly: they are a
// function of the seeds, and moving them is a change to the distribution
// (see docs/perf.md, "Generator fidelity caveat").
func TestCappedFallbackRate(t *testing.T) {
	const (
		m, setsPerBucket = 8, 300
		wantCalls        = 3000
		wantExhausted    = 1313
		wantTries        = 1461215
	)
	calls, exhaustedCalls, tries := 0, 0, 0
	for bi, b := range BucketByUB(DefaultGrid()) {
		for si := 0; si < setsPerBucket; si++ {
			combo := b.Combos[si%len(b.Combos)]
			cfg := DefaultConfig(m, combo.UHH, combo.ULH, combo.ULL)
			src := newCountingSource(int64(bi)<<20 | int64(si))
			rng := rand.New(src)
			_, nH, err := cfg.splitCounts(rng)
			if err != nil || nH < 2 {
				continue // no HC pair, no discard loop
			}
			uHH, err := RandFixedSum(rng, nH, cfg.UHH*m, cfg.UMin, cfg.UMax)
			if err != nil {
				t.Fatal(err)
			}
			before := src.n
			if _, err := BoundedSumCapped(rng, nH, cfg.ULH*m, cfg.UMin, uHH); err != nil {
				t.Fatal(err)
			}
			n := (src.n - before) / (nH - 1)
			calls++
			tries += n
			if n == maxDiscardTries {
				exhaustedCalls++
			}
		}
	}
	t.Logf("%d calls: %.3f exhaust the discard loop, %.0f tries per call",
		calls, float64(exhaustedCalls)/float64(calls), float64(tries)/float64(calls))
	if calls != wantCalls || exhaustedCalls != wantExhausted || tries != wantTries {
		t.Errorf("calls=%d exhausted=%d tries=%d, pinned %d/%d/%d",
			calls, exhaustedCalls, tries, wantCalls, wantExhausted, wantTries)
	}
}
