package crosstest

import (
	"math/rand"
	"testing"

	"mcsched/internal/analysis/amc"
	"mcsched/internal/analysis/ecdf"
	"mcsched/internal/analysis/edf"
	"mcsched/internal/analysis/edfvd"
	"mcsched/internal/analysis/ey"
	"mcsched/internal/analysis/kernel"
	"mcsched/internal/core"
	"mcsched/internal/mcs"
	"mcsched/internal/oracle"
	"mcsched/internal/taskgen"
)

// analyzerFamilies enumerates every incremental analysis engine under test.
// All five families (AMC in all three configurations, EDF-VD, EY, ECDF and
// the dbf-based plain-EDF tests) must produce bit-identical verdicts to
// their stateless oracle (oracleOf).
func analyzerFamilies() []kernel.Incremental {
	return []kernel.Incremental{
		edfvd.Test{},
		ey.Test{},
		ecdf.Test{},
		amc.Test{Opts: amc.DefaultOptions()},
		amc.Test{Opts: amc.Options{Variant: amc.RTB, Policy: amc.Audsley}},
		amc.Test{Opts: amc.Options{Variant: amc.Max, Policy: amc.DeadlineMonotonic}},
		edf.Test{Demand: true},
		edf.Test{Demand: false},
	}
}

// oracleOf returns the stateless reference of a built-in test, configured
// as the test is: package oracle's search for its family.
func oracleOf(test kernel.Test) func(mcs.TaskSet) bool {
	switch t := test.(type) {
	case edfvd.Test:
		return func(ts mcs.TaskSet) bool { return oracle.EDFVD(ts).Schedulable }
	case ey.Test:
		return func(ts mcs.TaskSet) bool { return oracle.EY(ts, 256).Schedulable }
	case ecdf.Test:
		return func(ts mcs.TaskSet) bool { return oracle.ECDF(ts, 256, oracle.DefaultLambdas()).Schedulable }
	case amc.Test:
		o := amcOracleOptions(t.Opts)
		return func(ts mcs.TaskSet) bool { return oracle.AMC(ts, o).Schedulable }
	case edf.Test:
		if t.Demand {
			return func(ts mcs.TaskSet) bool { return oracle.EDFDemand(ts, mcs.HI) }
		}
		return func(ts mcs.TaskSet) bool { return oracle.EDFUtil(ts, mcs.HI) }
	}
	panic("no oracle for " + test.Name())
}

// amcOracleOptions translates AMC options to the oracle's.
func amcOracleOptions(o amc.Options) oracle.AMCOptions {
	return oracle.AMCOptions{Max: o.Variant == amc.Max, DeadlineMonotonic: o.Policy == amc.DeadlineMonotonic}
}

// TestAnalyzerDifferentialDirect feeds each analyzer a stream of unrelated
// random task sets — no incremental structure at all, every call breaks the
// memo prefix — and asserts verdict equality with the stateless oracle on
// every one. This exercises the fast-path filters and the cold exact
// kernels.
func TestAnalyzerDifferentialDirect(t *testing.T) {
	for _, test := range analyzerFamilies() {
		test := test
		t.Run(test.Name(), func(t *testing.T) {
			t.Parallel()
			an := test.NewAnalyzer()
			constrained := !core.ImplicitOnly(test)
			sets := drawSets(t, 80, constrained)
			for i, ts := range sets {
				want := oracleOf(test)(ts)
				got := an.Schedulable(ts)
				if got != want {
					t.Fatalf("set %d: analyzer=%v oracle=%v for:\n%v", i, got, want, ts)
				}
				// Immediately re-analyzing the same set must agree too (the
				// memo now matches it exactly on accepts).
				if again := an.Schedulable(ts); again != want {
					t.Fatalf("set %d: re-analysis flipped %v -> %v", i, want, again)
				}
			}
			ctr := an.Counters()
			if ctr.Total() == 0 {
				t.Error("analyzer counted no decisions")
			}
		})
	}
}

// TestAnalyzerDifferentialSequences drives each analyzer exactly like the
// admission hot path drives it: one analyzer models one core, tasks are
// admitted (probe, commit on accept) and released at random, and after
// every single probe the verdict is compared against the stateless oracle on
// the same candidate set. This exercises the incremental paths — bottom
// insertion, deadline-monotonic partial re-verification, warm-started fixed
// points — and their interaction with Forget.
func TestAnalyzerDifferentialSequences(t *testing.T) {
	for _, test := range analyzerFamilies() {
		test := test
		t.Run(test.Name(), func(t *testing.T) {
			t.Parallel()
			constrained := !core.ImplicitOnly(test)
			for trial := 0; trial < 6; trial++ {
				an := test.NewAnalyzer()
				rng := rand.New(rand.NewSource(int64(1000 + trial)))
				var resident mcs.TaskSet
				nextID := 0
				probes := 0

				for round := 0; round < 3; round++ {
					cfg := taskgen.DefaultConfig(1, 0.4+0.3*rng.Float64(),
						0.2+0.2*rng.Float64(), 0.2+0.3*rng.Float64())
					cfg.NMin, cfg.NMax = 3, 10
					cfg.Constrained = constrained
					ts, err := taskgen.Generate(rng, cfg)
					if err != nil {
						continue
					}
					for _, task := range ts {
						task.ID = nextID
						nextID++
						// Occasionally release a resident task first.
						if len(resident) > 0 && rng.Intn(4) == 0 {
							i := rng.Intn(len(resident))
							an.Forget(resident[i].ID)
							resident = append(resident[:i], resident[i+1:]...)
						}
						cand := append(resident.Clone(), task)
						want := oracleOf(test)(cand)
						got := an.Schedulable(cand)
						probes++
						if got != want {
							t.Fatalf("trial %d probe %d: analyzer=%v oracle=%v for:\n%v",
								trial, probes, got, want, cand)
						}
						if want {
							resident = append(resident, task)
						}
					}
				}
				if probes == 0 {
					t.Fatal("sequence probed nothing; trial uninformative")
				}
			}
		})
	}
}

// TestAnalyzerForgetSeedRegression is the directed regression for a seed
// corruption found in review: Forget used to truncate the memoized
// response-time arrays out of alignment with the priority order, and the
// deadline-monotonic incremental path then promoted the stale prefix back
// into seed validity, warm-starting a later fixed point from a value above
// its true least fixed point and rejecting a schedulable set. The sequence
// needs release-then-admit-below-then-admit-above, which random traffic
// rarely produces.
func TestAnalyzerForgetSeedRegression(t *testing.T) {
	mk := func(id int, c, tt, d mcs.Ticks) mcs.Task { return mcs.NewLCConstrained(id, c, tt, d) }
	taskA := mk(1, 1, 9, 6)
	taskV := mk(2, 6, 12, 7)
	taskY := mk(3, 1, 12, 8)
	taskW := mk(4, 1, 20, 20)
	taskZ := mk(5, 4, 6, 5)

	for _, test := range []kernel.Incremental{
		amc.Test{Opts: amc.Options{Variant: amc.RTB, Policy: amc.DeadlineMonotonic}},
		amc.Test{Opts: amc.Options{Variant: amc.Max, Policy: amc.DeadlineMonotonic}},
		amc.Test{Opts: amc.DefaultOptions()},
	} {
		an := test.NewAnalyzer()
		resident := mcs.TaskSet{}
		step := func(task mcs.Task) {
			t.Helper()
			cand := append(resident.Clone(), task)
			want := oracleOf(test)(cand)
			if got := an.Schedulable(cand); got != want {
				t.Fatalf("%s: admit %d: analyzer=%v oracle=%v for:\n%v",
					test.Name(), task.ID, got, want, cand)
			}
			if want {
				resident = append(resident, task)
			}
		}
		step(taskA)
		step(taskV)
		step(taskY)
		an.Forget(taskV.ID)
		for i, r := range resident {
			if r.ID == taskV.ID {
				resident = append(resident[:i], resident[i+1:]...)
				break
			}
		}
		step(taskW) // slots below everything (largest deadline)
		step(taskZ) // slots above everything (smallest deadline)
	}
}

// TestAnalyzerDifferentialReleaseHeavy hammers the Forget interaction:
// small pools, every other operation a release, and task deadlines drawn so
// newcomers land above, between and below the residents in priority order.
func TestAnalyzerDifferentialReleaseHeavy(t *testing.T) {
	for _, test := range analyzerFamilies() {
		test := test
		t.Run(test.Name(), func(t *testing.T) {
			t.Parallel()
			for trial := 0; trial < 8; trial++ {
				an := test.NewAnalyzer()
				rng := rand.New(rand.NewSource(int64(9000 + trial)))
				var resident mcs.TaskSet
				for i := 0; i < 60; i++ {
					if len(resident) > 0 && rng.Intn(2) == 0 {
						j := rng.Intn(len(resident))
						an.Forget(resident[j].ID)
						resident = append(resident[:j], resident[j+1:]...)
						continue
					}
					period := mcs.Ticks(8 + rng.Intn(93))
					d := period
					if !core.ImplicitOnly(test) {
						d = period/2 + mcs.Ticks(rng.Intn(int(period/2)+1))
						if d <= 0 {
							d = 1
						}
					}
					cl := 1 + mcs.Ticks(rng.Intn(int(d/3+1)))
					var task mcs.Task
					if rng.Intn(2) == 0 {
						ch := cl + mcs.Ticks(rng.Intn(int(d-cl)+1))
						task = mcs.NewHCConstrained(i+1000, cl, ch, period, d)
					} else {
						task = mcs.NewLCConstrained(i+1000, cl, period, d)
					}
					cand := append(resident.Clone(), task)
					want := oracleOf(test)(cand)
					if got := an.Schedulable(cand); got != want {
						t.Fatalf("trial %d op %d: analyzer=%v oracle=%v for:\n%v",
							trial, i, got, want, cand)
					}
					if want {
						resident = append(resident, task)
					}
				}
			}
		})
	}
}

// TestAnalyzerForgetUnknownID: pruning an ID the analyzer never saw must be
// a no-op, and Invalidate must leave the analyzer functional.
func TestAnalyzerForgetUnknownID(t *testing.T) {
	for _, test := range analyzerFamilies() {
		an := test.NewAnalyzer()
		ts := mcs.TaskSet{mcs.NewHC(1, 1, 2, 10), mcs.NewLC(2, 1, 12)}
		want := oracleOf(test)(ts)
		if got := an.Schedulable(ts); got != want {
			t.Fatalf("%s: analyzer=%v oracle=%v", test.Name(), got, want)
		}
		an.Forget(99)
		an.Invalidate()
		if got := an.Schedulable(ts); got != want {
			t.Fatalf("%s after Invalidate: analyzer=%v oracle=%v", test.Name(), got, want)
		}
	}
}

// TestAnalyzerFilterCounters asserts the headline filters actually fire on
// sets built to trigger them, so the /v1/stats counters are not
// dead-on-arrival.
func TestAnalyzerFilterCounters(t *testing.T) {
	// Overload: LO utilization far above 1 on valid constrained tasks.
	overload := make(mcs.TaskSet, 0, 8)
	for i := 0; i < 8; i++ {
		overload = append(overload, mcs.NewLC(i, 3, 10))
	}
	// Trivial: one light LC task (density accept for the demand families).
	light := mcs.TaskSet{mcs.NewLC(0, 1, 100)}

	for _, test := range analyzerFamilies() {
		an := test.NewAnalyzer()
		if got, want := an.Schedulable(overload), oracleOf(test)(overload); got != want {
			t.Fatalf("%s overload: analyzer=%v oracle=%v", test.Name(), got, want)
		}
		if got, want := an.Schedulable(light), oracleOf(test)(light); got != want {
			t.Fatalf("%s light: analyzer=%v oracle=%v", test.Name(), got, want)
		}
		ctr := an.Counters()
		if ctr.FastRejects == 0 {
			t.Errorf("%s: overloaded set did not trip the fast reject (counters %+v)", test.Name(), *ctr)
		}
	}

	// The AMC-max analyzer must take the rtb-implies-max shortcut on an
	// easy HC set.
	an := amc.Test{Opts: amc.DefaultOptions()}.NewAnalyzer()
	easy := mcs.TaskSet{mcs.NewHC(0, 1, 2, 50), mcs.NewHC(1, 2, 4, 80)}
	if !an.Schedulable(easy) {
		t.Fatal("easy HC set rejected")
	}
	if an.Counters().FastAccepts == 0 {
		t.Errorf("AMC-max: no rtb-implies-max fast accept on an easy set (counters %+v)", *an.Counters())
	}
}

// TestAnalyzerWarmStartsFire: growing one core task by task must hit each
// family's warm-start path — memoized response times for AMC, cached sum
// folds for EDF-VD and utilization EDF, cached curves and horizon folds
// for the demand families — while every verdict stays bit-identical to the
// stateless oracle. Each stream is built so probes reach the family's exact
// (or warm-counted) path rather than being fully filter-resolved.
func TestAnalyzerWarmStartsFire(t *testing.T) {
	// Constrained-deadline LC task for the EDF demand stream: density
	// Σ C/D crosses 1 after a few tasks (staggered deadlines 2, 3, 4, …)
	// while utilization stays at 0.1 per task, so probes fall through the
	// filters into the seeded QPA path and remain schedulable throughout.
	edfDemandTask := func(i int) mcs.Task {
		task := mcs.NewLC(i, 1, 10)
		task.Deadline = mcs.Ticks(2 + i)
		return task
	}
	cases := []struct {
		name            string
		test            kernel.Incremental
		task            func(i int) mcs.Task
		steps           int
		wantIncremental bool
	}{
		{
			// Decreasing periods: each newcomer slots ABOVE the residents in
			// the deadline-monotonic order, forcing re-verification of
			// everything below it — which is where the warm seeds apply.
			name:  "AMC-rtb-DM",
			test:  amc.Test{Opts: amc.Options{Variant: amc.RTB, Policy: amc.DeadlineMonotonic}},
			task:  func(i int) mcs.Task { return mcs.NewHC(i, 1, 2, mcs.Ticks(80-3*i)) },
			steps: 12, wantIncremental: true,
		},
		{
			name:  "EDF-VD",
			test:  edfvd.Test{},
			task:  func(i int) mcs.Task { return mcs.NewHC(i, 1, 2, 100) },
			steps: 10, wantIncremental: true,
		},
		{
			// HC tasks keep the density fast-accept off; utilizations stay
			// under 1 so the exact demand analysis runs on every probe.
			name:  "EY",
			test:  ey.Test{},
			task:  func(i int) mcs.Task { return mcs.NewHC(i, 2, 4, 40) },
			steps: 9,
		},
		{
			name:  "ECDF",
			test:  ecdf.Test{},
			task:  func(i int) mcs.Task { return mcs.NewHC(i, 2, 4, 40) },
			steps: 9,
		},
		{
			name: "EDF-demand",
			test: edf.Test{Demand: true},
			task: edfDemandTask, steps: 8,
		},
		{
			name:  "EDF-util",
			test:  edf.Test{Demand: false},
			task:  func(i int) mcs.Task { return mcs.NewLC(i, 1, 10) },
			steps: 8, wantIncremental: true,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			an := tc.test.NewAnalyzer()
			var resident mcs.TaskSet
			for i := 0; i < tc.steps; i++ {
				task := tc.task(i)
				cand := append(resident.Clone(), task)
				want := oracleOf(tc.test)(cand)
				if got := an.Schedulable(cand); got != want {
					t.Fatalf("step %d: analyzer=%v oracle=%v", i, got, want)
				}
				if want {
					resident = append(resident, task)
				}
			}
			ctr := an.Counters()
			if ctr.WarmStarts == 0 {
				t.Errorf("no warm starts over a growing core (counters %+v)", *ctr)
			}
			if tc.wantIncremental && ctr.IncrementalHits == 0 {
				t.Errorf("no incremental decisions over a growing core (counters %+v)", *ctr)
			}
			if len(resident) == 0 {
				t.Error("stream admitted nothing; sweep uninformative")
			}
		})
	}
}

// TestAnalyzerWarmStartsSurviveRelease: the demand-bound memos must stay
// valid across removals (the Assigner compacts order-preservingly and the
// analyzers refold), so an admit–release–admit cycle keeps warm-starting
// instead of falling back cold — with verdicts still matching the
// stateless oracle after every mutation.
func TestAnalyzerWarmStartsSurviveRelease(t *testing.T) {
	streams := []struct {
		name string
		test kernel.Incremental
		task func(i int) mcs.Task
	}{
		{"EDF-VD", edfvd.Test{}, func(i int) mcs.Task { return mcs.NewHC(i, 1, 2, 100) }},
		{"EY", ey.Test{}, func(i int) mcs.Task { return mcs.NewHC(i, 2, 4, 40) }},
		{"ECDF", ecdf.Test{}, func(i int) mcs.Task { return mcs.NewHC(i, 2, 4, 40) }},
	}
	for _, tc := range streams {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			an := tc.test.NewAnalyzer()
			var resident mcs.TaskSet
			admit := func(i int) {
				t.Helper()
				task := tc.task(i)
				cand := append(resident.Clone(), task)
				want := oracleOf(tc.test)(cand)
				if got := an.Schedulable(cand); got != want {
					t.Fatalf("admit %d: analyzer=%v oracle=%v", i, got, want)
				}
				if want {
					resident = append(resident, task)
				}
			}
			for i := 0; i < 6; i++ {
				admit(i)
			}
			// Release from the middle, then keep admitting: the post-release
			// probes must still be warm.
			victim := resident[2].ID
			for j := range resident {
				if resident[j].ID == victim {
					resident = append(resident[:j], resident[j+1:]...)
					break
				}
			}
			an.Forget(victim)
			before := an.Counters().WarmStarts
			for i := 6; i < 10; i++ {
				admit(i)
			}
			if after := an.Counters().WarmStarts; after == before {
				t.Errorf("no warm starts after a release (counters %+v)", *an.Counters())
			}
		})
	}
}

// TestAnalyzerScratchIndependence: interleaving probes of DIFFERENT cores
// through DIFFERENT analyzers of the same family must not cross-contaminate
// (each analyzer owns its scratch and memo).
func TestAnalyzerScratchIndependence(t *testing.T) {
	test := amc.Test{Opts: amc.DefaultOptions()}
	const cores = 3
	ans := make([]kernel.Analyzer, cores)
	residents := make([]mcs.TaskSet, cores)
	for k := range ans {
		ans[k] = test.NewAnalyzer()
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		k := rng.Intn(cores)
		tticks := mcs.Ticks(10 + rng.Intn(90))
		cl := 1 + mcs.Ticks(rng.Intn(int(tticks/5+1)))
		ch := cl + mcs.Ticks(rng.Intn(int(tticks/4+1)))
		if ch > tticks {
			ch = tticks
		}
		task := mcs.NewHC(i, cl, ch, tticks)
		cand := append(residents[k].Clone(), task)
		want := oracleOf(test)(cand)
		if got := ans[k].Schedulable(cand); got != want {
			t.Fatalf("probe %d core %d: analyzer=%v oracle=%v", i, k, got, want)
		}
		if want {
			residents[k] = append(residents[k], task)
		}
	}
	admitted := 0
	for _, r := range residents {
		admitted += len(r)
	}
	if admitted == 0 {
		t.Error("no core admitted anything; sweep uninformative")
	}
}
