// Package crosstest holds properties that span several schedulability
// analyses: dominance relations between tests, agreement on degenerate
// inputs, and executable soundness checks that drive the runtime simulator
// with the exact artefacts (virtual deadlines, priorities) an analysis
// certified. These relations are what the paper's algorithm pairings rely
// on (e.g. "EY … relatively less efficient … than ECDF").
package crosstest

import (
	"math/rand"
	"testing"

	"mcsched/internal/analysis/amc"
	"mcsched/internal/analysis/ecdf"
	"mcsched/internal/analysis/edfvd"
	"mcsched/internal/analysis/ey"
	"mcsched/internal/mcs"
	"mcsched/internal/oracle"
	"mcsched/internal/sim"
	"mcsched/internal/taskgen"
)

// amcDefault is AMC-max with Audsley priorities, the default AMC test.
var amcDefault = amc.Test{Opts: amc.DefaultOptions()}

// drawSets generates n small uniprocessor task sets across the load range.
func drawSets(t *testing.T, n int, constrained bool) []mcs.TaskSet {
	t.Helper()
	var out []mcs.TaskSet
	for seed := int64(0); len(out) < n && seed < int64(4*n); seed++ {
		rng := rand.New(rand.NewSource(seed))
		uhh := 0.2 + 0.6*rng.Float64()
		ulh := uhh * (0.3 + 0.6*rng.Float64())
		ull := 0.1 + 0.5*rng.Float64()
		cfg := taskgen.DefaultConfig(1, uhh, ulh, ull)
		cfg.NMin, cfg.NMax = 3, 8
		cfg.Constrained = constrained
		ts, err := taskgen.Generate(rng, cfg)
		if err != nil {
			continue
		}
		out = append(out, ts)
	}
	if len(out) < n {
		t.Fatalf("could only generate %d/%d sets", len(out), n)
	}
	return out
}

// TestECDFDominatesEYGenerated: per-set strict dominance — every EY-accepted
// set must be ECDF-accepted (ECDF runs the EY pass first and only adds
// restarts). Checked on implicit and constrained deadlines.
func TestECDFDominatesEYGenerated(t *testing.T) {
	for _, constrained := range []bool{false, true} {
		accepted := 0
		for _, ts := range drawSets(t, 60, constrained) {
			eyOK := oracle.EY(ts, 0).Schedulable
			ecdfOK := oracle.ECDF(ts, 0, nil).Schedulable
			if eyOK && !ecdfOK {
				t.Fatalf("constrained=%v: EY accepted but ECDF rejected:\n%v", constrained, ts)
			}
			if eyOK {
				accepted++
			}
		}
		if accepted == 0 {
			t.Errorf("constrained=%v: EY accepted nothing; sweep uninformative", constrained)
		}
	}
}

// TestECDFAddsValueOverEY: across the sweep, ECDF must accept strictly more
// sets than EY (the restarts must help somewhere) — this is the gap the
// paper exploits by pairing its strategies with ECDF.
func TestECDFAddsValueOverEY(t *testing.T) {
	eyCount, ecdfCount := 0, 0
	for _, ts := range drawSets(t, 120, true) {
		if oracle.EY(ts, 0).Schedulable {
			eyCount++
		}
		if oracle.ECDF(ts, 0, nil).Schedulable {
			ecdfCount++
		}
	}
	if ecdfCount < eyCount {
		t.Fatalf("ECDF accepted %d < EY %d — dominance broken in aggregate", ecdfCount, eyCount)
	}
	if ecdfCount == eyCount {
		t.Logf("note: ECDF added no acceptances on this sweep (%d each)", eyCount)
	}
}

// TestAMCMaxDominatesRTBGenerated: AMC-max accepts every AMC-rtb-accepted
// set (Baruah/Burns/Davis prove per-task response-time dominance).
func TestAMCMaxDominatesRTBGenerated(t *testing.T) {
	rtbOpts := oracle.AMCOptions{}          // AMC-rtb, Audsley
	maxOpts := oracle.AMCOptions{Max: true} // AMC-max, Audsley
	for _, ts := range drawSets(t, 80, true) {
		rtb := oracle.AMC(ts, rtbOpts).Schedulable
		max := oracle.AMC(ts, maxOpts).Schedulable
		if rtb && !max {
			t.Fatalf("AMC-rtb accepted but AMC-max rejected:\n%v", ts)
		}
	}
}

// TestAllAgreeOnLCOnlyImplicit: with no HC task and implicit deadlines,
// every MC test must degenerate to plain EDF/RM behaviour: EDF-VD, EY and
// ECDF accept exactly when utilization ≤ 1 (dbf equality for the dynamic
// tests); AMC accepts a superset-of-none (fixed-priority is weaker, it may
// reject, but must accept at utilization well below the RM bound).
func TestAllAgreeOnLCOnlyImplicit(t *testing.T) {
	light := mcs.TaskSet{mcs.NewLC(0, 2, 10), mcs.NewLC(1, 3, 15), mcs.NewLC(2, 1, 20)} // u=0.45
	full := mcs.TaskSet{mcs.NewLC(0, 5, 10), mcs.NewLC(1, 5, 10)}                       // u=1.0
	over := mcs.TaskSet{mcs.NewLC(0, 6, 10), mcs.NewLC(1, 5, 10)}                       // u=1.1

	for name, test := range map[string]func(mcs.TaskSet) bool{
		"EDF-VD": edfvd.Test{}.Schedulable,
		"EY":     ey.Test{}.Schedulable,
		"ECDF":   ecdf.Test{}.Schedulable,
	} {
		if !test(light) {
			t.Errorf("%s rejected a 0.45-utilization LC-only set", name)
		}
		if !test(full) {
			t.Errorf("%s rejected a utilization-1.0 LC-only synchronous set", name)
		}
		if test(over) {
			t.Errorf("%s accepted an overloaded LC-only set", name)
		}
	}
	if !amcDefault.Schedulable(light) {
		t.Error("AMC rejected a 0.45-utilization LC-only set")
	}
	if amcDefault.Schedulable(over) {
		t.Error("AMC accepted an overloaded LC-only set")
	}
}

// TestNoTestAcceptsStructuralOverload: UHH > 1 on one core is infeasible for
// every algorithm (HI-mode demand alone exceeds the processor).
func TestNoTestAcceptsStructuralOverload(t *testing.T) {
	ts := mcs.TaskSet{
		mcs.NewHC(0, 10, 60, 100),
		mcs.NewHC(1, 10, 50, 100),
	} // UHH = 1.1
	for name, test := range map[string]func(mcs.TaskSet) bool{
		"EDF-VD": edfvd.Test{}.Schedulable,
		"EY":     ey.Test{}.Schedulable,
		"ECDF":   ecdf.Test{}.Schedulable,
		"AMC":    amcDefault.Schedulable,
	} {
		if test(ts) {
			t.Errorf("%s accepted UHH=1.1", name)
		}
	}
}

// TestEveryTestAcceptsTinyLoad: a single featherweight HC task passes every
// analysis, implicit or constrained.
func TestEveryTestAcceptsTinyLoad(t *testing.T) {
	for _, ts := range []mcs.TaskSet{
		{mcs.NewHC(0, 1, 2, 100)},
		{mcs.NewHCConstrained(0, 1, 2, 100, 50)},
	} {
		for name, test := range map[string]func(mcs.TaskSet) bool{
			"EY":   ey.Test{}.Schedulable,
			"ECDF": ecdf.Test{}.Schedulable,
			"AMC":  amcDefault.Schedulable,
		} {
			if !test(ts) {
				t.Errorf("%s rejected a u^H=0.02 task (D=%d)", name, ts[0].Deadline)
			}
		}
	}
	if !(edfvd.Test{}).Schedulable(mcs.TaskSet{mcs.NewHC(0, 1, 2, 100)}) {
		t.Error("EDF-VD rejected a u^H=0.02 task")
	}
}

// TestECDFCertifiedDeadlinesSurviveSimulation drives the virtual-deadline
// EDF runtime with ECDF's own accepted assignment on constrained-deadline
// sets, under both the LO-steady and the all-overrun (HI-storm) scenarios.
// This is the executable form of the dbf test's guarantee.
func TestECDFCertifiedDeadlinesSurviveSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	checked := 0
	for _, ts := range drawSets(t, 60, true) {
		res := ecdf.Analyze(ts)
		if !res.Schedulable {
			continue
		}
		checked++
		for _, sc := range []string{sim.SpecLoSteady, sim.SpecHiStorm} {
			r := sim.SimulateCore(ts, sim.Config{
				Spec:        sim.Spec{Horizon: 60000, Scenario: sc},
				CoreRuntime: sim.CoreRuntime{Policy: sim.VirtualDeadlineEDF, VD: res.VD},
			})
			if !r.OK() {
				t.Fatalf("ECDF-certified set missed under %s: %v\nVD=%v\n%v",
					sc, r.Misses[0], res.VD, ts)
			}
		}
	}
	if checked < 10 {
		t.Fatalf("only %d ECDF acceptances exercised", checked)
	}
}

// TestAMCCertifiedPrioritiesSurviveSimulation drives the fixed-priority
// runtime with the Audsley order AMC certified, under LO-steady and
// HI-storm scenarios.
func TestAMCCertifiedPrioritiesSurviveSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	checked := 0
	for _, ts := range drawSets(t, 60, true) {
		res := amc.Analyze(ts, amc.DefaultOptions())
		if !res.Schedulable {
			continue
		}
		checked++
		for _, sc := range []string{sim.SpecLoSteady, sim.SpecHiStorm} {
			r := sim.SimulateCore(ts, sim.Config{
				Spec:        sim.Spec{Horizon: 60000, Scenario: sc},
				CoreRuntime: sim.CoreRuntime{Policy: sim.FixedPriority, Priorities: res.Priority},
			})
			if !r.OK() {
				t.Fatalf("AMC-certified set missed under %s: %v\nprio=%v\n%v",
					sc, r.Misses[0], res.Priority, ts)
			}
		}
	}
	if checked < 10 {
		t.Fatalf("only %d AMC acceptances exercised", checked)
	}
}

// TestEDFVDXSurvivesSimulation drives the EDF-VD runtime with the computed
// scaling factor on implicit-deadline sets.
func TestEDFVDXSurvivesSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	checked := 0
	for _, ts := range drawSets(t, 60, false) {
		res := edfvd.Analyze(ts)
		if !res.Schedulable {
			continue
		}
		checked++
		for _, sc := range []string{sim.SpecLoSteady, sim.SpecHiStorm} {
			r := sim.SimulateCore(ts, sim.Config{
				Spec:        sim.Spec{Horizon: 60000, Scenario: sc},
				CoreRuntime: sim.CoreRuntime{Policy: sim.VirtualDeadlineEDF, VD: sim.VDFromX(ts, res.X)},
			})
			if !r.OK() {
				t.Fatalf("EDF-VD-certified set missed under %s (x=%.3f): %v\n%v",
					sc, res.X, r.Misses[0], ts)
			}
		}
	}
	if checked < 10 {
		t.Fatalf("only %d EDF-VD acceptances exercised", checked)
	}
}
