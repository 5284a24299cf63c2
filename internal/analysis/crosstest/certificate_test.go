package crosstest

import (
	"maps"
	"math"
	"testing"

	"mcsched/internal/analysis/amc"
	"mcsched/internal/analysis/ecdf"
	"mcsched/internal/analysis/edfvd"
	"mcsched/internal/analysis/ey"
	"mcsched/internal/oracle"
)

// TestCertificatesMatchOracle: every family's production Analyze — its
// engine, run cold — hands out the certificate the stateless oracle
// computes, not only the verdict: the virtual-deadline map for EY and
// ECDF, the priority map for AMC-max, AMC-rtb and AMC-max(dm), and
// EDF-VD's x, equal key for key and bit for bit on implicit and
// constrained sets. The certificates are what the runtime executes
// (admission.RuntimeForCore), so a search that reaches the same verdict
// by another path fails here.
func TestCertificatesMatchOracle(t *testing.T) {
	amcOpts := []amc.Options{
		amc.DefaultOptions(),
		{Variant: amc.RTB, Policy: amc.Audsley},
		{Variant: amc.Max, Policy: amc.DeadlineMonotonic},
	}
	for _, constrained := range []bool{false, true} {
		accepted := map[string]int{}
		for _, ts := range drawSets(t, 600, constrained) {
			eyGot, eyWant := ey.Analyze(ts), oracle.EY(ts, 256)
			if eyGot.Schedulable != eyWant.Schedulable || !maps.Equal(eyGot.VD, eyWant.VD) {
				t.Fatalf("constrained=%v: EY gives (%v, %v), the oracle (%v, %v) for\n%v",
					constrained, eyGot.Schedulable, eyGot.VD, eyWant.Schedulable, eyWant.VD, ts)
			}
			ecdfGot, ecdfWant := ecdf.Analyze(ts), oracle.ECDF(ts, 256, oracle.DefaultLambdas())
			if ecdfGot.Schedulable != ecdfWant.Schedulable || !maps.Equal(ecdfGot.VD, ecdfWant.VD) {
				t.Fatalf("constrained=%v: ECDF gives (%v, %v), the oracle (%v, %v) for\n%v",
					constrained, ecdfGot.Schedulable, ecdfGot.VD, ecdfWant.Schedulable, ecdfWant.VD, ts)
			}
			if eyGot.Schedulable {
				accepted["EY"]++
			}
			if ecdfWant.Restarts > 0 {
				accepted["ECDF after a restart"]++
			}
			for _, o := range amcOpts {
				name := amc.Test{Opts: o}.Name()
				got, want := amc.Analyze(ts, o), oracle.AMC(ts, amcOracleOptions(o))
				if got.Schedulable != want.Schedulable || !maps.Equal(got.Priority, want.Priority) {
					t.Fatalf("constrained=%v: %s gives (%v, %v), the oracle (%v, %v) for\n%v",
						constrained, name, got.Schedulable, got.Priority, want.Schedulable, want.Priority, ts)
				}
				if got.Schedulable {
					accepted[name]++
				}
			}
			got, want := edfvd.Analyze(ts), oracle.EDFVD(ts)
			if got.Schedulable != want.Schedulable || got.PlainEDF != want.PlainEDF ||
				math.Float64bits(got.X) != math.Float64bits(want.X) {
				t.Fatalf("constrained=%v: EDF-VD gives %+v, the oracle %+v for\n%v", constrained, got, want, ts)
			}
			if got.Schedulable && !got.PlainEDF {
				accepted["EDF-VD with x < 1"]++
			}
		}
		t.Logf("constrained=%v: %v", constrained, accepted)
		for _, name := range []string{"EY", "ECDF after a restart", "AMC-max", "AMC-rtb", "AMC-max(dm)", "EDF-VD with x < 1"} {
			if accepted[name] < 3 {
				t.Errorf("constrained=%v: corpus too tame, %d certificates from %s", constrained, accepted[name], name)
			}
		}
	}
}
