package mcsched

import (
	"slices"
	"testing"
)

// TestStrategyNameRoundTrip audits that every strategy name resolves back
// to itself through StrategyByName — the contract the CLI flags, the daemon
// and serialized experiment configs rely on.
func TestStrategyNameRoundTrip(t *testing.T) {
	want := []string{"CA-UDP", "CU-UDP", "CA(nosort)-F-F", "CA-F-F", "CA-Wu-F", "ECA-Wu-F", "FFD", "WFD"}
	var names []string
	for _, s := range Strategies() {
		names = append(names, s.Name())
	}
	if !slices.Equal(names, want) {
		t.Errorf("Strategies() names %q, want %q", names, want)
	}
	for _, name := range want {
		got, ok := StrategyByName(name)
		if !ok {
			t.Errorf("StrategyByName(%q) not found", name)
			continue
		}
		if got.Name() != name {
			t.Errorf("StrategyByName(%q).Name() = %q", name, got.Name())
		}
	}
	if _, ok := StrategyByName("no-such-strategy"); ok {
		t.Error("unknown strategy name resolved")
	}
}

// TestTestNameRoundTrip audits the same contract for every exported test
// constructor: FFD/WFD-style coverage for TestByName, including the AMC-rtb
// and plain-EDF constructors that live outside Tests().
func TestTestNameRoundTrip(t *testing.T) {
	constructors := []Test{
		EDFVD(),
		ECDF(),
		EY(),
		AMC(),
		AMCWith(AMCRtb),
		AMCWith(AMCMax),
		AMCDeadlineMonotonic(),
		PlainEDF(false),
		PlainEDF(true),
	}
	for _, tc := range constructors {
		name := tc.Name()
		got, ok := TestByName(name)
		if !ok {
			t.Errorf("TestByName(%q) not found", name)
			continue
		}
		if got.Name() != name {
			t.Errorf("TestByName(%q).Name() = %q", name, got.Name())
		}
	}
	// The resolved AMC variants must actually differ in strength somewhere;
	// spot-check that the names map to the intended variants.
	if rtb, _ := TestByName("AMC-rtb"); rtb.Name() != "AMC-rtb" {
		t.Errorf("AMC-rtb resolves to %q", rtb.Name())
	}
	if maxT, _ := TestByName("AMC-max"); maxT.Name() != "AMC-max" {
		t.Errorf("AMC-max resolves to %q", maxT.Name())
	}
	// The two AMC-max priority policies must not alias by name: verdict
	// caches and registries key on Name(), and Audsley versus deadline-
	// monotonic genuinely disagree on some task sets.
	if AMC().Name() == AMCDeadlineMonotonic().Name() {
		t.Errorf("AMC Audsley and deadline-monotonic share the name %q", AMC().Name())
	}
	if _, ok := TestByName("no-such-test"); ok {
		t.Error("unknown test name resolved")
	}
}
