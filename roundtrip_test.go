package mcsched

import "testing"

// TestStrategyNameRoundTrip audits that every exported strategy constructor
// resolves back to itself through StrategyByName — the contract the CLI
// flags, the daemon and serialized experiment configs rely on.
func TestStrategyNameRoundTrip(t *testing.T) {
	constructors := []Strategy{
		mustStrategy("CA-UDP"),
		mustStrategy("CU-UDP"),
		CANoSortFF(),
		CAFF(),
		CAWuF(),
		ECAWuF(),
		FFD(),
		WFD(),
	}
	// The registry must cover exactly the constructors.
	if got, want := len(Strategies()), len(constructors); got != want {
		t.Errorf("Strategies() lists %d strategies, constructors export %d", got, want)
	}
	seen := make(map[string]bool)
	for _, s := range constructors {
		name := s.Name()
		if seen[name] {
			t.Errorf("duplicate strategy name %q", name)
		}
		seen[name] = true
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
