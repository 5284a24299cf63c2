package core

import (
	"errors"
	"reflect"
	"testing"

	"mcsched/internal/mcs"
)

// TestEveryTestNameResolves: the registry resolves exactly the wire names
// the facade, the daemon and the journals have always accepted, each to a
// test reporting that name, with the paper's four first in Tests order.
func TestEveryTestNameResolves(t *testing.T) {
	want := []string{"EDF-VD", "ECDF", "EY", "AMC-max", "AMC-rtb", "AMC-max(dm)", "EDF-util", "EDF-demand"}
	if got := TestNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("TestNames() = %q, want %q", got, want)
	}
	for _, name := range want {
		test, ok := TestByName(name)
		if !ok || test.Name() != name {
			t.Errorf("TestByName(%q) = %v, %v", name, test, ok)
		}
	}
	for i, test := range Tests() {
		if test.Name() != want[i] {
			t.Errorf("Tests()[%d] is %q, want %q", i, test.Name(), want[i])
		}
	}
	for _, name := range []string{"", "AMC-rtb(dm)", "edf-vd"} {
		if test, ok := TestByName(name); ok {
			t.Errorf("TestByName(%q) resolved %q", name, test.Name())
		}
	}
}

// TestImplicitOnlyRefusesConstrained: exactly EDF-VD and EDF-util cover
// implicit deadlines only. Under them every built-in strategy refuses a
// set with one constrained task with an UncoveredError naming it, before
// placing anything, and Schedulable says false; the other tests decide it.
func TestImplicitOnlyRefusesConstrained(t *testing.T) {
	constrained := mcs.NewHCConstrained(2, 1, 2, 100, 50)
	ts := mcs.TaskSet{mcs.NewLC(1, 1, 100), constrained}
	implicitOnly := map[string]bool{"EDF-VD": true, "EDF-util": true}
	for _, name := range TestNames() {
		test, _ := TestByName(name)
		only := implicitOnly[name]
		if ImplicitOnly(test) != only || Covers(test, constrained) == only || !Covers(test, ts[0]) {
			t.Errorf("%s: ImplicitOnly = %v, Covers(D<T) = %v", name, ImplicitOnly(test), Covers(test, constrained))
		}
		for _, s := range Strategies() {
			_, err := s.Partition(ts, 2, test)
			var uerr UncoveredError
			if got := errors.As(err, &uerr); got != only || (only && (uerr.Test != name || uerr.Task != constrained)) {
				t.Errorf("%s-%s: err = %v", s.Name(), name, err)
			}
			if errors.Is(err, ErrUnpartitionable) {
				t.Errorf("%s-%s: %v wraps ErrUnpartitionable", s.Name(), name, err)
			}
			if got := (Algorithm{Strategy: s, Test: test}).Schedulable(ts, 2); got == only {
				t.Errorf("%s-%s: Schedulable = %v", s.Name(), name, got)
			}
		}
	}
}
