package core

import (
	"reflect"
	"testing"
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
