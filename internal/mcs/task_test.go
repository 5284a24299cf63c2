package mcs

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewLC(t *testing.T) {
	task := NewLC(3, 10, 100)
	if task.Crit != LO {
		t.Errorf("crit = %v, want LO", task.Crit)
	}
	if task.CLo() != 10 || task.CHi() != 10 {
		t.Errorf("budgets = (%d,%d), want (10,10)", task.CLo(), task.CHi())
	}
	if task.Deadline != 100 || !task.Implicit() {
		t.Errorf("deadline = %d, want implicit 100", task.Deadline)
	}
	if math.Abs(task.ULo-0.1) > 1e-12 || math.Abs(task.UHi-0.1) > 1e-12 {
		t.Errorf("utilizations = (%g,%g), want (0.1,0.1)", task.ULo, task.UHi)
	}
	if err := task.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestNewHC(t *testing.T) {
	task := NewHC(1, 10, 25, 100)
	if !task.IsHC() {
		t.Fatal("IsHC = false")
	}
	if got := task.UtilDiff(); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("UtilDiff = %g, want 0.15", got)
	}
	if got := task.LevelUtil(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("LevelUtil = %g, want 0.25 (u^H for HC)", got)
	}
	if err := task.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestNewHCConstrained(t *testing.T) {
	task := NewHCConstrained(1, 10, 25, 100, 60)
	if task.Deadline != 60 || task.Implicit() {
		t.Errorf("deadline = %d implicit=%v, want constrained 60", task.Deadline, task.Implicit())
	}
	if err := task.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestLevelString(t *testing.T) {
	if LO.String() != "LO" || HI.String() != "HI" {
		t.Errorf("Level strings = %q, %q", LO.String(), HI.String())
	}
	if s := Level(9).String(); !strings.Contains(s, "9") {
		t.Errorf("bogus level string = %q", s)
	}
}

// TestLevelText: a level encodes and decodes as its String name, and any
// other value or name is refused.
func TestLevelText(t *testing.T) {
	for _, l := range []Level{LO, HI} {
		b, err := l.MarshalText()
		if err != nil || string(b) != l.String() {
			t.Errorf("%v: MarshalText = %q, %v", l, b, err)
		}
		var got Level
		if err := got.UnmarshalText(b); err != nil || got != l {
			t.Errorf("%q: UnmarshalText = %v, %v", b, got, err)
		}
	}
	if _, err := Level(2).MarshalText(); err == nil {
		t.Error("Level(2) encoded")
	}
	for _, name := range []string{"", "lo", "MID", "Level(2)"} {
		var l Level
		if err := l.UnmarshalText([]byte(name)); err == nil {
			t.Errorf("%q decoded", name)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		task Task
		want string
	}{
		{"zero period", Task{ID: 1}, "period"},
		{"zero deadline", Task{ID: 1, Period: 10}, "deadline"},
		{"deadline beyond period", Task{ID: 1, Period: 10, Deadline: 11, WCET: [2]Ticks{1, 1}}, "exceeds period"},
		{"zero budget", Task{ID: 1, Period: 10, Deadline: 10}, "C^L"},
		{"CH below CL", Task{ID: 1, Period: 10, Deadline: 10, WCET: [2]Ticks{5, 3}}, "smaller than"},
		{"LC with distinct budgets", Task{ID: 1, Crit: LO, Period: 10, Deadline: 10, WCET: [2]Ticks{3, 5}}, "LC task"},
		{"budget beyond deadline", Task{ID: 1, Crit: HI, Period: 10, Deadline: 4, WCET: [2]Ticks{3, 5}}, "trivially infeasible"},
		{"uH below uL", Task{ID: 1, Crit: HI, Period: 10, Deadline: 10, WCET: [2]Ticks{3, 5}, ULo: 0.5, UHi: 0.3}, "u^H"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.task.Validate()
			if err == nil {
				t.Fatalf("Validate accepted invalid task %+v", tc.task)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestTaskString(t *testing.T) {
	s := NewHC(3, 10, 25, 100).String()
	for _, want := range []string{"τ3", "HI", "T=100", "C=(10,25)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestUtilAt(t *testing.T) {
	task := NewHC(1, 10, 25, 100)
	if task.UtilAt(LO) != task.ULo || task.UtilAt(HI) != task.UHi {
		t.Errorf("UtilAt mismatch: %g %g vs %g %g", task.UtilAt(LO), task.UtilAt(HI), task.ULo, task.UHi)
	}
}

// Property: for any valid constructor input, constructors produce tasks
// that pass Validate and have consistent utilizations.
func TestConstructorsAlwaysValid(t *testing.T) {
	f := func(clRaw, chRaw, tRaw uint16) bool {
		period := Ticks(tRaw%1000) + 2
		cl := Ticks(clRaw)%period + 1
		ch := cl + Ticks(chRaw)%(period-cl+1)
		task := NewHC(1, cl, ch, period)
		if err := task.Validate(); err != nil {
			t.Logf("cl=%d ch=%d T=%d: %v", cl, ch, period, err)
			return false
		}
		return task.UHi >= task.ULo && task.ULo > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
