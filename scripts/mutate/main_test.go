package main

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

const fixture = `package p

import "errors"

var calls int

func f(xs []int, n int) (int, error) {
	s := 0
	for i := 0; i < n; i++ {
		if xs[i] == 7 {
			break
		}
		s += xs[i]
		calls++
	}
	if s > 3 {
		return 0, errors.New("big")
	}
	return s, nil
}
`

// TestOperators: each operator yields its expected mutant of the fixture,
// and every mutant prints as Go that parses.
func TestOperators(t *testing.T) {
	want := map[string][]string{
		"cmp":      {"i <= n", "xs[i] != 7", "s >= 3"},
		"lit+1":    {"s := 1", "i := 1", "xs[i] == 8", "s > 4", "return 1, errors"},
		"lit-1":    {"s := -1", "i := -1", "xs[i] == 6", "s > 2", "return -1, errors"},
		"bound+1":  {"i < (n)+1"},
		"bound-1":  {"i < (n)-1"},
		"assign":   {"-s += xs[i]"},
		"incdec":   {"-calls++"},
		"errcheck": {"-return 0, errors.New"},
		"branch":   {"continue"},
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "", fixture, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]string{}
	for i, s := range sites(f) {
		src, err := render([]byte(fixture), i)
		if err != nil {
			t.Fatalf("site %d (%s): %v", i, s.op, err)
		}
		if _, err := parser.ParseFile(token.NewFileSet(), "", src, 0); err != nil {
			t.Errorf("site %d (%s) prints Go that does not parse: %v\n%s", i, s.op, err, src)
		}
		got[s.op] = append(got[s.op], string(src))
	}
	for op, frags := range want {
		if len(got[op]) != len(frags) {
			t.Errorf("%s: %d mutants, want %d", op, len(got[op]), len(frags))
			continue
		}
		for i, frag := range frags {
			src := got[op][i]
			if deleted, ok := strings.CutPrefix(frag, "-"); ok {
				if strings.Contains(src, deleted) {
					t.Errorf("%s mutant %d still holds %q:\n%s", op, i, deleted, src)
				}
			} else if !strings.Contains(src, frag) {
				t.Errorf("%s mutant %d lacks %q:\n%s", op, i, frag, src)
			}
		}
	}
	for op := range got {
		if want[op] == nil {
			t.Errorf("unexpected operator %s", op)
		}
	}
}

// TestSample: a sample is seeded, of the size asked, and keeps every
// operator.
func TestSample(t *testing.T) {
	var ms []mutant
	for i := 0; i < 90; i++ {
		ms = append(ms, mutant{file: "a.go", i: i, op: []string{"cmp", "cmp", "assign"}[i%3]})
	}
	ms = append(ms, mutant{file: "b.go", op: "branch"})
	a, b := sample(ms, 10), sample(ms, 10)
	ops := map[string]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("two samples differ at %d: %+v, %+v", i, a[i], b[i])
		}
		ops[a[i].op]++
	}
	if len(a) != 10 || ops["cmp"] != 6 || ops["assign"] != 3 || ops["branch"] != 1 {
		t.Errorf("sample of 10: %d mutants, by operator %v", len(a), ops)
	}
}
