// Package oracle holds the stateless reference searches the production
// analyses are checked against. Each built-in schedulability-test family
// has one production search, its incremental engine (package ey's Shaper,
// ecdf's search on it, amc's Analyzer, edf's Analyzer); the searches here
// are the from-scratch forms they replaced: a fresh map-keyed assignment
// and freshly built demand curves for every check (EY, ECDF), a fresh
// higher-priority set and cold fixed points for every candidate (AMC),
// and the plain folds (EDF, EDF-VD).
//
// An oracle that shared the engine's helpers would check only its
// bookkeeping, so everything here is its own copy: it imports the task
// model and the dbf curves and walks, never a family package. That is
// also what lets the families' own internal tests import it.
//
// Only _test.go files import this package; TestNoBinaryLinksOracle fails
// when any binary of the module links it.
package oracle
