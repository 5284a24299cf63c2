//go:build race

package core

// The race detector drops a quarter of sync.Pool puts, so allocation
// counts of pooled paths mean nothing under it.
func init() { raceEnabled = true }
