package dbf

import "mcsched/internal/mcs"

// LOAccum is the fold state of the LO-mode QPA horizon over step curves,
// exported so incremental analyzers can extend a cached horizon one task
// at a time. The horizon inputs (utilization, affine offset, transient
// length, hyperperiod) are all left folds over the step slice, so
// appending a step to a task set and Add-ing its term to a saved
// accumulator reproduces the fold of the extended set exactly — same
// operations in the same order, bit-identical float results.
//
// The zero value is the empty accumulator; resetting is `acc = LOAccum{}`.
type LOAccum struct {
	U, Off  float64
	MaxD    mcs.Ticks
	Hyper   mcs.Ticks
	HyperOK bool
	N       int
}

// Add folds one step curve into the accumulator.
func (a *LOAccum) Add(s Step) {
	if a.N == 0 {
		a.Hyper, a.HyperOK = 1, true
	}
	ui := float64(s.C) / float64(s.T)
	a.U += ui
	// float64 rounds the product, so no ISA fuses it into the add below.
	if d := float64(float64(s.T-s.D) * ui); d > 0 {
		a.Off += d
	}
	if s.D > a.MaxD {
		a.MaxD = s.D
	}
	a.Hyper, a.HyperOK = lcmCapped(a.Hyper, s.T, a.HyperOK)
	a.N++
}

// Horizon returns the safe QPA horizon for the accumulated demand.
func (a *LOAccum) Horizon() (L mcs.Ticks, ok bool) {
	if a.N == 0 {
		return 0, true
	}
	return horizon(a.U, a.Off, a.MaxD, a.Hyper, a.HyperOK)
}

// HIAccum is the HI-mode counterpart of LOAccum: the fold state of the
// QPA horizon over sawtooth curves. Unlike the LO fold it is keyed on each
// task's virtual deadline (through offset = D − VD), so it is only
// reusable while the cached VD assignment is; shapers must rebuild it
// after tuning any deadline.
type HIAccum struct {
	U, Off  float64
	MaxOff  mcs.Ticks
	Hyper   mcs.Ticks
	HyperOK bool
	N       int
}

// Add folds one sawtooth curve into the accumulator.
func (a *HIAccum) Add(s Sawtooth) {
	if a.N == 0 {
		a.Hyper, a.HyperOK = 1, true
	}
	ui := float64(s.CH) / float64(s.T)
	a.U += ui
	// float64 rounds the product, so no ISA fuses it into the add.
	a.Off += float64(float64(s.CH) * (1 - float64(s.offset())/float64(s.T)))
	if s.offset() > a.MaxOff {
		a.MaxOff = s.offset()
	}
	a.Hyper, a.HyperOK = lcmCapped(a.Hyper, s.T, a.HyperOK)
	a.N++
}

// Horizon combines independently maintained fold components into the safe
// QPA horizon — the same combiner LOAccum/HIAccum use. It exists for hot
// loops (the EY/ECDF shaper) that cache per-curve fold terms and re-sum
// only what a deadline move changed: as long as u is the utilization sum,
// off the offset sum in curve order, transient the max transient length
// and hyper/hyperOK the capped-lcm fold of the periods, the result is
// bit-identical to a full LOAccum/HIAccum fold over the same curves.
func Horizon(u, off float64, transient, hyper mcs.Ticks, hyperOK bool) (L mcs.Ticks, ok bool) {
	return horizon(u, off, transient, hyper, hyperOK)
}
