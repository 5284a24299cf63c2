package oracle

import (
	"mcsched/internal/analysis/dbf"
	"mcsched/internal/mcs"
)

// horizonLO is the QPA horizon of LO-mode step curves. It folds the
// utilization, offset, transient and hyperperiod terms itself, so the
// engines' folds (dbf.LOAccum, the Shaper's cached per-curve terms) are
// checked against an independent one; dbf.Horizon combines the terms.
func horizonLO(steps []dbf.Step) (L mcs.Ticks, ok bool) {
	if len(steps) == 0 {
		return 0, true
	}
	var u, off float64
	var maxD mcs.Ticks
	hyper, hyperOK := mcs.Ticks(1), true
	for _, s := range steps {
		ui := float64(s.C) / float64(s.T)
		u += ui
		if d := float64(float64(s.T-s.D) * ui); d > 0 {
			off += d
		}
		maxD = max(maxD, s.D)
		hyper, hyperOK = lcmCapped(hyper, s.T, hyperOK)
	}
	return dbf.Horizon(u, off, maxD, hyper, hyperOK)
}

// horizonHI is the QPA horizon of HI-mode sawtooth curves, folded like
// horizonLO: dbf_HI(ℓ) ≤ u^H·ℓ + C^H·(1 − (D−VD)/T) per task, and the
// curve repeats with its period beyond D − VD.
func horizonHI(saws []dbf.Sawtooth) (L mcs.Ticks, ok bool) {
	if len(saws) == 0 {
		return 0, true
	}
	var u, off float64
	var maxOff mcs.Ticks
	hyper, hyperOK := mcs.Ticks(1), true
	for _, s := range saws {
		u += float64(s.CH) / float64(s.T)
		off += float64(float64(s.CH) * (1 - float64(s.D-s.VD)/float64(s.T)))
		maxOff = max(maxOff, s.D-s.VD)
		hyper, hyperOK = lcmCapped(hyper, s.T, hyperOK)
	}
	return dbf.Horizon(u, off, maxOff, hyper, hyperOK)
}

// lcmCapped folds a period into a running hyperperiod, reporting whether
// it stayed within 2^22 (beyond that the periodic horizon is abandoned).
func lcmCapped(h, t mcs.Ticks, ok bool) (mcs.Ticks, bool) {
	const limit mcs.Ticks = 1 << 22
	if !ok {
		return h, false
	}
	g := h
	for b := t; b != 0; {
		g, b = b, g%b
	}
	if t/g > limit/h { // h/g·t would exceed the cap (overflow-safe)
		return h, false
	}
	h = h / g * t
	return h, h <= limit
}
