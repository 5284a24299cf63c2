package dbf

import (
	"mcsched/internal/mcs"
)

// Sawtooth is the HI-mode demand-bound curve of a high-criticality task
// with LO-mode (virtual) relative deadline VD ≤ D, following the worst-case
// alignment of Ekberg & Yi (ECRTS 2012): the mode switch coincides with the
// virtual deadline of a carry-over job, whose remaining demand is
// C^H − done, and subsequent jobs arrive as densely as possible.
//
// With q = ℓ − (D − VD), m = ⌊q/T⌋ and r = q mod T:
//
//	dbf_HI(ℓ) = 0                                   if q < 0
//	dbf_HI(ℓ) = (m+1)·C^H − max(0, C^L − r)         otherwise.
//
// The curve jumps by C^H − C^L at q = m·T, ramps with slope 1 for
// r ∈ [0, C^L] (the carry-over job's guaranteed LO-mode progress shrinks as
// the switch moves earlier), then stays flat until the next jump. It is
// nondecreasing, piecewise linear with integer kinks, and integer-valued at
// integer points — exactly what QPA needs.
type Sawtooth struct {
	CL, CH mcs.Ticks // C^L ≤ C^H
	D      mcs.Ticks // real relative deadline
	VD     mcs.Ticks // LO-mode virtual deadline, C^L ≤ VD ≤ D
	T      mcs.Ticks // minimum release separation
}

// offset returns D − VD, the distance from the mode switch to the
// carry-over job's real deadline in the worst-case alignment.
func (s Sawtooth) offset() mcs.Ticks { return s.D - s.VD }

// Value implements Curve.
func (s Sawtooth) Value(l mcs.Ticks) mcs.Ticks { return s.value(l) }

// value is Value on the curve in place. SawSum walks its elements through
// value and prevKink instead of ranging over copies: a copy is five words
// per curve per QPA step, stored to the stack and reloaded at once, and how
// fast that runs depends on where the goroutine's stack happens to sit —
// one call frame more or less between the Assigner and the analyzer moved
// an EY/ECDF admit by a third.
func (s *Sawtooth) value(l mcs.Ticks) mcs.Ticks {
	q := l - s.offset()
	if q < 0 {
		return 0
	}
	m := q / s.T
	r := q % s.T
	v := (m + 1) * s.CH
	if done := s.CL - r; done > 0 {
		v -= done
	}
	return v
}

// PrevKink implements Curve. Kinks sit at offset + m·T (jumps) and
// offset + m·T + C^L (ramp→flat boundaries).
func (s Sawtooth) PrevKink(l mcs.Ticks) mcs.Ticks { return s.prevKink(l) }

// prevKink is PrevKink on the curve in place (see value).
func (s *Sawtooth) prevKink(l mcs.Ticks) mcs.Ticks {
	q := l - s.offset()
	if q <= 0 {
		return -1
	}
	m := q / s.T
	r := q % s.T
	var k mcs.Ticks
	switch {
	case r > s.CL:
		k = m*s.T + s.CL
	case r > 0:
		k = m * s.T
	default: // r == 0: previous period's boundary
		if m == 0 {
			return -1
		}
		if s.CL < s.T {
			k = (m-1)*s.T + s.CL
		} else {
			k = (m - 1) * s.T
		}
	}
	return s.offset() + k
}

// HorizonHI returns a safe horizon for the HI-mode test over a set of
// sawtooth curves: dbf_HI(ℓ) ≤ u^H·ℓ + C^H·(1 − offset/T) per task gives
// the utilization bound, and dbf_HI(ℓ+T) = dbf_HI(ℓ) + C^H for ℓ ≥ offset
// gives the hyperperiod bound for exactly-full systems. ok=false means the
// demand is infeasible at any horizon.
func HorizonHI(saws []Sawtooth) (L mcs.Ticks, ok bool) {
	var acc HIAccum
	for _, s := range saws {
		acc.Add(s)
	}
	return acc.Horizon()
}
