package dbf

import "mcsched/internal/mcs"

// StepSum aggregates step curves without boxing each element in a Curve
// interface value, so demand tests that re-run on every admission probe can
// keep their curves in a reusable scratch slice.
type StepSum []Step

// Value implements Curve.
func (s StepSum) Value(l mcs.Ticks) mcs.Ticks {
	var v mcs.Ticks
	for _, c := range s {
		v += c.Value(l)
	}
	return v
}

// PrevKink implements Curve.
func (s StepSum) PrevKink(l mcs.Ticks) mcs.Ticks {
	best := mcs.Ticks(-1)
	for _, c := range s {
		if k := c.PrevKink(l); k > best {
			best = k
		}
	}
	return best
}

// SawSum aggregates sawtooth curves, the HI-mode counterpart of StepSum.
type SawSum []Sawtooth

// Value implements Curve.
func (s SawSum) Value(l mcs.Ticks) mcs.Ticks {
	var v mcs.Ticks
	for i := range s {
		v += s[i].value(l)
	}
	return v
}

// PrevKink implements Curve.
func (s SawSum) PrevKink(l mcs.Ticks) mcs.Ticks {
	best := mcs.Ticks(-1)
	for i := range s {
		if k := s[i].prevKink(l); k > best {
			best = k
		}
	}
	return best
}
