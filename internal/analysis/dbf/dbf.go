// Package dbf provides demand-bound-function machinery shared by the
// dbf-based mixed-criticality schedulability tests (Ekberg–Yi and ECDF):
// per-task demand curves, their kink points, and a generalized
// Quick Processor-demand Analysis (QPA, Zhang & Burns 2009) that verifies
// ∀ℓ ∈ (0, L]: demand(ℓ) ≤ ℓ without enumerating every point.
//
// All curves here are nondecreasing in ℓ and piecewise linear with integer
// breakpoints ("kinks") and integer values at integer points, so the
// analysis is exact in int64 arithmetic. Between consecutive kinks a curve
// is affine; therefore sup(demand(ℓ) − ℓ) over a closed segment is attained
// at a segment endpoint, and it suffices to examine kink points (plus the
// QPA jump targets).
package dbf

import (
	"sync/atomic"

	"mcsched/internal/mcs"
)

// Curve is a nondecreasing demand curve with integer kinks.
type Curve interface {
	// Value returns the demand in any interval of length l (l ≥ 0).
	Value(l mcs.Ticks) mcs.Ticks
	// PrevKink returns the largest kink strictly smaller than l, or -1 if
	// none exists. A "kink" is any point where the curve's slope or value
	// changes (jump points and ramp boundaries).
	PrevKink(l mcs.Ticks) mcs.Ticks
}

// Sum aggregates several curves.
type Sum []Curve

// Value returns the total demand at l.
func (s Sum) Value(l mcs.Ticks) mcs.Ticks {
	var v mcs.Ticks
	for _, c := range s {
		v += c.Value(l)
	}
	return v
}

// PrevKink returns the largest kink of any member strictly below l.
func (s Sum) PrevKink(l mcs.Ticks) mcs.Ticks {
	best := mcs.Ticks(-1)
	for _, c := range s {
		if k := c.PrevKink(l); k > best {
			best = k
		}
	}
	return best
}

// maxQPAIters bounds one QPA walk. QPA converges geometrically for demand
// with long-run slope < 1; the bound is a defensive backstop — hitting it
// returns "not schedulable", which is the safe direction. It is per walk,
// so a resumed walk (QPAResume) could finish where the full walk gives up;
// Backstops counts the hits so tests can assert there are none.
const maxQPAIters = 1 << 20

var backstops atomic.Uint64

// Backstops returns how many walks in this process gave up at maxQPAIters.
func Backstops() uint64 { return backstops.Load() }

// QPA checks ∀ℓ ∈ (0, L]: demand(ℓ) ≤ ℓ for a nondecreasing curve. It
// walks down from L: at each point t it evaluates h = demand(t); a value
// h > t is a genuine violation (demand is nondecreasing, so the interval
// (h, t) cannot hide one — for τ ∈ (h, t), demand(τ) ≤ h < τ); h < t lets
// it jump straight to h; h == t steps to the previous kink. Exact for
// integer piecewise-linear curves because segment suprema of demand(ℓ) − ℓ
// sit on the inspected points.
//
// The walks are generic over the concrete curve type so the hot paths
// (StepSum/SawSum scratch slices re-evaluated on every admission probe)
// avoid boxing a slice header into a Curve interface value per call — the
// walk itself is identical for any instantiation.
func QPA[C Curve](c C, L mcs.Ticks) bool {
	_, ok := QPAWitness(c, L)
	return ok
}

// QPAWitness is QPA returning a violation witness: a point t with
// demand(t) > t when the check fails (ok=false), or (-1, true) when the
// curve is schedulable up to L. The witness is what the deadline-tuning
// loops of the EY/ECDF tests steer on.
func QPAWitness[C Curve](c C, L mcs.Ticks) (witness mcs.Ticks, ok bool) {
	witness, _, _, ok = QPAResume(c, L, Free{})
	return witness, ok
}

// Free certifies that no real ℓ with Lo < ℓ ≤ Hi has demand(ℓ) > ℓ. The
// zero value certifies nothing. A certificate proved for one curve holds
// for every pointwise-lower curve, and only for those: its holder must drop
// it when demand can rise anywhere.
type Free struct{ Lo, Hi mcs.Ticks }

// QPAResume is the QPAWitness walk handed a certificate: it walks normally
// above known.Hi and, on landing inside (known.Lo, known.Hi], continues
// from known.Lo. It returns what QPAWitness(c, L) returns — same witness,
// same verdict, short of the maxQPAIters backstop — plus the demand at the
// witness and the certificate this walk leaves behind.
//
// Start independence. Let W be the supremum of the real violations in
// (0, t]. Demand is right-continuous, jumps only upward and has integer
// slopes, so unless t itself violates, W is a tight point (demand(W) = W)
// that demand reaches flat from the left: demand is W on [k, W) for
// k = PrevKink(W), and k violates. A walk from a passing point at or above
// W never lands strictly between k and W — a jump from t goes to
// demand(t) ≥ demand(W) = W, and a kink step that undershoots W finds no
// kink in [W, t), so it goes to k itself — hence it ends at k. Every
// passing start at or above W therefore yields the same witness, and a
// violation-free (0, t] yields (-1, true) from any start because the walk
// is exact. Both known.Lo and the point that landed in the certificate are
// such starts, so skipping from one to the other changes nothing.
//
// The certificate returned is the union of what the steps prove: a jump
// from t clears [demand(t), t], a kink step from a tight t to a passing k
// clears [k, t], and the final step to a violating k clears
// (demand(k), t) because demand is flat there. Hence (demand(witness), L]
// on failure — empty when L itself violates — and (0, L] on success. It
// stops at L: a horizon bounds where a violation must have a counterpart,
// not where violations end, so nothing is known above it.
//
// (R) Reuse under lower demand. A certificate proved for pointwise-higher
// demand holds for lower demand — demand(ℓ) ≤ ℓ only gets easier — but
// only up to the horizon it was proved under: the lower curve's own
// horizon may be larger, and nothing was looked at above the old one.
func QPAResume[C Curve](c C, L mcs.Ticks, known Free) (witness, demand mcs.Ticks, proved Free, ok bool) {
	return QPAWindows(c, L, known, Windows{})
}

// Windows is the second kind of certificate, one with holes: demand was
// proved violation-free at every ℓ > 0 — a walk over a valid horizon
// succeeded — and has since risen only on the periodic windows
// [Start + k·T, Start + Width + k·T), k ≥ 0. It is what lowering one step
// curve's deadline from Start + Width to Start leaves behind. The zero
// value (any Width ≤ 0) says demand may have risen everywhere and
// certifies nothing; a Width of T or more covers everything from Start up.
type Windows struct{ Start, Width, T mcs.Ticks }

// snap returns the largest window point at or below t, -1 when there is
// none; the zero value has every point in a window.
func (w Windows) snap(t mcs.Ticks) mcs.Ticks {
	if w.Width <= 0 {
		return t
	}
	q := t - w.Start
	if q < 0 {
		return -1
	}
	if r := q % w.T; r >= w.Width {
		t -= r - (w.Width - 1)
	}
	return t
}

// QPAWindows is the one QPA walk loop: QPAResume's walk which, handed
// rose, also snaps t down to the nearest window point before each
// evaluation and so skips everything between windows. With the zero
// Windows it is QPAResume, point for point. With windows the verdict is
// still QPAWitness(c, L)'s and the certificate returned still holds; the
// witness is a violation, not necessarily the one the full walk stops at.
//
// (W) Why only windows need walking. The old curves passed a walk over a
// valid horizon L_old, so they have no violation at any ℓ, above L_old
// included — that is what makes a horizon valid. Outside the windows the
// new demand is the old, so every violation of the new curves lies inside
// a window, and on an integer point of one: between integers demand − ℓ is
// affine with integer slope, so a violation strictly between n and n + 1
// puts one on n (slope ≤ 1) or on n + 1 (slope ≥ 2, a point that is in a
// window too, or the old curves would violate there). A point between
// windows therefore passes without being evaluated, and stepping from it
// to the last point of the window below skips nothing that can fail. The
// windows must be walked from the *new* horizon L: the move that opened
// them can have raised it, and a violation may sit in (L_old, L] alone.
//
// known and rose may both be set: known is proved for the curves as they
// are now (or higher ones), rose is relative to older, fully proved
// curves. A snap can land inside known, so known is applied after it and
// the point it resumes from is snapped again.
func QPAWindows[C Curve](c C, L mcs.Ticks, known Free, rose Windows) (witness, demand mcs.Ticks, proved Free, ok bool) {
	all := Free{Lo: 0, Hi: L}
	t := L
	for iter := 0; iter < maxQPAIters; iter++ {
		t = rose.snap(t)
		if known.Lo < t && t <= known.Hi {
			t = rose.snap(known.Lo)
		}
		if t <= 0 {
			return -1, 0, all, true
		}
		h := c.Value(t)
		switch {
		case h > t:
			return t, h, Free{Lo: h, Hi: L}, false
		case h < t:
			// No violation in (h, t]; resume at h, but h may sit below
			// every kink, in which case demand is zero there and we stop.
			if h <= 0 {
				return -1, 0, all, true
			}
			t = h
		default: // h == t: boundary-tight point; inspect below the kink
			k := c.PrevKink(t)
			if k < 0 {
				return -1, 0, all, true
			}
			t = k
		}
	}
	// Defensive: did not converge — report unschedulable (pessimistic).
	backstops.Add(1)
	return t, c.Value(t), Free{}, false
}

// Exhaustive checks ∀ℓ ∈ (0, L]: demand(ℓ) ≤ ℓ by brute force over every
// integer point. It exists as the oracle QPA is verified against in tests;
// use QPA everywhere else.
func Exhaustive(c Curve, L mcs.Ticks) (witness mcs.Ticks, ok bool) {
	for t := mcs.Ticks(1); t <= L; t++ {
		if c.Value(t) > t {
			return t, false
		}
	}
	return -1, true
}

// Step is the classic demand step curve of a sporadic task: jumps of size
// C at D, D+T, D+2T, … — max(0, ⌊(l−D)/T⌋+1)·C.
type Step struct {
	C, D, T mcs.Ticks
}

// Value implements Curve.
func (s Step) Value(l mcs.Ticks) mcs.Ticks {
	if l < s.D {
		return 0
	}
	return ((l-s.D)/s.T + 1) * s.C
}

// PrevKink implements Curve.
func (s Step) PrevKink(l mcs.Ticks) mcs.Ticks {
	if l <= s.D {
		return -1
	}
	k := (l - s.D - 1) / s.T // largest k with D + kT < l
	return s.D + k*s.T
}

// lcmCap bounds the hyperperiod-based horizon; beyond it the periodic
// argument is abandoned (the utilization bound must then apply).
const lcmCap mcs.Ticks = 1 << 22

// horizon combines the two classic bounds on the intervals a
// processor-demand test must check. Every curve family here satisfies
// demand(ℓ+H) = demand(ℓ) + H·U for ℓ ≥ transient (H = hyperperiod,
// U = long-run slope), so with U ≤ 1 it suffices to check up to
// transient + H; and with U < 1 the affine bound
// demand(ℓ) ≤ U·ℓ + off gives the bound off/(1−U). ok=false means U > 1
// (always infeasible for nonempty demand) or U == 1 with an intractable
// hyperperiod (conservative reject; does not occur for the paper's
// generated workloads, whose utilizations are strictly below 1).
func horizon(u, off float64, transient, hyper mcs.Ticks, hyperOK bool) (L mcs.Ticks, ok bool) {
	const eps = 1e-9
	if u > 1+eps {
		return 0, false
	}
	var periodic mcs.Ticks
	havePeriodic := false
	if hyperOK && hyper > 0 {
		periodic = transient + hyper
		havePeriodic = true
	}
	if u < 1-eps {
		L = mcs.Ticks(off/(1-u)) + 1
		if L < transient {
			L = transient
		}
		if havePeriodic && periodic < L {
			L = periodic
		}
		return L, true
	}
	if havePeriodic {
		return periodic, true
	}
	return 0, false
}

// lcmCapped folds a period into a running hyperperiod, reporting whether
// the result stayed within lcmCap.
func lcmCapped(h, t mcs.Ticks, ok bool) (mcs.Ticks, bool) {
	if !ok {
		return h, false
	}
	g := h
	for b := t; b != 0; {
		g, b = b, g%b
	}
	if t/g > lcmCap/h { // h/g·t would exceed the cap (overflow-safe)
		return h, false
	}
	h = h / g * t
	if h > lcmCap {
		return h, false
	}
	return h, true
}

// HorizonLO returns a safe upper bound on the interval lengths that need
// checking for a step-curve LO-mode test: beyond it demand(ℓ) ≤ ℓ is
// implied. ok=false means the demand is infeasible at any horizon (see
// horizon).
func HorizonLO(steps []Step) (L mcs.Ticks, ok bool) {
	var acc LOAccum
	for _, s := range steps {
		acc.Add(s)
	}
	return acc.Horizon()
}
