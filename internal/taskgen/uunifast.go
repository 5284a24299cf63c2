// Package taskgen implements the fair mixed-criticality task-set generator
// of Ramanathan & Easwaran (WATERS 2016), as parameterized in Section IV of
// the DATE 2017 paper: bounded uniform utilization vectors (UUniFast with
// discard, or Stafford's RandFixedSum), log-uniform periods (Emberson et
// al., WATERS 2010), integer execution budgets C = ⌈u·T⌉ and uniformly drawn
// constrained deadlines.
package taskgen

import (
	"fmt"
	"math"
	"math/rand"
)

// UUniFast draws n utilizations that sum exactly to total, uniformly
// distributed over the (n−1)-simplex (Bini & Buttazzo). The result is not
// bounded; use BoundedSum for the paper's [umin, umax] constraint.
func UUniFast(rng *rand.Rand, n int, total float64) []float64 {
	u := make([]float64, n)
	sum := total
	for i := 0; i < n-1; i++ {
		next := sum * math.Pow(rng.Float64(), 1/float64(n-1-i))
		u[i] = sum - next
		sum = next
	}
	u[n-1] = sum
	return u
}

// maxDiscardTries bounds the UUniFast-discard rejection loop. With feasible
// parameters the acceptance probability is far from zero; the bound only
// guards degenerate corner cases, which then fall back to Rescale.
const maxDiscardTries = 1000

// vec returns buf resliced to n values, replacing it when it is too small.
// Every internal draw takes its destination this way: nil asks for a fresh
// vector the caller owns, a Generator passes its scratch.
func vec(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// discard is the one UUniFast-with-discard loop: up to maxDiscardTries
// UUniFast draws into u, each value checked against [lo, hi] — or against
// [lo, caps[i]] when caps is non-nil — as it is produced. It reports whether
// a try was accepted; u then holds it.
//
// A try stops computing at its first violation but still consumes the
// draws the full vector would have taken, so the source is left exactly
// where a draw-then-check loop leaves it, and the surviving prefix of an
// accepted try is the same floating-point operations in the same order as
// UUniFast. With keepLast the last try is computed in full whatever it
// violates, so that when no try was accepted u holds it, for the caller's
// fallback.
func discard(rng *rand.Rand, u []float64, total, lo, hi float64, caps []float64, keepLast bool) bool {
	n := len(u)
	for try := 0; try < maxDiscardTries; try++ {
		full := keepLast && try == maxDiscardTries-1
		sum := total
		ok := true
		i := 0
		for ; i < n-1; i++ {
			next := sum * math.Pow(rng.Float64(), 1/float64(n-1-i))
			u[i] = sum - next
			sum = next
			if caps != nil {
				hi = caps[i]
			}
			if u[i] < lo || u[i] > hi {
				ok = false
				if !full {
					break
				}
			}
		}
		if i < n-1 {
			for i++; i < n-1; i++ {
				rng.Float64()
			}
			continue
		}
		u[n-1] = sum
		if caps != nil {
			hi = caps[n-1]
		}
		if ok && sum >= lo && sum <= hi {
			return true
		}
	}
	return false
}

// BoundedSum draws n utilizations summing to total with every value in
// [lo, hi]. It uses UUniFast with discard — the standard unbiased method in
// the MC scheduling literature — and falls back to a deterministic rescale
// of the last draw if the discard loop does not terminate quickly (only
// possible for near-degenerate parameters such as total ≈ n·hi).
//
// It returns an error if the request is infeasible (total outside
// [n·lo, n·hi]).
func BoundedSum(rng *rand.Rand, n int, total, lo, hi float64) ([]float64, error) {
	return boundedSum(rng, nil, n, total, lo, hi)
}

// boundedSum is BoundedSum into buf (see vec).
func boundedSum(rng *rand.Rand, buf []float64, n int, total, lo, hi float64) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("taskgen: n=%d must be positive", n)
	}
	if lo > hi {
		return nil, fmt.Errorf("taskgen: lo=%g > hi=%g", lo, hi)
	}
	const eps = 1e-9
	if total < float64(n)*lo-eps || total > float64(n)*hi+eps {
		return nil, fmt.Errorf("taskgen: sum %g infeasible for %d values in [%g,%g]", total, n, lo, hi)
	}
	u := vec(buf, n)
	if n == 1 {
		u[0] = total
		return u, nil
	}
	if discard(rng, u, total, lo, hi, nil, true) {
		return u, nil
	}
	return Rescale(u, total, lo, hi), nil
}

// Rescale clamps the values of u into [lo, hi] and redistributes the
// clamped mass proportionally over the remaining slack so the sum is
// preserved. It is deterministic and always returns a feasible vector when
// one exists.
func Rescale(u []float64, total, lo, hi float64) []float64 {
	out := make([]float64, len(u))
	copy(out, u)
	// Iteratively clamp and redistribute; converges because every round
	// strictly reduces the violation mass.
	for round := 0; round < len(out)+1; round++ {
		var excess float64
		free := make([]int, 0, len(out))
		for i, v := range out {
			switch {
			case v < lo:
				excess -= lo - v
				out[i] = lo
			case v > hi:
				excess += v - hi
				out[i] = hi
			default:
				free = append(free, i)
			}
		}
		if math.Abs(excess) < 1e-12 || len(free) == 0 {
			break
		}
		// Distribute excess over free entries proportionally to their
		// remaining headroom (or droppable mass for negative excess).
		var room float64
		for _, i := range free {
			if excess > 0 {
				room += hi - out[i]
			} else {
				room += out[i] - lo
			}
		}
		if room <= 0 {
			break
		}
		for _, i := range free {
			if excess > 0 {
				out[i] += excess * (hi - out[i]) / room
			} else {
				out[i] += excess * (out[i] - lo) / room
			}
		}
	}
	// Fix any residual drift on the entry with the most headroom to keep
	// the exact sum.
	var sum float64
	for _, v := range out {
		sum += v
	}
	drift := total - sum
	if drift != 0 {
		best, bestRoom := -1, 0.0
		for i, v := range out {
			room := hi - v
			if drift < 0 {
				room = v - lo
			}
			if room > bestRoom {
				best, bestRoom = i, room
			}
		}
		if best >= 0 {
			out[best] += math.Copysign(math.Min(math.Abs(drift), bestRoom), drift)
		}
	}
	return out
}

// BoundedSumCapped draws n utilizations summing to total with value i
// constrained to [lo, cap[i]]. It is used for the LO-mode utilizations of
// HC tasks, which must not exceed the task's HI-mode utilization. The
// method is UUniFast with discard against the per-element caps, falling
// back to a proportional split (u[i] = total·cap[i]/Σcap, then repaired to
// respect lo) when the discard loop fails.
func BoundedSumCapped(rng *rand.Rand, n int, total, lo float64, cap []float64) ([]float64, error) {
	return boundedSumCapped(rng, nil, n, total, lo, cap)
}

// boundedSumCapped is BoundedSumCapped into buf (see vec).
func boundedSumCapped(rng *rand.Rand, buf []float64, n int, total, lo float64, caps []float64) ([]float64, error) {
	if len(caps) != n {
		return nil, fmt.Errorf("taskgen: cap length %d != n %d", len(caps), n)
	}
	var capSum float64
	for _, c := range caps {
		if c < lo {
			return nil, fmt.Errorf("taskgen: cap %g below lo %g", c, lo)
		}
		capSum += c
	}
	const eps = 1e-9
	if total < float64(n)*lo-eps || total > capSum+eps {
		return nil, fmt.Errorf("taskgen: sum %g infeasible for caps (Σcap=%g, n·lo=%g)", total, capSum, float64(n)*lo)
	}
	out := vec(buf, n)
	if n == 1 {
		out[0] = total
		return out, nil
	}
	if discard(rng, out, total, lo, 0, caps, false) {
		return out, nil
	}
	// Proportional fallback: exact sum, respects caps by construction;
	// repair entries below lo by stealing from the roomiest entries.
	for i := range out {
		out[i] = total * caps[i] / capSum
	}
	for i := range out {
		if out[i] >= lo {
			continue
		}
		need := lo - out[i]
		out[i] = lo
		for j := range out {
			if j == i || need <= 0 {
				continue
			}
			avail := out[j] - lo
			take := math.Min(avail, need)
			out[j] -= take
			need -= take
		}
	}
	return out, nil
}
