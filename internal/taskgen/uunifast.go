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
// bounded; use BoundedSum for the paper's [umin, umax] constraint. For n ≤ 0
// it returns an empty vector and leaves the source untouched.
func UUniFast(rng *rand.Rand, n int, total float64) []float64 {
	if n <= 0 {
		return []float64{}
	}
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

// drawBufs returns an n-value destination and the n−1 values of scratch
// discard draws a try's uniforms into, as one vector taken from buf (see
// vec): the scratch is the spare capacity behind the destination, so a
// Generator that stores the destination keeps both.
func drawBufs(buf []float64, n int) (u, r []float64) {
	b := vec(buf, 2*n-1)
	return b[:n], b[n:]
}

// The screen's error budget: root is within rootErr, relative, of the
// math.Pow call it stands in for, and screenSlack·n·|total| is the margin a
// value must clear a bound by before the screen may act on it — 1000× the
// distance discard's comment derives from rootErr. Below minMargin a margin
// would not dominate the absolute error of subnormal arithmetic, and the
// call is not screened at all.
const (
	rootErr     = 1e-12
	screenSlack = 1000 * 4 * rootErr
	minMargin   = 0x1p-1022
)

// discard is the one UUniFast-with-discard loop: up to maxDiscardTries
// UUniFast draws into u, each value checked against [lo, hi] — or against
// [lo, caps[i]] when caps is non-nil. It reports whether a try was
// accepted; u then holds it. With keepLast the last try is computed in full
// whatever it violates, so that when no try was accepted u holds it, for
// the caller's fallback; without, u is then unspecified.
//
// A try first draws its n−1 uniforms into r, len(u)−1 values of scratch, so
// every try, whatever becomes of it, leaves the source where a
// draw-then-check loop leaves it. Two passes over r follow.
//
// The screen computes the try with root in place of math.Pow and abandons
// it on a clear violation: a value outside [lo − margin, hi + margin]. Its
// contract is one-sided: the screen abandons a try ⇒ the exact pass would
// have. Nothing else about the screen reaches the output — a try it does
// not abandon is decided by the exact pass alone — so a margin that is too
// wide costs time, never bits.
//
// The exact pass is UUniFast's floating-point operations in UUniFast's
// order, stopping at the first violation. It runs on what the screen let
// through: the accepted try, keepLast's last try (never screened) and the
// few that end within the margin of a bound.
//
// Why a clear violation is a violation. Write s_i, u_i for the exact pass's
// running sum and values, s̃_i, ũ_i for the screen's, δ for rootErr and
// ε = 2⁻⁵³. Each step multiplies the sum by a power in [0, 1], so
// |s_i| ≤ |total|. Both sums start at total; a step moves them apart, in
// relative terms, by root's δ and one rounding of the product on either
// side, δ + 2ε < 2δ, so |s̃_i − s_i| ≤ 2·i·δ·|total|. A value is the
// difference of two consecutive sums, or the last sum itself, hence
// |ũ_i − u_i| ≤ 2·(2i+1)·δ·|total| + 2ε·|total| < 4·n·δ·|total|, and the
// margin is 1000× that for every n. The slack also covers what the bound
// leaves out: second-order terms, the 2⁻¹⁰⁷⁴ absolute error of a step that
// underflows (margin ≥ minMargin), and the rounding of lo − margin and
// hi + margin, which only matters for a bound so large that no value can
// come near it. Where root declines its input — a uniform of exactly 0 —
// the screen's sum turns NaN, and NaN compares false: from there on the
// screen cannot abandon the try. The same holds for a total, bound or
// margin that is not finite.
func discard(rng *rand.Rand, u, r []float64, total, lo, hi float64, caps []float64, keepLast bool) bool {
	n := len(u)
	margin := screenSlack * float64(n) * math.Abs(total)
	screen := margin >= minMargin
tries:
	for try := 0; try < maxDiscardTries; try++ {
		for i := range r {
			r[i] = rng.Float64()
		}
		full := keepLast && try == maxDiscardTries-1
		if screen && !full {
			sum := total
			for i, x := range r {
				next := sum * root(x, 1/float64(n-1-i))
				v := sum - next
				sum = next
				if caps != nil {
					hi = caps[i]
				}
				if v < lo-margin || v > hi+margin {
					continue tries
				}
			}
			if caps != nil {
				hi = caps[n-1]
			}
			if sum < lo-margin || sum > hi+margin {
				continue tries
			}
		}
		sum := total
		ok := true
		for i, x := range r {
			next := sum * math.Pow(x, 1/float64(n-1-i))
			u[i] = sum - next
			sum = next
			if caps != nil {
				hi = caps[i]
			}
			if u[i] < lo || u[i] > hi {
				if !full {
					continue tries
				}
				ok = false
			}
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

// rootBits is the width of root's table index: 2^rootBits mantissa
// intervals for the logarithm, as many fractional steps for the power.
const rootBits = 7

// rootInv[j] and rootLog[j] are 1/c and log2(c) at the centre c of the j-th
// mantissa interval of [1, 2); rootExp[j] is 2^(j/2^rootBits).
var rootInv, rootLog, rootExp = func() (inv, lg, ex [1 << rootBits]float64) {
	for j := range inv {
		inv[j] = 1 / (1 + (float64(j)+0.5)/(1<<rootBits))
		lg[j] = -math.Log2(inv[j])
		ex[j] = math.Exp2(float64(j) / (1 << rootBits))
	}
	return
}()

// root approximates math.Pow(x, e) for a normal x in (0, 1] and e in (0, 1]
// as exp2(e·log2(x)), within rootErr relative (TestRootError measures 8e-14
// at worst); any other x yields NaN. It exists for discard's screen and
// never supplies an output value.
//
// log2(x) is the exponent plus log2 of the mantissa m, and m = c·(1 + t)
// with c the centre of m's table interval and |t| ≤ 2^−(rootBits+1), which
// the degree-5 series of log2(1 + t) resolves to 1e-15. The product
// y = e·log2(x) carries an absolute error of a few 2⁻⁵³·|log2 x|: 2.5e-13 at
// the smallest normal x, 1.5e-14 at 2⁻⁶³, the smallest non-zero uniform.
// 2^y is then an exact power of two, a table value and the degree-4 series
// of 2^f for |f| ≤ 2^−(rootBits+1), again good to 1e-15. math.Pow's own
// distance from the true power is of the order of y's error.
func root(x, inv float64) float64 {
	const (
		mant     = 1<<52 - 1
		one      = 0x3ff << 52
		steps    = 1 << rootBits
		ln2      = math.Ln2
		l1, l2   = 1 / ln2, -1 / (2 * ln2)
		l3, l4   = 1 / (3 * ln2), -1 / (4 * ln2)
		l5       = 1 / (5 * ln2)
		e2, e3   = ln2 * ln2 / 2, ln2 * ln2 * ln2 / 6
		e4       = ln2 * ln2 * ln2 * ln2 / 24
		smallest = 1 << 52 // bits of the smallest normal
	)
	b := math.Float64bits(x)
	if b-smallest > one-smallest {
		return math.NaN()
	}
	j := b >> (52 - rootBits) & (steps - 1)
	t := math.Float64frombits(b&mant|one)*rootInv[j] - 1
	t2 := t * t
	lg := float64(int(b>>52)-1023) + rootLog[j] + (t*(l1+t*l2) + t2*t*(l3+t*l4+t2*l5))

	y := lg * inv
	q := int(y*steps - 0.5) // y ≤ 0 up to rounding: the nearest step
	f := y - float64(q)/steps
	pow2 := math.Float64frombits(uint64(q>>rootBits+1023) << 52)
	f2 := f * f
	return pow2 * rootExp[q&(steps-1)] * (1 + f*ln2 + f2*(e2+f*e3+f2*e4))
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
	u, r := drawBufs(buf, n)
	if n == 1 {
		u[0] = total
		return u, nil
	}
	if discard(rng, u, r, total, lo, hi, nil, true) {
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
	free := make([]int, 0, len(out))
	for round := 0; round < len(out)+1; round++ {
		var excess float64
		free = free[:0]
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
	out, r := drawBufs(buf, n)
	if n == 1 {
		out[0] = total
		return out, nil
	}
	if discard(rng, out, r, total, lo, 0, caps, false) {
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
