package taskgen

import (
	"fmt"
	"math"
	"math/rand"
)

// RandFixedSum draws n values in [a, b] that sum exactly to s, uniformly
// distributed over the intersection of the hypercube [a,b]^n with the
// hyperplane Σx = s. This is a Go port of Roger Stafford's randfixedsum
// algorithm (MATLAB Central, 2006), the method recommended by Emberson,
// Stafford & Davis (WATERS 2010) for unbiased task-set generation.
//
// The simplex the values live on is decomposed into unit sub-simplices; a
// probability table decides, per coordinate, which sub-simplex branch to
// take, and uniform order statistics place the point inside it.
func RandFixedSum(rng *rand.Rand, n int, s, a, b float64) ([]float64, error) {
	return new(rfsTables).draw(rng, nil, n, s, a, b)
}

// rfsTables is RandFixedSum's scratch: the s1/s2 offsets and the n×(n+1)
// weight and (n−1)×n probability tables, flat and row-major, reused by a
// Generator from one draw to the next.
type rfsTables struct {
	s1, s2, w, t []float64
}

// draw is RandFixedSum into buf (see vec).
func (tb *rfsTables) draw(rng *rand.Rand, buf []float64, n int, s, a, b float64) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("taskgen: n=%d must be positive", n)
	}
	if a > b {
		return nil, fmt.Errorf("taskgen: empty range [%g,%g]", a, b)
	}
	const eps = 1e-9
	if s < float64(n)*a-eps || s > float64(n)*b+eps {
		return nil, fmt.Errorf("taskgen: sum %g infeasible for %d values in [%g,%g]", s, n, a, b)
	}
	x := vec(buf, n)
	if n == 1 {
		x[0] = s
		return x, nil
	}
	if b == a {
		for i := range x {
			x[i] = a
		}
		return x, nil
	}

	// Rescale to the unit cube: want n values in [0,1] summing to sc.
	sc := (s - float64(n)*a) / (b - a)
	sc = math.Max(0, math.Min(float64(n), sc))

	k := int(math.Floor(sc))
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}

	// s1[j] = sc − (k − j), s2[j] = (k + n − j) − sc for 0-based j.
	tb.s1, tb.s2 = vec(tb.s1, n), vec(tb.s2, n)
	s1, s2 := tb.s1, tb.s2
	for j := 0; j < n; j++ {
		s1[j] = sc - float64(k-j)
		s2[j] = float64(k+n-j) - sc
	}

	const huge = 1e100
	const tiny = 1e-300

	// w[i·wn+j]: transition weights; t[i·n+j]: branch probabilities. The
	// recurrence reads cells of w's previous row it never wrote, and the
	// backward walk can land on a cell of t no row wrote, so reused tables
	// start from zero like fresh ones.
	wn := n + 1
	tb.w, tb.t = vec(tb.w, n*wn), vec(tb.t, (n-1)*n)
	w, t := tb.w, tb.t
	clear(w)
	clear(t)
	w[1] = huge
	for i := 1; i < n; i++ {
		ii := float64(i + 1)
		prev, row := w[(i-1)*wn:i*wn], w[i*wn:(i+1)*wn]
		for j := 0; j <= i; j++ {
			tmp1 := prev[j+1] * s1[j] / ii
			tmp2 := prev[j] * s2[n-1-i+j] / ii
			row[j+1] = tmp1 + tmp2
			tmp3 := row[j+1] + tiny
			if s2[n-1-i+j] > s1[j] {
				t[(i-1)*n+j] = tmp2 / tmp3
			} else {
				t[(i-1)*n+j] = 1 - tmp1/tmp3
			}
		}
	}

	// Walk the table backwards, placing one coordinate per step.
	srem := sc
	j := k + 1 // 1-based column into t
	sm := 0.0
	pr := 1.0
	for i := n - 1; i >= 1; i-- {
		var e float64
		if rng.Float64() <= t[(i-1)*n+j-1] {
			e = 1
		}
		sx := math.Pow(rng.Float64(), 1/float64(i))
		sm += (1 - sx) * pr * srem / float64(i+1)
		pr *= sx
		x[n-1-i] = sm + pr*e
		srem -= e
		j -= int(e)
	}
	x[n-1] = sm + pr*srem

	// Random permutation: the construction orders coordinates.
	rng.Shuffle(n, func(i, j int) { x[i], x[j] = x[j], x[i] })

	for i := range x {
		x[i] = a + (b-a)*x[i]
		// Guard against floating-point drift outside the range.
		if x[i] < a {
			x[i] = a
		}
		if x[i] > b {
			x[i] = b
		}
	}
	return x, nil
}

// Method selects the algorithm used to draw utilization vectors.
type Method int

const (
	// MethodRandFixedSum draws with Stafford's algorithm (default; exact
	// uniformity over the bounded simplex).
	MethodRandFixedSum Method = iota
	// MethodUUniFastDiscard draws with UUniFast and rejects out-of-range
	// vectors.
	MethodUUniFastDiscard
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodRandFixedSum:
		return "randfixedsum"
	case MethodUUniFastDiscard:
		return "uunifast-discard"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}
