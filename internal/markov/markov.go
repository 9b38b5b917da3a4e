// Package markov implements the absorbing-Markov-chain machinery of the
// paper's Section 2.3 (Lemmas 8 and 9): multiplicative-growth chains with
// exponentially reliable progress, their simulation, and exact expected
// hitting times via linear algebra for cross-validation.
//
// The paper uses these chains to convert "the imbalance grows by a constant
// factor except with probability exp(−Θ(X_t))" statements into O(log m)
// hitting-time bounds. We reproduce that reasoning empirically:
//
//   - GrowthChain models exactly the Lemma 8 hypotheses: from state x > 0
//     move to min(m, ⌈c1·x⌉) with probability ≥ 1 − e^{−c2·x}, otherwise
//     fall back (to 0, the worst case allowed); from 0, move to 1 with
//     probability c3.
//   - HittingTime measures the time to reach a target state by simulation.
//   - ExpectedHitting solves the exact first-passage linear system
//     (I − Q)·h = 1 by Gaussian elimination, giving analytic reference
//     values for the simulated chains.
package markov

import (
	"math"

	"repro/internal/rng"
)

// Chain is a time-homogeneous Markov chain on {0, …, m}.
type Chain interface {
	// M returns the top state m.
	M() int
	// Next samples the successor of state x using g.
	Next(x int, g *rng.Xoshiro256) int
}

// GrowthChain is the Lemma 8 chain. From x ≥ 1: with probability
// 1 − e^{−C2·x} move to min(m, ⌈C1·x⌉); otherwise fall to 0. From 0: with
// probability C3 move to 1, else stay.
type GrowthChain struct {
	// C1 > 1 is the growth factor, C2 > 0 the reliability exponent,
	// C3 ∈ (0, 1] the restart probability.
	C1, C2, C3 float64
	// Top is the ceiling state m.
	Top int
}

// NewGrowthChain validates and returns a GrowthChain.
func NewGrowthChain(c1, c2, c3 float64, m int) *GrowthChain {
	if c1 <= 1 || c2 <= 0 || c3 <= 0 || c3 > 1 || m < 1 {
		panic("markov: invalid GrowthChain parameters")
	}
	return &GrowthChain{C1: c1, C2: c2, C3: c3, Top: m}
}

// M implements Chain.
func (c *GrowthChain) M() int { return c.Top }

// Next implements Chain.
func (c *GrowthChain) Next(x int, g *rng.Xoshiro256) int {
	if x < 0 || x > c.Top {
		panic("markov: state out of range")
	}
	if x == 0 {
		if g.Float64() < c.C3 {
			return 1
		}
		return 0
	}
	if g.Float64() < 1-math.Exp(-c.C2*float64(x)) {
		nx := int(math.Ceil(c.C1 * float64(x)))
		if nx > c.Top {
			nx = c.Top
		}
		return nx
	}
	return 0
}

// AbsorbingGrowthChain is the Lemma 9 variant: states 0 and m are absorbing;
// interior states grow like GrowthChain but fall to 0 on failure.
type AbsorbingGrowthChain struct {
	GrowthChain
}

// NewAbsorbingGrowthChain validates and returns the Lemma 9 chain.
func NewAbsorbingGrowthChain(c1, c2 float64, m int) *AbsorbingGrowthChain {
	if c1 <= 1 || c2 <= 0 || m < 1 {
		panic("markov: invalid AbsorbingGrowthChain parameters")
	}
	return &AbsorbingGrowthChain{GrowthChain{C1: c1, C2: c2, C3: 1, Top: m}}
}

// Next implements Chain with 0 and Top absorbing.
func (c *AbsorbingGrowthChain) Next(x int, g *rng.Xoshiro256) int {
	if x == 0 || x == c.Top {
		return x
	}
	return c.GrowthChain.Next(x, g)
}

// HittingTime simulates the chain from state start until it reaches a state
// >= target (or an absorbing state for Lemma 9 chains), returning the number
// of steps taken, capped at maxSteps.
func HittingTime(c Chain, start, target, maxSteps int, g *rng.Xoshiro256) int {
	x := start
	for t := 0; t < maxSteps; t++ {
		if x >= target {
			return t
		}
		nx := c.Next(x, g)
		if nx == x && isAbsorbing(c, x) && x < target {
			// Stuck in a low absorbing state: report the cap.
			return maxSteps
		}
		x = nx
	}
	if x >= target {
		return maxSteps
	}
	return maxSteps
}

func isAbsorbing(c Chain, x int) bool {
	if a, ok := c.(*AbsorbingGrowthChain); ok {
		return x == 0 || x == a.Top
	}
	return false
}

// MeanHittingTime runs trials independent simulations and returns the mean
// number of steps to reach target from start.
func MeanHittingTime(c Chain, start, target, maxSteps, trials int, g *rng.Xoshiro256) float64 {
	var sum float64
	for i := 0; i < trials; i++ {
		sum += float64(HittingTime(c, start, target, maxSteps, g))
	}
	return sum / float64(trials)
}

// TransitionMatrix returns the dense (m+1)×(m+1) transition matrix of a
// GrowthChain (row = from, column = to). Useful for exact analysis of small
// chains.
func (c *GrowthChain) TransitionMatrix() [][]float64 {
	m := c.Top
	p := make([][]float64, m+1)
	for i := range p {
		p[i] = make([]float64, m+1)
	}
	p[0][1] = c.C3
	p[0][0] = 1 - c.C3
	for x := 1; x <= m; x++ {
		up := 1 - math.Exp(-c.C2*float64(x))
		nx := int(math.Ceil(c.C1 * float64(x)))
		if nx > m {
			nx = m
		}
		p[x][nx] += up
		p[x][0] += 1 - up
	}
	return p
}

// ExpectedHitting solves the exact expected first-passage times into the
// target set for the transition matrix p: h[i] = 0 for i ∈ targets, else
// h[i] = 1 + Σ_j p[i][j]·h[j]. The linear system (I − Q)h = 1 over the
// non-target states is solved by Gaussian elimination with partial
// pivoting. Panics if the system is singular (target unreachable from some
// state with probability 1 leads to a singular or near-singular system).
func ExpectedHitting(p [][]float64, targets map[int]bool) []float64 {
	var idx []int // the non-target states
	for i := range p {
		if !targets[i] {
			idx = append(idx, i)
		}
	}
	x := solveTransient(p, idx, func(int) float64 { return 1 })
	h := make([]float64, len(p))
	for r, i := range idx {
		h[i] = x[r]
	}
	return h
}

// solveTransient solves (I − Q)·x = b, where Q is p restricted to the
// states idx and b[r] = rhs(idx[r]), panicking on a singular or NaN
// system.
func solveTransient(p [][]float64, idx []int, rhs func(i int) float64) []float64 {
	k := len(idx)
	a := make([][]float64, k)
	for r, i := range idx {
		a[r] = make([]float64, k+1)
		for c, j := range idx {
			a[r][c] = -p[i][j]
		}
		a[r][r] += 1
		a[r][k] = rhs(i)
	}
	if !Solve(a, k, 1) {
		panic("markov: degenerate pivot in linear solve — singular or NaN system (unreachable target?)")
	}
	x := make([]float64, k)
	for r := range a {
		x[r] = a[r][k]
	}
	return x
}

// minPivot is the degenerate-pivot threshold: the systems solved here are
// I − Q with O(1) entries, so after partial pivoting any honest pivot is
// far above it; a pivot below (or a NaN from poisoned input) means the
// system is singular, and dividing by it would silently turn every
// solution into ±Inf or NaN.
const minPivot = 1e-12

// Solve solves A·X = B in place by Gaussian elimination with partial
// pivoting over the m×(m+k) augmented matrix a = (A | B): on success
// a[r][m+j] holds X[r][j]. It reports false, leaving a partly eliminated,
// on a degenerate (zero, denormal or NaN) pivot — callers fail loudly
// rather than return NaNs. This is the one dense solver of the analytic
// paths (this package's hitting times, internal/exact's absorption
// statistics) — the O(m³) hot path of every analytic solve.
//
//consensus:hotpath
func Solve(a [][]float64, m, k int) bool {
	for col := 0; col < m; col++ {
		piv := col
		for r := col + 1; r < m; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		pv := math.Abs(a[piv][col])
		if math.IsNaN(pv) || pv < minPivot {
			return false
		}
		a[col], a[piv] = a[piv], a[col]
		pivot := a[col][col : m+k]
		inv := 1 / pivot[0]
		for r := col + 1; r < m; r++ {
			row := a[r][col : m+k]
			row = row[:len(pivot)] // equal lengths: no bounds check below
			f := row[0] * inv
			if f == 0 {
				continue
			}
			for j, pv := range pivot {
				row[j] -= f * pv
			}
		}
	}
	// Back substitution: rows below r already hold their solutions.
	for r := m - 1; r >= 0; r-- {
		row := a[r]
		for j := m; j < m+k; j++ {
			v := row[j]
			for c := r + 1; c < m; c++ {
				v -= row[c] * a[c][j]
			}
			row[j] = v / row[r]
		}
	}
	return true
}

// AbsorptionProbability computes, for each state, the probability of being
// absorbed in `good` rather than `bad` (both absorbing), by solving
// q[i] = Σ_j p[i][j]·q[j] with q[good] = 1, q[bad] = 0.
func AbsorptionProbability(p [][]float64, good, bad int) []float64 {
	var idx []int // the transient states
	for i := range p {
		if i != good && i != bad {
			idx = append(idx, i)
		}
	}
	x := solveTransient(p, idx, func(i int) float64 { return p[i][good] })
	q := make([]float64, len(p))
	q[good] = 1
	for r, i := range idx {
		q[i] = x[r]
	}
	return q
}
