// Package exact computes the two-bin median dynamics *exactly* as a
// finite Markov chain, providing ground truth against which the
// Monte-Carlo engines are cross-validated.
//
// Section 3 of the paper reduces the two-bin case to the chain
//
//	L_{t+1} ~ Bin(L_t, 1−(1−p)²) + Bin(n−L_t, p²),   p = L_t/n,
//
// on the state space {0, …, n}: a ball in the left bin stays when it does
// not sample two right-bin balls, and a right-bin ball defects when it
// samples two left-bin balls. States 0 and n are absorbing (the stable
// consensus fixed points of Section 2.1).
//
// For populations up to a few hundred balls the full transition matrix is
// small enough to build densely, so absorption probabilities and expected
// absorption times come from direct linear algebra rather than simulation.
// The package is used three ways:
//
//   - to validate the count engine's two-bin transition round
//     (its empirical absorption times must match the exact expectation),
//   - to validate Lemma 12/15-style drift claims at small n where "w.h.p."
//     statements can be checked against exact probabilities, and
//   - to report exact expected convergence times for the EXPERIMENTS.md
//     small-n appendix.
//
// Everything is stdlib-only float64 dense linear algebra; n ≤ ~400 keeps
// the O(n³) solves well under a second.
package exact

import (
	"fmt"
	"math"

	"repro/internal/markov"
)

// BinomialPMF returns the probability mass function of Bin(n, p) as a
// vector of length n+1. It is computed in log space (math.Lgamma) so that
// n in the thousands stays accurate.
func BinomialPMF(n int, p float64) []float64 {
	if n < 0 {
		panic("exact: negative n")
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("exact: p = %v outside [0,1]", p))
	}
	pmf := make([]float64, n+1)
	binomialInto(pmf, p, logFactorials(n))
	return pmf
}

// logFactorials returns lf[x] = ln x! = Lgamma(x+1) for x = 0..n: one
// table serves every binomial PMF of a chain instead of three Lgamma
// calls per PMF entry.
func logFactorials(n int) []float64 {
	lf := make([]float64, n+1)
	for x := range lf {
		lf[x], _ = math.Lgamma(float64(x + 1))
	}
	return lf
}

// binomialInto writes the PMF of Bin(len(pmf)−1, p) into pmf, reading
// log-factorials from lf (len(lf) ≥ len(pmf)).
func binomialInto(pmf []float64, p float64, lf []float64) {
	n := len(pmf) - 1
	clear(pmf)
	switch {
	case p == 0:
		pmf[0] = 1
		return
	case p == 1:
		pmf[n] = 1
		return
	}
	logP, logQ := math.Log(p), math.Log1p(-p)
	for k := 0; k <= n; k++ {
		pmf[k] = math.Exp(lf[n] - lf[k] - lf[n-k] + float64(k)*logP + float64(n-k)*logQ)
	}
}

// Convolve returns the distribution of X+Y for independent X ~ a, Y ~ b
// given as PMF vectors.
func Convolve(a, b []float64) []float64 {
	out := make([]float64, len(a)+len(b)-1)
	for i, pa := range a {
		if pa == 0 {
			continue
		}
		for j, pb := range b {
			out[i+j] += pa * pb
		}
	}
	return out
}

// StayProb is the probability that a left-bin ball stays left when the
// left bin holds fraction p of the balls: 1 − (1−p)².
func StayProb(p float64) float64 { q := 1 - p; return 1 - q*q }

// DefectProb is the probability that a right-bin ball moves left: p².
func DefectProb(p float64) float64 { return p * p }

// Chain is the exact two-bin median chain for a fixed population size.
type Chain struct {
	// N is the population size.
	N int
	// P is the (N+1)×(N+1) row-stochastic transition matrix:
	// P[i][j] = Pr[L_{t+1} = j | L_t = i].
	P [][]float64
}

// NewChain builds the exact chain for n balls. Every transition row is
// renormalized to sum to exactly the float64-rounded 1: BinomialPMF and
// Convolve each leave O(n·ε) rounding error in a row, and AbsorptionCDF
// compounds row error across propagated rounds — without the
// renormalization a long propagation can push the absorbed mass (a CDF)
// above 1.
func NewChain(n int) *Chain {
	if n < 1 {
		panic("exact: n must be >= 1")
	}
	P := make([][]float64, n+1)
	lf := logFactorials(n)
	scratch := make([]float64, n+2)
	for i := 0; i <= n; i++ {
		p := float64(i) / float64(n)
		stay, defect := scratch[:i+1], scratch[i+1:]
		binomialInto(stay, StayProb(p), lf)
		binomialInto(defect, DefectProb(p), lf)
		row := Convolve(stay, defect) // length n+1
		var sum float64
		for _, v := range row {
			sum += v
		}
		if sum > 0 && sum != 1 {
			inv := 1 / sum
			for j := range row {
				row[j] *= inv
			}
		}
		P[i] = row
	}
	return &Chain{N: n, P: P}
}

// Absorbing reports whether state i is absorbing (full consensus).
func (c *Chain) Absorbing(i int) bool { return i == 0 || i == c.N }

// Step propagates a distribution over states one round: out = dist · P.
// It allocates the output; propagation loops should ping-pong two buffers
// through StepInto instead.
func (c *Chain) Step(dist []float64) []float64 {
	out := make([]float64, c.N+1)
	c.StepInto(dist, out)
	return out
}

// StepInto propagates a distribution one round into out (out = dist · P),
// reusing out's storage — the allocation-free form of Step for per-round
// propagation loops. Both slices must have length N+1; out is overwritten
// and must not alias dist.
//
//consensus:hotpath
func (c *Chain) StepInto(dist, out []float64) {
	if len(dist) != c.N+1 || len(out) != c.N+1 {
		panic("exact: distribution has wrong length")
	}
	clear(out)
	for i, di := range dist {
		if di == 0 {
			continue
		}
		row := c.P[i]
		for j, pij := range row {
			out[j] += di * pij
		}
	}
}

// Solve returns the chain's two absorption statistics from one
// elimination of (I − Q) over the transient states against both
// right-hand sides:
//
//   - times[i] = E[rounds until absorption | L_0 = i], the exact expected
//     convergence time of the two-bin median rule, from (I − Q)t = 1;
//   - wins[i] = Pr[absorbed at N | L_0 = i], the exact probability that
//     the left value wins from i supporters, from (I − Q)h = P[·][N].
//     wins[0] = 0, wins[N] = 1, and by the symmetry of the dynamics
//     wins[i] + wins[N−i] = 1.
//
// Partial pivoting depends only on I − Q, and each right-hand column is
// eliminated and back-substituted on its own, so each result is
// bit-identical to solving its system alone.
func (c *Chain) Solve() (times, wins []float64) {
	n := c.N
	m := n - 1 // transient states 1..n-1
	times = make([]float64, n+1)
	wins = make([]float64, n+1)
	wins[n] = 1
	if m <= 0 {
		return times, wins
	}
	a := newAugmented(c, func(i int) []float64 { return []float64{1, c.P[i][n]} })
	solve(a, m, 2)
	for i := 1; i < n; i++ {
		times[i] = a[i-1][m]
		wins[i] = a[i-1][m+1]
	}
	return times, wins
}

// AbsorptionCDF returns F[t] = Pr[absorbed by round t | L_0 = start] for
// t = 0..maxRounds, computed by exact distribution propagation reusing two
// ping-pong buffers (no per-round allocation). maxRounds must be >= 0 —
// the result always includes the round-0 entry — and a negative value
// panics with a clear message instead of reaching make with a bogus size.
// Transition rows are renormalized at construction and the absorbed mass
// is clamped, so accumulated float error can never report a CDF above 1.
func (c *Chain) AbsorptionCDF(start, maxRounds int) []float64 {
	if start < 0 || start > c.N {
		panic("exact: start out of range")
	}
	if maxRounds < 0 {
		panic(fmt.Sprintf("exact: negative maxRounds %d in AbsorptionCDF", maxRounds))
	}
	dist := make([]float64, c.N+1)
	next := make([]float64, c.N+1)
	dist[start] = 1
	cdf := make([]float64, maxRounds+1)
	cdf[0] = absorbedMass(dist, c.N)
	for t := 1; t <= maxRounds; t++ {
		c.StepInto(dist, next)
		dist, next = next, dist
		cdf[t] = absorbedMass(dist, c.N)
	}
	return cdf
}

// absorbedMass is the probability mass on the two absorbing states,
// clamped to 1 — it is a CDF value, and clamping caps the residual float
// error the row renormalization cannot remove (mass already absorbed is
// re-multiplied by its row every round).
func absorbedMass(dist []float64, n int) float64 {
	if m := dist[0] + dist[n]; m < 1 {
		return m
	}
	return 1
}

// DriftProbability returns Pr[Δ_{t+1} ≥ factor·Δ_t | L_t = i] exactly,
// where Δ is the imbalance (Y−X)/2 of Section 3 — the quantity Lemma 15
// bounds below by 1 − exp(−Θ(Δ²/n)) for factor 4/3.
func (c *Chain) DriftProbability(i int, factor float64) float64 {
	n := c.N
	delta := math.Abs(float64(n)/2 - float64(i))
	target := factor * delta
	var sum float64
	for j, pij := range c.P[i] {
		if math.Abs(float64(n)/2-float64(j)) >= target {
			sum += pij
		}
	}
	return sum
}

// --- dense linear algebra ---------------------------------------------------

// newAugmented builds the m×(m+k) system (I − Q | B) over the transient
// states 1..n−1, where row i of B is rhs(i).
func newAugmented(c *Chain, rhs func(i int) []float64) [][]float64 {
	n := c.N
	m := n - 1
	k := len(rhs(1))
	a := make([][]float64, m)
	cells := make([]float64, m*(m+k))
	for r := 0; r < m; r++ {
		i := r + 1
		row := cells[r*(m+k) : (r+1)*(m+k) : (r+1)*(m+k)]
		for cIdx := 0; cIdx < m; cIdx++ {
			j := cIdx + 1
			row[cIdx] = -c.P[i][j]
			if i == j {
				row[cIdx] += 1
			}
		}
		copy(row[m:], rhs(i))
		a[r] = row
	}
	return a
}

// solve solves the m×(m+k) augmented system in place with the shared
// dense solver (markov.Solve): on return a[r][m+j] holds solution column
// j. It panics on a degenerate pivot rather than return NaNs.
func solve(a [][]float64, m, k int) {
	if !markov.Solve(a, m, k) {
		panic("exact: degenerate pivot in linear solve — singular or NaN system (is some transient state absorbing?)")
	}
}
