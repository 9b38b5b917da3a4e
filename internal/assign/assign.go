// Package assign models balls-into-bins configurations — the state space of
// the paper's analysis (Section 2.1) — together with the constructors used
// by the experiments and the *fineness* partial order of Section 4.1.
//
// A Config assigns each of n balls (processes) a Value (its bin). The paper
// identifies bins with natural numbers; we use int64 so values fit the
// paper's O(log n)-bit storage assumption for every n representable on the
// machine.
//
// The fineness order: a count vector (k_i) is finer than (k̃_i) when a
// monotone map f on bins exists with k̃_i = Σ_{j ∈ f⁻¹(i)} k_j. Lemma 17
// shows the median dynamics commute with such maps (because the median of
// three commutes with monotone functions), so convergence time is monotone
// under coarsening. FinerThan reconstructs a witnessing map; Coarsen applies
// one to a configuration so coupled runs can be compared ball by ball.
package assign

import (
	"fmt"
	"sort"

	"repro/internal/rng"
)

// Value is a process value ("bin"). The paper restricts values to the
// initial value set; engines enforce that for adversarial writes under
// rules that never create a value (model.TransitionRule).
type Value = int64

// Config is a per-ball assignment of values. Index = ball, entry = value.
type Config []Value

// Clone returns a deep copy of the configuration.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	copy(out, c)
	return out
}

// N returns the number of balls.
func (c Config) N() int { return len(c) }

// AllDistinct returns the paper's "all-one" assignment b_{0,i} = i: n balls
// in n distinct bins, the unique finest configuration (Section 4.1).
func AllDistinct(n int) Config {
	if n <= 0 {
		panic("assign: AllDistinct with n <= 0")
	}
	c := make(Config, n)
	for i := range c {
		c[i] = Value(i + 1)
	}
	return c
}

// Uniform places each of n balls independently and uniformly into one of the
// m bins 1..m — the paper's average-case model (Section 5).
func Uniform(n, m int, g *rng.Xoshiro256) Config {
	if n <= 0 || m <= 0 {
		panic("assign: Uniform with non-positive n or m")
	}
	c := make(Config, n)
	for i := range c {
		c[i] = Value(g.Intn(m) + 1)
	}
	return c
}

// TwoValue returns a two-bin configuration with nLow balls holding low and
// n-nLow balls holding high. It is the worst-case input family of Section 3;
// the imbalance is Δ0 = |n/2 − nLow| (for even n).
func TwoValue(n, nLow int, low, high Value) Config {
	if n <= 0 || nLow < 0 || nLow > n {
		panic("assign: TwoValue with invalid counts")
	}
	if low >= high {
		panic("assign: TwoValue needs low < high")
	}
	c := make(Config, n)
	for i := range c {
		if i < nLow {
			c[i] = low
		} else {
			c[i] = high
		}
	}
	return c
}

// Blocks builds a configuration from a count vector: counts[i] balls hold
// value i+1. Zero counts yield empty bins. The total must be positive.
func Blocks(counts []int64) Config {
	var n int64
	for _, k := range counts {
		if k < 0 {
			panic("assign: Blocks with negative count")
		}
		n += k
	}
	if n == 0 {
		panic("assign: Blocks with zero balls")
	}
	c := make(Config, 0, n)
	for i, k := range counts {
		for j := int64(0); j < k; j++ {
			c = append(c, Value(i+1))
		}
	}
	return c
}

// EvenBlocks spreads n balls over m bins as evenly as possible
// (⌈n/m⌉ in the first n mod m bins). Used as a deterministic worst-ish case
// for m-bin experiments.
func EvenBlocks(n, m int) Config {
	if n <= 0 || m <= 0 || m > n {
		panic("assign: EvenBlocks needs 0 < m <= n")
	}
	counts := make([]int64, m)
	base := int64(n / m)
	extra := n % m
	for i := range counts {
		counts[i] = base
		if i < extra {
			counts[i]++
		}
	}
	return Blocks(counts)
}

// Dist is the count-vector view of a configuration: Vals lists the distinct
// values in increasing order and Counts[i] is the number of balls holding
// Vals[i]. All counts are positive.
type Dist struct {
	Vals   []Value
	Counts []int64
}

// Dist computes the count-vector view of c.
func (c Config) Dist() Dist {
	if len(c) == 0 {
		return Dist{}
	}
	sorted := append([]Value(nil), c...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var d Dist
	cur := sorted[0]
	cnt := int64(0)
	for _, v := range sorted {
		if v != cur {
			d.Vals = append(d.Vals, cur)
			d.Counts = append(d.Counts, cnt)
			cur, cnt = v, 0
		}
		cnt++
	}
	d.Vals = append(d.Vals, cur)
	d.Counts = append(d.Counts, cnt)
	return d
}

// Expand materializes the per-ball configuration of a distribution:
// Counts[i] consecutive balls holding Vals[i], in the distribution's
// order. It is the O(n) fallback for engines that need per-ball state
// when the initial state was built at count level.
func Expand(d Dist) Config {
	var n int64
	for _, k := range d.Counts {
		if k < 0 {
			panic("assign: Expand with negative count")
		}
		n += k
	}
	if n == 0 {
		panic("assign: Expand with zero balls")
	}
	c := make(Config, 0, n)
	for i, k := range d.Counts {
		for j := int64(0); j < k; j++ {
			c = append(c, d.Vals[i])
		}
	}
	return c
}

// N returns the total number of balls in the distribution.
func (d Dist) N() int64 {
	var n int64
	for _, k := range d.Counts {
		n += k
	}
	return n
}

// Support returns the number of non-empty bins (distinct values).
func (d Dist) Support() int { return len(d.Vals) }

// MedianValue returns the value of the median ball m_t: the smallest value v
// such that at most n/2 balls are strictly below v and at most n/2 strictly
// above (the paper's Section 2.1 definition). Panics on an empty
// distribution.
func (d Dist) MedianValue() Value {
	n := d.N()
	if n == 0 {
		panic("assign: MedianValue of empty distribution")
	}
	var below int64
	for i, k := range d.Counts {
		above := n - below - k
		if 2*below <= n && 2*above <= n {
			return d.Vals[i]
		}
		below += k
	}
	// Unreachable: the median bin always exists.
	panic("assign: no median bin found")
}

// MaxCount returns the largest bin load and its value.
func (d Dist) MaxCount() (Value, int64) {
	if len(d.Vals) == 0 {
		panic("assign: MaxCount of empty distribution")
	}
	bi := 0
	for i, k := range d.Counts {
		if k > d.Counts[bi] {
			bi = i
		}
	}
	return d.Vals[bi], d.Counts[bi]
}

// IsConsensus reports whether every ball holds the same value.
func (c Config) IsConsensus() bool {
	if len(c) == 0 {
		return true
	}
	v := c[0]
	for _, x := range c {
		if x != v {
			return false
		}
	}
	return true
}

// AgreeingWith returns how many balls hold value v.
func (c Config) AgreeingWith(v Value) int {
	n := 0
	for _, x := range c {
		if x == v {
			n++
		}
	}
	return n
}

// ValueSet returns the set of distinct values as a map for membership tests
// (the adversary's allowed write set: the initial values v_1..v_n).
func (c Config) ValueSet() map[Value]struct{} {
	s := make(map[Value]struct{})
	for _, v := range c {
		s[v] = struct{}{}
	}
	return s
}

// FinerThan decides whether the count vector fine is finer than coarse in
// the paper's Section 4.1 order, i.e. whether consecutive groups of fine
// bins sum to the coarse bins in order. On success it returns a monotone
// witness map f with f[j] = index of the coarse bin receiving fine bin j.
//
// Both arguments are count vectors over ordered bins (index = bin). Trailing
// groupings must consume all bins; total loads must match.
func FinerThan(fine, coarse []int64) ([]int, bool) {
	var sumF, sumC int64
	for _, k := range fine {
		if k < 0 {
			return nil, false
		}
		sumF += k
	}
	for _, k := range coarse {
		if k < 0 {
			return nil, false
		}
		sumC += k
	}
	if sumF != sumC {
		return nil, false
	}
	f := make([]int, len(fine))
	j := 0 // current fine bin
	for i, want := range coarse {
		var acc int64
		for acc < want {
			if j >= len(fine) {
				return nil, false
			}
			acc += fine[j]
			f[j] = i
			j++
			if acc > want {
				return nil, false // cannot split a fine bin
			}
		}
		// want == 0 consumes nothing: coarse bin i is empty.
	}
	// Any remaining fine bins must be empty; map them to the last bin.
	for ; j < len(fine); j++ {
		if fine[j] != 0 {
			return nil, false
		}
		if len(coarse) > 0 {
			f[j] = len(coarse) - 1
		}
	}
	return f, true
}

// IsMonotone reports whether f is a monotone (non-decreasing) bin map.
func IsMonotone(f []int) bool {
	for i := 1; i < len(f); i++ {
		if f[i] < f[i-1] {
			return false
		}
	}
	return true
}

// Coarsen applies a monotone value map vf to every ball of c, producing the
// coarser coupled configuration of Lemma 17. The caller is responsible for
// vf's monotonicity (CheckMonotoneOn can verify it on c's value set).
func Coarsen(c Config, vf func(Value) Value) Config {
	out := make(Config, len(c))
	for i, v := range c {
		out[i] = vf(v)
	}
	return out
}

// CheckMonotoneOn verifies that vf is non-decreasing across the distinct
// values of c, returning an error naming the violating pair otherwise.
func CheckMonotoneOn(c Config, vf func(Value) Value) error {
	d := c.Dist()
	for i := 1; i < len(d.Vals); i++ {
		a, b := d.Vals[i-1], d.Vals[i]
		if vf(a) > vf(b) {
			return fmt.Errorf("assign: map not monotone: f(%d)=%d > f(%d)=%d", a, vf(a), b, vf(b))
		}
	}
	return nil
}

// Median3 returns the median of three values. This is the paper's update
// kernel; it is resolved here so that the commutation property
// median(f(a),f(b),f(c)) == f(median(a,b,c)) for monotone f (the heart of
// Lemma 17) can be property-tested against the same code the engines use.
func Median3(a, b, c Value) Value {
	// Sort three values with a small decision tree (no allocation).
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}
