// Package core implements the synchronous-round simulation engines for the
// paper's process model (Section 2.1): n balls (processes) each holding a
// value (bin), updated in lock-step rounds
//
//	b_{t,j} = rule(b_{t-1,j}, b_{t-1,I_{t,j}}, b_{t-1,J_{t,j}})
//
// with I, J uniform on [n], and a T-bounded adversary that may rewrite up to
// T process states at the beginning of each round (model.BallAdversary /
// model.CountAdversary) or manipulate the freshly computed values after the
// random choices are made (model.PostRoundAdversary — the Section 3 timing
// used by Theorem 10).
//
// Two engines share one Result/Options contract:
//
//   - BallEngine — exact per-ball simulation. O(n) memory, O(n·s) sampling
//     per round. Supports every adversary hook, per-ball observers, the
//     in-place (asynchronous) ablation, and parallel execution with
//     per-shard RNG streams.
//   - CountEngine — exploits exchangeability: a ball's update depends only
//     on its own value and the value *distribution*, so the state is the
//     count vector, O(k) memory for k live values. A rule that states its
//     next-value law from the CDF (model.TransitionRule: every median-like
//     rule) runs a round as k multinomial draws — the k-bin form of the
//     Section 3 update L' ~ Bin(L, 1−(1−p)²) + Bin(n−L, p²) — in O(k²)
//     time, independent of n, so the two-bin lower-bound experiments run
//     at n up to 2^62. Other rules, and supports too wide for the O(k²)
//     step (see TransitionFits), sample every ball's peers from an alias
//     table in O(n·s). Both are statistically identical to BallEngine
//     (see the equivalence and differential tests).
//
// All engines stop on consensus (the fixed point b_{t,1} = … = b_{t,n}), on
// the paper's *almost stable consensus* — all but at most `AlmostSlack`
// processes agreeing on one fixed value for `Window` consecutive rounds —
// or at MaxRounds.
package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/assign"
	"repro/internal/model"
	"repro/internal/randx"
	"repro/internal/rng"
)

// Value aliases the shared process-value type.
type Value = model.Value

// Timing selects when the adversary acts relative to the protocol round.
type Timing int

const (
	// BeforeRound: the adversary rewrites states at the beginning of each
	// round (the paper's Section 1.1 model).
	BeforeRound Timing = iota
	// AfterChoices: the adversary manipulates outcomes after the random
	// choices are made (the Section 3 / Theorem 10 model). Requires a
	// PostRoundAdversary for ball engines or a CountAdversary for count
	// engines.
	AfterChoices
)

// Options configures a run. The zero value means: run to consensus or 2^20
// rounds, no almost-stability detection, sequential execution.
type Options struct {
	// MaxRounds caps the simulation; 0 means DefaultMaxRounds.
	MaxRounds int
	// AlmostSlack enables almost-stable detection when > 0: the run stops
	// once at least n−AlmostSlack processes agree on one fixed value for
	// Window consecutive rounds.
	AlmostSlack int
	// Window is the consecutive-round window for almost-stability;
	// 0 means DefaultWindow.
	Window int
	// Timing selects the adversary hook point.
	Timing Timing
	// Workers shards the BallEngine update loop; 0 or 1 is sequential.
	// Results are deterministic for a fixed (seed, Workers) pair.
	Workers int
	// InPlace switches the BallEngine to asynchronous in-place updates
	// (reads may see same-round writes). Ablation only; the paper's model
	// is synchronous.
	InPlace bool
	// Observer, when non-nil, is called after every round with the round
	// index and the current distribution (sorted values and counts). The
	// slices are reused; observers must copy what they keep.
	Observer func(round int, vals []Value, counts []int64)
}

// DefaultMaxRounds caps runs whose Options.MaxRounds is zero.
const DefaultMaxRounds = 1 << 20

// DefaultWindow is the almost-stability window when Options.Window is zero.
const DefaultWindow = 8

// Result reports the outcome of a run.
type Result struct {
	// Rounds is the number of protocol rounds executed.
	Rounds int
	// Reason states why the run stopped.
	Reason model.StopReason
	// Winner is the plurality value at the end (the consensus value when
	// Reason is StopConsensus or StopAlmostStable).
	Winner Value
	// WinnerCount is the number of processes holding Winner at the end.
	WinnerCount int64
	// StableSince is the first round of the final stability window
	// (meaningful when Reason is StopAlmostStable or StopConsensus).
	StableSince int
}

// String renders the result compactly for logs and traces.
func (r Result) String() string {
	return fmt.Sprintf("%s after %d rounds (winner %d held by %d)",
		r.Reason, r.Rounds, r.Winner, r.WinnerCount)
}

// stabilityTracker implements the shared stop logic.
//
// Semantics follow the paper: without an adversary, full agreement is a
// fixed point of the dynamics, so count == n stops the run immediately with
// StopConsensus. With an adversary, momentary full agreement is *not*
// stable (the adversary rewrites states next round), so the tracker only
// ever reports StopAlmostStable, and only after the plurality value has
// held at least n−slack processes for `window` consecutive rounds.
type stabilityTracker struct {
	slack      int64
	window     int
	n          int64
	fixedPoint bool // true when no adversary is present
	currWin    Value
	run        int
	since      int
}

func newStabilityTracker(n int64, fixedPoint bool, opts Options) *stabilityTracker {
	w := opts.Window
	if w <= 0 {
		w = DefaultWindow
	}
	return &stabilityTracker{
		slack:      int64(opts.AlmostSlack),
		window:     w,
		n:          n,
		fixedPoint: fixedPoint,
	}
}

// observe processes the round's plurality value and count; it returns a
// stop reason and true when the run should stop.
//
//consensus:hotpath
func (s *stabilityTracker) observe(round int, winner Value, count int64) (model.StopReason, bool) {
	if s.fixedPoint && count == s.n {
		s.since = round
		return model.StopConsensus, true
	}
	if s.fixedPoint && s.slack <= 0 {
		return 0, false
	}
	// Window logic; with slack == 0 under an adversary, the threshold is
	// full agreement sustained over the window.
	if count >= s.n-s.slack {
		if s.run == 0 || winner != s.currWin {
			s.currWin = winner
			s.run = 1
			s.since = round
		} else {
			s.run++
		}
		if s.run >= s.window {
			return model.StopAlmostStable, true
		}
	} else {
		s.run = 0
	}
	return 0, false
}

// BallEngine simulates the exact per-ball process.
type BallEngine struct {
	state, next []Value
	allowed     []Value
	rule        model.Rule
	closed      bool    // rule has a Transition law: it never creates a value
	pre         []Value // state before the adversary's writes (see keep)
	adv         model.Adversary
	opts        Options
	g           *rng.Xoshiro256   // adversary + sequential sampling stream
	shards      []*rng.Xoshiro256 // per-worker streams
	round       int
	// obsVals/obsCounts are the reusable distribution view handed to the
	// observer each round (see distInto).
	obsVals   []Value
	obsCounts []int64
}

// NewBallEngine builds a per-ball engine over the initial configuration cfg.
// The adversary may be nil. The allowed value set (what the adversary may
// write) is cfg's initial value set, per the paper.
func NewBallEngine(cfg assign.Config, rule model.Rule, adv model.Adversary, seed uint64, opts Options) *BallEngine {
	if len(cfg) == 0 {
		panic("core: empty configuration")
	}
	if rule == nil {
		panic("core: nil rule")
	}
	_, closed := rule.(model.TransitionRule)
	e := &BallEngine{
		state:   cfg.Clone(),
		next:    make([]Value, len(cfg)),
		rule:    rule,
		closed:  closed,
		adv:     adv,
		opts:    opts,
		g:       rng.NewXoshiro256(seed),
		allowed: sortedValueSet(cfg),
	}
	if opts.Workers > 1 {
		e.shards = e.g.Split(opts.Workers)
	}
	return e
}

func sortedValueSet(cfg assign.Config) []Value {
	set := cfg.ValueSet()
	out := make([]Value, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// State returns the live state vector (not a copy). Read-only for callers.
func (e *BallEngine) State() []Value { return e.state }

// Round returns the number of rounds executed so far.
func (e *BallEngine) Round() int { return e.round }

// Step executes one synchronous round.
func (e *BallEngine) Step() {
	n := len(e.state)
	if e.adv != nil && e.opts.Timing == BeforeRound {
		if ba, ok := e.adv.(model.BallAdversary); ok {
			e.keep(e.state)
			ba.CorruptBalls(e.round, e.state, e.allowed, e.g)
			e.checkWrites(e.state)
		}
	}
	dst := e.next
	if e.opts.InPlace {
		dst = e.state
	}
	if e.opts.Workers > 1 && !e.opts.InPlace {
		e.stepParallel(dst)
	} else {
		e.stepRange(e.g, 0, n, dst)
	}
	if e.adv != nil && e.opts.Timing == AfterChoices {
		if pa, ok := e.adv.(model.PostRoundAdversary); ok {
			e.keep(dst)
			pa.CorruptAfter(e.round, dst, e.allowed, e.g)
			e.checkWrites(dst)
		}
	}
	if !e.opts.InPlace {
		e.state, e.next = e.next, e.state
	}
	e.round++
}

// keep copies the state the adversary is about to corrupt into pre, under
// a rule with a Transition law, so that checkWrites sees what it changed.
func (e *BallEngine) keep(state []Value) {
	if e.closed {
		e.pre = append(e.pre[:0], state...)
	}
}

// checkWrites applies checkWrite to every ball the adversary changed
// since keep, under a rule with a Transition law.
//
//consensus:hotpath
func (e *BallEngine) checkWrites(state []Value) {
	if !e.closed {
		return
	}
	for i, v := range state {
		if v != e.pre[i] {
			checkWrite(e.adv, e.allowed, v)
		}
	}
}

// checkWrite enforces the paper's constraint that the adversary writes
// only initial values (allowed, sorted), for both engines alike. It is
// applied only under a rule with a Transition law: such a rule moves
// every ball to a live value, so a value outside the initial set can only
// have come from the adversary. A rule without one (mean) creates values
// itself, which the check could not tell apart from the adversary's.
//
//consensus:hotpath
func checkWrite(adv model.Adversary, allowed []Value, v Value) {
	if _, ok := slices.BinarySearch(allowed, v); !ok {
		badWrite(adv, v)
	}
}

func badWrite(adv model.Adversary, v Value) {
	panic(fmt.Sprintf("core: adversary %s wrote value %d, which is not an initial value", adv.Name(), v))
}

// stepRange computes next values for balls [lo, hi) using stream g.
//
//consensus:hotpath
func (e *BallEngine) stepRange(g *rng.Xoshiro256, lo, hi int, dst []Value) {
	n := uint64(len(e.state))
	s := e.rule.Samples()
	var buf [8]Value
	var sampled []Value
	if s <= len(buf) {
		sampled = buf[:s]
	} else {
		sampled = make([]Value, s)
	}
	for i := lo; i < hi; i++ {
		for k := 0; k < s; k++ {
			sampled[k] = e.state[g.Uint64n(n)]
		}
		dst[i] = e.rule.Update(e.state[i], sampled)
	}
}

func (e *BallEngine) stepParallel(dst []Value) {
	n := len(e.state)
	w := len(e.shards)
	chunk := (n + w - 1) / w
	done := make(chan struct{}, w)
	for s := 0; s < w; s++ {
		lo := s * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		go func(g *rng.Xoshiro256, lo, hi int) {
			e.stepRange(g, lo, hi, dst)
			done <- struct{}{}
		}(e.shards[s], lo, hi)
	}
	for s := 0; s < w; s++ {
		<-done
	}
}

// Run executes rounds until a stop condition fires and returns the Result.
func (e *BallEngine) Run() Result {
	maxRounds := e.opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	tracker := newStabilityTracker(int64(len(e.state)), e.adv == nil, e.opts)
	counts := make(map[Value]int64, 16)

	// Check the initial state too: a run that starts at consensus is done.
	if w, c, stop, res := e.checkState(tracker, counts, 0); stop {
		return Result{Rounds: 0, Reason: res, Winner: w, WinnerCount: c, StableSince: tracker.since}
	}
	for e.round < maxRounds {
		e.Step()
		if w, c, stop, res := e.checkState(tracker, counts, e.round); stop {
			return Result{Rounds: e.round, Reason: res, Winner: w, WinnerCount: c, StableSince: tracker.since}
		}
	}
	w, c := pluralityOf(e.state, counts)
	return Result{Rounds: e.round, Reason: model.StopMaxRounds, Winner: w, WinnerCount: c}
}

//consensus:hotpath
func (e *BallEngine) checkState(tracker *stabilityTracker, counts map[Value]int64, round int) (Value, int64, bool, model.StopReason) {
	w, c := pluralityOf(e.state, counts)
	if e.opts.Observer != nil {
		vals, cnts := e.distInto(counts)
		e.opts.Observer(round, vals, cnts)
	}
	if reason, stop := tracker.observe(round, w, c); stop {
		return w, c, true, reason
	}
	return w, c, false, 0
}

// pluralityOf fills counts (clearing it first) and returns the plurality
// value, breaking ties toward the smaller value for determinism.
//
//consensus:hotpath
func pluralityOf(state []Value, counts map[Value]int64) (Value, int64) {
	for k := range counts {
		delete(counts, k)
	}
	for _, v := range state {
		counts[v]++
	}
	var best Value
	var bestC int64 = -1
	for v, c := range counts {
		if c > bestC || (c == bestC && v < best) {
			best, bestC = v, c
		}
	}
	return best, bestC
}

// distInto flattens the count map into the engine-owned sorted scratch
// slices handed to the observer — reused every round, so an observed
// per-ball run stays allocation-free at steady state (the value set can
// only shrink under median-like rules).
//
//consensus:hotpath
func (e *BallEngine) distInto(counts map[Value]int64) ([]Value, []int64) {
	e.obsVals = e.obsVals[:0]
	for v := range counts {
		e.obsVals = append(e.obsVals, v)
	}
	slices.Sort(e.obsVals)
	if cap(e.obsCounts) < len(e.obsVals) {
		e.obsCounts = make([]int64, len(e.obsVals))
	}
	cnts := e.obsCounts[:len(e.obsVals)]
	for i, v := range e.obsVals {
		cnts[i] = counts[v]
	}
	return e.obsVals, cnts
}

// CountEngine simulates the process at the level of the value distribution.
// Its round workspaces (CDF and transition rows, next counts, weights,
// alias table, accumulator map, sample buffer) are engine-owned and reused
// across rounds, so a steady-state round performs zero heap allocations
// (see TestCountEngineRoundAllocs).
type CountEngine struct {
	vals    []Value
	counts  []int64
	n       int64
	allowed []Value
	rule    model.Rule
	trans   model.TransitionRule // rule's next-value law; nil if it has none
	adv     model.Adversary
	opts    Options
	g       *rng.Xoshiro256
	round   int
	// acc accumulates the next round's distribution.
	acc map[Value]int64
	// Round workspaces, retained across rounds.
	cdf, out []float64
	next     []int64
	weights  []float64
	alias    randx.Alias
	sampled  []Value
}

// TransitionFits reports whether a count-level round of rule over n balls
// and k live values runs as the exact O(k²) transition step: the rule
// states its next-value law (model.TransitionRule) and the step's k·k
// draws do not outnumber the per-ball loop's n·Samples() peer draws. The
// count engine applies it to the live support every round; the library's
// engine pick applies it to the init's support bound.
func TransitionFits(rule model.Rule, n int64, k int) bool {
	_, ok := rule.(model.TransitionRule)
	return ok && transitionFits(n, k, rule.Samples())
}

//consensus:hotpath
func transitionFits(n int64, k, samples int) bool {
	return k >= 1 && float64(k)*float64(k) <= float64(n)*float64(samples)
}

// NewCountEngine builds a count-level engine from the initial configuration.
func NewCountEngine(cfg assign.Config, rule model.Rule, adv model.Adversary, seed uint64, opts Options) *CountEngine {
	if len(cfg) == 0 {
		panic("core: empty configuration")
	}
	return NewCountEngineDist(cfg.Dist(), rule, adv, seed, opts)
}

// NewCountEngineDist builds a count-level engine directly over a value
// distribution (strictly increasing vals, positive counts) — the
// distribution-level entry point the count-native init builders feed,
// never materializing the O(n) per-ball vector. The slices are cloned, so
// the caller keeps ownership.
func NewCountEngineDist(d assign.Dist, rule model.Rule, adv model.Adversary, seed uint64, opts Options) *CountEngine {
	if len(d.Vals) == 0 || len(d.Vals) != len(d.Counts) {
		panic("core: empty or mismatched distribution")
	}
	if rule == nil {
		panic("core: nil rule")
	}
	var n int64
	for i, c := range d.Counts {
		if c <= 0 {
			panic(fmt.Sprintf("core: non-positive count %d for value %d", c, d.Vals[i]))
		}
		if i > 0 && d.Vals[i-1] >= d.Vals[i] {
			panic("core: distribution values must be strictly increasing")
		}
		n += c
	}
	trans, _ := rule.(model.TransitionRule)
	return &CountEngine{
		vals:    append([]Value(nil), d.Vals...),
		counts:  append([]int64(nil), d.Counts...),
		n:       n,
		rule:    rule,
		trans:   trans,
		adv:     adv,
		opts:    opts,
		g:       rng.NewXoshiro256(seed),
		allowed: append([]Value(nil), d.Vals...),
		acc:     make(map[Value]int64, len(d.Vals)),
	}
}

// Dist returns copies of the current sorted values and counts.
func (e *CountEngine) Dist() ([]Value, []int64) {
	return append([]Value(nil), e.vals...), append([]int64(nil), e.counts...)
}

// Round returns the number of rounds executed.
func (e *CountEngine) Round() int { return e.round }

// Step executes one synchronous round.
//
//consensus:hotpath
func (e *CountEngine) Step() {
	if e.adv != nil && e.opts.Timing == BeforeRound {
		e.corrupt()
	}
	if e.trans != nil && transitionFits(e.n, len(e.vals), e.rule.Samples()) {
		e.stepTransition()
	} else {
		e.stepSampled()
	}
	if e.adv != nil && e.opts.Timing == AfterChoices {
		e.corrupt()
	}
	e.round++
}

// corrupt hands the distribution to a count-level adversary, checks the
// paper's constraints on what it returns — the ball count is unchanged
// and, under a rule with a Transition law, every occupied value is an
// initial value (see checkWrite) — and drops emptied bins.
//
//consensus:hotpath
func (e *CountEngine) corrupt() {
	ca, ok := e.adv.(model.CountAdversary)
	if !ok {
		return
	}
	e.vals, e.counts = ca.CorruptCounts(e.round, e.vals, e.counts, e.allowed, e.g)
	var total int64
	for i, c := range e.counts {
		if c < 0 {
			e.badBin(e.vals[i], c)
		}
		if c > 0 && e.trans != nil {
			checkWrite(e.adv, e.allowed, e.vals[i])
		}
		total += c
	}
	if total != e.n {
		e.badTotal(total)
	}
	e.prune()
}

func (e *CountEngine) badBin(v Value, c int64) {
	panic(fmt.Sprintf("core: adversary %s left %d balls at value %d", e.adv.Name(), c, v))
}

func (e *CountEngine) badTotal(total int64) {
	panic(fmt.Sprintf("core: adversary %s changed the ball count (%d -> %d)", e.adv.Name(), e.n, total))
}

// stepTransition is the exact O(k²) round of a model.TransitionRule. The
// balls of own-bin i move to the k live values as one multinomial draw
// over the rule's next-value law G (out): conditional binomials
// Binomial(remaining, (G_j−G_{j−1})/(1−G_{j−1})) over ascending j —
// exactly G₀ at j = 0, where G_{−1} = 0 — stopping once no ball remains,
// the last value taking the remainder. Own-bins are visited in ascending
// order, so on two values the median rule makes exactly the Section 3
// draws Bin(L, 1−(1−p)²) then Bin(n−L, p²).
//
//consensus:hotpath
func (e *CountEngine) stepTransition() {
	k := len(e.vals)
	if k == 1 {
		return // consensus is a fixed point for every sampled rule
	}
	if cap(e.cdf) < k {
		e.cdf = make([]float64, k)
		e.out = make([]float64, k)
		e.next = make([]int64, k)
	}
	cdf, out, next := e.cdf[:k], e.out[:k], e.next[:k]
	var cum int64
	for j, c := range e.counts {
		cum += c
		cdf[j] = float64(cum) / float64(e.n)
		next[j] = 0
	}
	for own, c := range e.counts {
		e.trans.Transition(own, cdf, out)
		remaining := c
		prev := 0.0 // G_{j−1}
		for j := 0; j < k-1 && remaining > 0; j++ {
			p := 1.0 // no mass left above G_{j−1}: every remaining ball lands here
			if prev < 1 {
				p = min(max((out[j]-prev)/(1-prev), 0), 1)
			}
			x := randx.Binomial(e.g, remaining, p)
			next[j] += x
			remaining -= x
			prev = out[j]
		}
		next[k-1] += remaining
	}
	copy(e.counts, next)
	e.prune()
}

// stepSampled draws every ball's peers from the current distribution via an
// alias table and accumulates the next distribution. Every buffer it
// touches is engine-owned and reused, so steady-state rounds allocate
// nothing (median-like rules only ever produce already-seen values, so the
// accumulator map stops growing after the first round).
//
//consensus:hotpath
func (e *CountEngine) stepSampled() {
	if len(e.vals) == 1 {
		return // consensus is a fixed point for every sampled rule
	}
	e.weights = e.weights[:0]
	for _, k := range e.counts {
		e.weights = append(e.weights, float64(k))
	}
	e.alias.Rebuild(e.weights)
	s := e.rule.Samples()
	if cap(e.sampled) < s {
		e.sampled = make([]Value, s)
	}
	sampled := e.sampled[:s]
	clear(e.acc)
	for bi, cnt := range e.counts {
		own := e.vals[bi]
		for b := int64(0); b < cnt; b++ {
			for k := 0; k < s; k++ {
				sampled[k] = e.vals[e.alias.Draw(e.g)]
			}
			e.acc[e.rule.Update(own, sampled)]++
		}
	}
	// Rebuild sorted vectors.
	e.vals = e.vals[:0]
	for v := range e.acc {
		e.vals = append(e.vals, v)
	}
	slices.Sort(e.vals)
	e.counts = e.counts[:0]
	for _, v := range e.vals {
		e.counts = append(e.counts, e.acc[v])
	}
}

// prune removes zero-count bins (adversaries may empty a bin).
//
//consensus:hotpath
func (e *CountEngine) prune() {
	j := 0
	for i := range e.vals {
		if e.counts[i] > 0 {
			e.vals[j] = e.vals[i]
			e.counts[j] = e.counts[i]
			j++
		}
	}
	e.vals = e.vals[:j]
	e.counts = e.counts[:j]
}

// Run executes rounds until a stop condition fires.
func (e *CountEngine) Run() Result {
	maxRounds := e.opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	tracker := newStabilityTracker(e.n, e.adv == nil, e.opts)
	if w, c, stop, res := e.check(tracker, 0); stop {
		return Result{Rounds: 0, Reason: res, Winner: w, WinnerCount: c, StableSince: tracker.since}
	}
	for e.round < maxRounds {
		e.Step()
		if w, c, stop, res := e.check(tracker, e.round); stop {
			return Result{Rounds: e.round, Reason: res, Winner: w, WinnerCount: c, StableSince: tracker.since}
		}
	}
	w, c := e.plurality()
	return Result{Rounds: e.round, Reason: model.StopMaxRounds, Winner: w, WinnerCount: c}
}

//consensus:hotpath
func (e *CountEngine) check(tracker *stabilityTracker, round int) (Value, int64, bool, model.StopReason) {
	w, c := e.plurality()
	if e.opts.Observer != nil {
		e.opts.Observer(round, e.vals, e.counts)
	}
	if reason, stop := tracker.observe(round, w, c); stop {
		return w, c, true, reason
	}
	return w, c, false, 0
}

//consensus:hotpath
func (e *CountEngine) plurality() (Value, int64) {
	var best Value
	var bestC int64 = -1
	for i, c := range e.counts {
		if c > bestC {
			best, bestC = e.vals[i], c
		}
	}
	return best, bestC
}
