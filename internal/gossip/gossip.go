// Package gossip implements the paper's process-level communication model
// (Section 1.1) — as opposed to the balls-and-bins abstraction used by
// internal/core:
//
//   - n processes are completely interconnected in an *anonymous* network:
//     no global IDs; each process addresses peers through its own private
//     numbering (a private permutation of the others).
//   - Time proceeds in synchronized rounds. In each round every process
//     contacts at most a logarithmic number of other processes and exchanges
//     a logarithmic number of bits with each.
//   - A process with more than a logarithmic number of incoming requests
//     receives only a logarithmic number of them, *possibly selected by an
//     adversary*, and the others are dropped.
//
// The median rule runs on top: each process requests the values of two
// uniformly random peers (possibly itself); dropped requests are substituted
// with the requester's own value (median(v, v, x) = v, so a dropped sample
// conservatively keeps the requester's value — it never invents one).
//
// The conformance experiments (E12) show this message-level simulator and
// the balls-and-bins engines produce statistically indistinguishable
// convergence behaviour: with the default capacity c·⌈log₂ n⌉ the drop rate
// is negligible because the in-degree of 2n uniform requests concentrates
// near 2.
package gossip

import (
	"math"
	"slices"

	"repro/internal/assign"
	"repro/internal/model"
	"repro/internal/rng"
)

// Value aliases the shared process-value type.
type Value = model.Value

// DropSelector decides which incoming requests a saturated process answers.
// Given the requester indices (internal numbering) and the capacity, it
// returns the subset (length ≤ cap) to answer. The paper allows this choice
// to be adversarial.
type DropSelector interface {
	// Select returns the requests to keep. It may reorder requesters but
	// must return a subset of them with length at most cap.
	Select(target int, requesters []int32, cap int, r model.Rand) []int32
}

// KeepFirst answers requests in arrival order (arrival order is already
// random because requesters draw targets independently).
type KeepFirst struct{}

// Select implements DropSelector.
func (KeepFirst) Select(_ int, requesters []int32, cap int, _ model.Rand) []int32 {
	if len(requesters) <= cap {
		return requesters
	}
	return requesters[:cap]
}

// DropValue is an adversarial selector that prefers to drop requests from
// processes holding a designated value, starving them of samples.
type DropValue struct {
	// Victim is the value whose holders' requests are dropped first.
	Victim Value
	// state gives the selector read access to current values; wired by the
	// network each round.
	state []Value
}

// Select implements DropSelector.
func (d *DropValue) Select(_ int, requesters []int32, cap int, _ model.Rand) []int32 {
	if len(requesters) <= cap {
		return requesters
	}
	kept := make([]int32, 0, cap)
	// First pass: keep non-victims.
	for _, q := range requesters {
		if len(kept) == cap {
			return kept
		}
		if d.state == nil || d.state[q] != d.Victim {
			kept = append(kept, q)
		}
	}
	// Fill remaining slots with victims if capacity remains.
	for _, q := range requesters {
		if len(kept) == cap {
			break
		}
		if d.state != nil && d.state[q] == d.Victim {
			kept = append(kept, q)
		}
	}
	return kept
}

// Options configures the network simulation.
type Options struct {
	// CapFactor scales the per-round incoming-request capacity
	// ⌈CapFactor·log₂ n⌉. 0 means DefaultCapFactor. Set a negative value
	// for unlimited capacity (the pure abstraction).
	CapFactor float64
	// Selector decides which requests saturated processes answer;
	// nil means KeepFirst.
	Selector DropSelector
	// MaxRounds caps Run; 0 means DefaultMaxRounds.
	MaxRounds int
	// AlmostSlack and Window mirror core.Options: almost-stable detection.
	AlmostSlack int
	Window      int
	// Observer, when non-nil, receives the sorted value distribution once
	// before the first round and after every executed round — the same
	// per-round hook the balls-and-bins engines expose. It is the service
	// layer's cancellation point: a panic raised inside the observer
	// unwinds Run mid-simulation. Slices are reused; observers must copy
	// what they keep. Observation never touches the RNG, so a run's
	// trajectory is independent of whether anyone is watching.
	Observer func(round int, vals []Value, counts []int64)
}

// DefaultCapFactor is the capacity multiplier when Options.CapFactor is 0.
const DefaultCapFactor = 4

// DefaultMaxRounds caps runs whose Options.MaxRounds is zero.
const DefaultMaxRounds = 1 << 18

// Stats accumulates message-level telemetry across a run.
type Stats struct {
	// RequestsSent counts value requests issued by all processes.
	RequestsSent int64
	// RequestsDropped counts requests dropped at saturated targets.
	RequestsDropped int64
	// MaxInDegree is the largest per-round request load observed at any
	// single process.
	MaxInDegree int
}

// Network is the message-passing simulator.
type Network struct {
	values  []Value
	next    []Value
	wiring  wiring // private numbering per process
	rule    model.Rule
	adv     model.Adversary
	allowed []Value
	opts    Options
	g       *rng.Xoshiro256
	cap     int
	round   int
	stats   Stats

	// scratch per round
	reqFrom [][]int32       // requests received by each target
	pending [][]int32       // requester -> granted sample sources
	distm   map[Value]int64 // observer distribution aggregation
}

// New builds a network of len(cfg) processes initialised with cfg. The
// private numberings are sampled once at construction (they are fixed
// wiring, not per-round randomness).
func New(cfg assign.Config, rule model.Rule, adv model.Adversary, seed uint64, opts Options) *Network {
	n := len(cfg)
	if n == 0 {
		panic("gossip: empty configuration")
	}
	if rule == nil {
		panic("gossip: nil rule")
	}
	g := rng.NewXoshiro256(seed)
	nw := &Network{
		values:  cfg.Clone(),
		next:    make([]Value, n),
		rule:    rule,
		adv:     adv,
		opts:    opts,
		g:       g,
		allowed: allowedOf(cfg),
		cap:     Capacity(n, opts.CapFactor),
		reqFrom: make([][]int32, n),
	}
	nw.wiring = newWiring(n, g)
	return nw
}

// wiring holds every process's private numbering row-major in one n·n
// array: process i's k-th peer is ids[i·n+k]. Peer ids are 16 bits wide
// while n ≤ 2^16 — the wiring is the kind's dominant allocation, n²
// entries, so this halves it — and 32 bits beyond.
type wiring struct {
	n     int
	ids16 []uint16
	ids32 []int32
}

// newWiring draws the n private numberings. Each row is a uniform
// permutation from the inside-out Fisher–Yates of rng.Perm, run directly
// on the row, so the Intn sequence — and thus the wiring — is exactly
// that of n successive Perm(n) calls.
func newWiring(n int, g *rng.Xoshiro256) wiring {
	w := wiring{n: n}
	if n <= 1<<16 {
		w.ids16 = make([]uint16, n*n)
		fillPerms(w.ids16, n, g)
	} else {
		w.ids32 = make([]int32, n*n)
		fillPerms(w.ids32, n, g)
	}
	return w
}

func fillPerms[T uint16 | int32](ids []T, n int, g *rng.Xoshiro256) {
	for i := 0; i < n; i++ {
		row := ids[i*n : (i+1)*n]
		for k := 1; k < n; k++ {
			j := g.Intn(k + 1)
			row[k] = row[j]
			row[j] = T(k)
		}
	}
}

// peer returns process i's k-th peer.
func (w *wiring) peer(i, k int) int32 {
	if w.ids16 != nil {
		return int32(w.ids16[i*w.n+k])
	}
	return w.ids32[i*w.n+k]
}

// Capacity is the per-round incoming-request capacity of each process in
// a network of n: ⌈capFactor·log₂ n⌉, at least 1. capFactor 0 means
// DefaultCapFactor; a negative capFactor means unlimited (n).
func Capacity(n int, capFactor float64) int {
	switch {
	case capFactor < 0:
		return n
	case capFactor == 0:
		capFactor = DefaultCapFactor
	}
	return max(1, int(math.Ceil(capFactor*math.Log2(float64(n)))))
}

func allowedOf(cfg assign.Config) []Value {
	d := cfg.Dist()
	return append([]Value(nil), d.Vals...)
}

// Values returns the live value vector (not a copy).
func (nw *Network) Values() []Value { return nw.values }

// Stats returns the accumulated message statistics.
func (nw *Network) Stats() Stats { return nw.stats }

// Cap returns the per-round incoming-request capacity in force.
func (nw *Network) Cap() int { return nw.cap }

// Round returns the number of rounds executed.
func (nw *Network) Round() int { return nw.round }

// Step executes one synchronous round of the message-passing protocol.
func (nw *Network) Step() {
	n := len(nw.values)
	s := nw.rule.Samples()

	// 1. Adversary rewrites states at the beginning of the round.
	if nw.adv != nil {
		if ba, ok := nw.adv.(model.BallAdversary); ok {
			ba.CorruptBalls(nw.round, nw.values, nw.allowed, nw.g)
		}
	}
	// Give value-aware drop selectors visibility of the post-corruption state.
	if dv, ok := nw.opts.Selector.(*DropValue); ok {
		dv.state = nw.values
	}

	// 2. Each process issues s requests through its private numbering.
	//    targets[i*s+k] is the k-th target of process i.
	for t := range nw.reqFrom {
		nw.reqFrom[t] = nw.reqFrom[t][:0]
	}
	targets := make([]int32, n*s)
	for i := 0; i < n; i++ {
		for k := 0; k < s; k++ {
			// A uniform index into the private numbering is a uniform
			// peer; index n-? : perm has length n including self at some
			// position, so self-sampling occurs naturally.
			t := nw.wiring.peer(i, nw.g.Intn(n))
			targets[i*s+k] = t
			nw.reqFrom[t] = append(nw.reqFrom[t], int32(i))
		}
	}
	nw.stats.RequestsSent += int64(n * s)

	// 3. Capacity filtering at each target.
	granted := make(map[int64]bool, n*s) // key: target<<32 | requester... see key()
	sel := nw.opts.Selector
	if sel == nil {
		sel = KeepFirst{}
	}
	for t := 0; t < n; t++ {
		reqs := nw.reqFrom[t]
		if len(reqs) > nw.stats.MaxInDegree {
			nw.stats.MaxInDegree = len(reqs)
		}
		if len(reqs) <= nw.cap {
			for _, q := range reqs {
				granted[key(t, q)] = true
			}
			continue
		}
		kept := sel.Select(t, reqs, nw.cap, nw.g)
		if len(kept) > nw.cap {
			kept = kept[:nw.cap]
		}
		nw.stats.RequestsDropped += int64(len(reqs) - len(kept))
		for _, q := range kept {
			granted[key(t, q)] = true
		}
	}

	// 4. Responses and local update. A dropped request contributes the
	//    requester's own value. Note: duplicate requests to the same target
	//    are granted together (one response serves both samples).
	sampled := make([]Value, s)
	for i := 0; i < n; i++ {
		own := nw.values[i]
		for k := 0; k < s; k++ {
			t := targets[i*s+k]
			if granted[key(int(t), int32(i))] {
				sampled[k] = nw.values[t]
			} else {
				sampled[k] = own
			}
		}
		nw.next[i] = nw.rule.Update(own, sampled)
	}
	nw.values, nw.next = nw.next, nw.values
	nw.round++
}

func key(target int, requester int32) int64 {
	return int64(target)<<32 | int64(uint32(requester))
}

// Run executes rounds until consensus / almost-stability / MaxRounds,
// mirroring core's semantics.
type Result struct {
	Rounds      int
	Reason      model.StopReason
	Winner      Value
	WinnerCount int64
	Stats       Stats
}

// Run executes the protocol until a stop condition fires.
func (nw *Network) Run() Result {
	maxRounds := nw.opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	window := nw.opts.Window
	if window <= 0 {
		window = 8
	}
	slack := int64(nw.opts.AlmostSlack)
	n := int64(len(nw.values))
	fixedPoint := nw.adv == nil

	var curWin Value
	run := 0
	// With an observer attached, the per-round distribution is already
	// computed (sorted, so the first maximal count is the smallest tied
	// value — the same tie-break plurality uses); reuse it rather than
	// aggregating the values a second time.
	var obsVals []Value
	var obsCounts []int64
	observe := func() {
		if nw.opts.Observer == nil {
			return
		}
		obsVals, obsCounts = nw.distInto(obsVals[:0], obsCounts[:0])
		nw.opts.Observer(nw.round, obsVals, obsCounts)
	}
	check := func() (Result, bool) {
		var w Value
		var c int64
		if nw.opts.Observer != nil {
			c = -1
			for i, cnt := range obsCounts {
				if cnt > c {
					w, c = obsVals[i], cnt
				}
			}
		} else {
			w, c = plurality(nw.values)
		}
		if fixedPoint && c == n {
			return Result{Rounds: nw.round, Reason: model.StopConsensus, Winner: w, WinnerCount: c, Stats: nw.stats}, true
		}
		if !fixedPoint || slack > 0 {
			if c >= n-slack {
				if run == 0 || w != curWin {
					curWin = w
					run = 1
				} else {
					run++
				}
				if run >= window {
					return Result{Rounds: nw.round, Reason: model.StopAlmostStable, Winner: w, WinnerCount: c, Stats: nw.stats}, true
				}
			} else {
				run = 0
			}
		}
		return Result{}, false
	}
	observe()
	if res, stop := check(); stop {
		return res
	}
	for nw.round < maxRounds {
		nw.Step()
		observe()
		if res, stop := check(); stop {
			return res
		}
	}
	w, c := plurality(nw.values)
	return Result{Rounds: nw.round, Reason: model.StopMaxRounds, Winner: w, WinnerCount: c, Stats: nw.stats}
}

// distInto appends the distribution of values (sorted by value, so
// observation is deterministic) onto the given scratch slices. The
// aggregation map is owned by the network and cleared per round, so an
// observed run allocates nothing after the support stabilizes.
//
//consensus:hotpath
func (nw *Network) distInto(vals []Value, counts []int64) ([]Value, []int64) {
	if nw.distm == nil {
		nw.distm = make(map[Value]int64, 16)
	} else {
		clear(nw.distm)
	}
	for _, v := range nw.values {
		nw.distm[v]++
	}
	for v := range nw.distm {
		vals = append(vals, v)
	}
	slices.Sort(vals)
	for _, v := range vals {
		counts = append(counts, nw.distm[v])
	}
	return vals, counts
}

func plurality(values []Value) (Value, int64) {
	counts := make(map[Value]int64)
	for _, v := range values {
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
