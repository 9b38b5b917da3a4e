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
// The private numberings are not materialized. A process contacts a
// uniformly random index of its numbering, and a uniform index into any
// fixed permutation is a uniform peer, so drawing the numbering changes no
// statistic of the run — it would only cost n² memory and RNG draws. The
// simulator draws each request's target directly and keeps O(n) state.
// Requester indices are the simulator's internal bookkeeping: a
// DropSelector sees them to decide which requests to answer, and no
// process ever learns another's index.
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
	// kept is the selection buffer Select returns, reused across calls.
	kept []int32
}

// Select implements DropSelector. The returned slice is reused by the
// next call.
func (d *DropValue) Select(_ int, requesters []int32, cap int, _ model.Rand) []int32 {
	if len(requesters) <= cap {
		return requesters
	}
	kept := d.kept[:0]
	// First pass: keep non-victims; then fill the remaining slots with
	// victims.
	for _, q := range requesters {
		if len(kept) < cap && (d.state == nil || d.state[q] != d.Victim) {
			kept = append(kept, q)
		}
	}
	for _, q := range requesters {
		if len(kept) < cap && d.state != nil && d.state[q] == d.Victim {
			kept = append(kept, q)
		}
	}
	d.kept = kept
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
	rule    model.Rule
	adv     model.Adversary
	allowed []Value
	opts    Options
	sel     DropSelector // opts.Selector, KeepFirst when nil
	g       *rng.Xoshiro256
	cap     int
	round   int
	stats   Stats

	// Per-round scratch, sized once in New. Request slot i·s+k is the
	// k-th request of process i (s = rule.Samples()).
	targets []int32         // slot → target process
	granted []bool          // slot → answered by its target
	start   []int32         // target t's requests are byT[start[t]:start[t+1]]
	byT     []int32         // request slots grouped by target, in arrival order
	sampled []Value         // one process's samples, handed to rule.Update
	distm   map[Value]int64 // observer distribution aggregation
}

// MaxRequestSlots bounds n·s, the requests of one round for s samples per
// process: request slots are indexed by int32.
const MaxRequestSlots = math.MaxInt32

// New builds a network of len(cfg) processes initialised with cfg. All
// per-round scratch is allocated here, so memory is O(n·s) for s samples
// per process and a round allocates nothing. It panics when n·s exceeds
// MaxRequestSlots.
func New(cfg assign.Config, rule model.Rule, adv model.Adversary, seed uint64, opts Options) *Network {
	n := len(cfg)
	if n == 0 {
		panic("gossip: empty configuration")
	}
	if rule == nil {
		panic("gossip: nil rule")
	}
	if int64(n)*int64(rule.Samples()) > MaxRequestSlots {
		panic("gossip: n·samples exceeds MaxRequestSlots")
	}
	sel := opts.Selector
	if sel == nil {
		sel = KeepFirst{}
	}
	s := rule.Samples()
	return &Network{
		values:  cfg.Clone(),
		next:    make([]Value, n),
		rule:    rule,
		adv:     adv,
		opts:    opts,
		sel:     sel,
		g:       rng.NewXoshiro256(seed),
		allowed: allowedOf(cfg),
		cap:     Capacity(n, opts.CapFactor),
		targets: make([]int32, n*s),
		granted: make([]bool, n*s),
		start:   make([]int32, n+1),
		byT:     make([]int32, n*s),
		sampled: make([]Value, s),
	}
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
//
//consensus:hotpath
func (nw *Network) Step() {
	n := len(nw.values)
	s := len(nw.sampled)

	// 1. Adversary rewrites states at the beginning of the round.
	if nw.adv != nil {
		if ba, ok := nw.adv.(model.BallAdversary); ok {
			ba.CorruptBalls(nw.round, nw.values, nw.allowed, nw.g)
		}
	}
	// Give value-aware drop selectors visibility of the post-corruption state.
	if dv, ok := nw.sel.(*DropValue); ok {
		dv.state = nw.values
	}

	// 2. Each process issues s requests to uniform peers (possibly
	//    itself): a uniform index into a private numbering is a uniform
	//    peer, so the numbering itself is never drawn. start[t] counts
	//    target t's requests.
	start := nw.start
	clear(start)
	for slot := range nw.targets {
		t := int32(nw.g.Intn(n))
		nw.targets[slot] = t
		start[t]++
	}
	nw.stats.RequestsSent += int64(n * s)

	// Group the slots by target (a counting sort): after the prefix sums
	// start[t] is the end of t's group, and filling from the last slot
	// down leaves each group in arrival order with start[t] at its head.
	for t := 1; t < n; t++ {
		start[t] += start[t-1]
	}
	for slot := len(nw.targets) - 1; slot >= 0; slot-- {
		t := nw.targets[slot]
		start[t]--
		nw.byT[start[t]] = int32(slot)
	}
	start[n] = int32(len(nw.targets))

	// 3. Capacity filtering at each target. An unsaturated target answers
	//    every request; at a saturated one the selector picks requesters
	//    to keep, and a kept requester's duplicate requests to the target
	//    are answered together (one response serves both samples).
	for t := 0; t < n; t++ {
		reqs := nw.byT[start[t]:start[t+1]]
		if len(reqs) > nw.stats.MaxInDegree {
			nw.stats.MaxInDegree = len(reqs)
		}
		if len(reqs) <= nw.cap {
			for _, slot := range reqs {
				nw.granted[slot] = true
			}
			continue
		}
		// The group's slots become requester indices in place: the
		// selector sees processes, and a kept process's slots are found
		// again from targets.
		for x, slot := range reqs {
			nw.granted[slot] = false
			reqs[x] = slot / int32(s)
		}
		kept := nw.sel.Select(t, reqs, nw.cap, nw.g)
		if len(kept) > nw.cap {
			kept = kept[:nw.cap]
		}
		nw.stats.RequestsDropped += int64(len(reqs) - len(kept))
		for _, q := range kept {
			for slot := int(q) * s; slot < int(q+1)*s; slot++ {
				if nw.targets[slot] == int32(t) {
					nw.granted[slot] = true
				}
			}
		}
	}

	// 4. Responses and local update. A dropped request contributes the
	//    requester's own value.
	for i := 0; i < n; i++ {
		own := nw.values[i]
		for k := 0; k < s; k++ {
			slot := i*s + k
			if nw.granted[slot] {
				nw.sampled[k] = nw.values[nw.targets[slot]]
			} else {
				nw.sampled[k] = own
			}
		}
		nw.next[i] = nw.rule.Update(own, nw.sampled)
	}
	nw.values, nw.next = nw.next, nw.values
	nw.round++
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
