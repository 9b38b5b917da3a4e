package differential

import (
	"math"
	"sort"
	"testing"

	"repro/consensus"
	"repro/engine"
	"repro/internal/exact"
	"repro/internal/gossip"
	"repro/multidim"
	"repro/rules"
)

// sampledMedian is the median rule without its Transition method, so the
// count engine runs it through the per-ball alias loop instead of the
// exact transition round. It is registered under sampledMedianName for
// this suite only.
type sampledMedian struct{ consensus.Rule }

const sampledMedianName = "differential-sampled-median"

func init() {
	rules.Register(sampledMedianName, func(rules.Params) (rules.Rule, error) {
		return sampledMedian{rules.Median{}}, nil
	})
}

// twoValueRun is one simulation configuration held to the exact chain.
type twoValueRun struct {
	label string
	kind  string  // "median" (count engine) or "gossip"
	rule  string  // the update rule
	cap   float64 // gossip cap_factor: 0 = default, negative = unlimited
}

// twoValueRuns are the configurations held to the exact chain: the count
// engine's transition round and per-ball alias loop, and the gossip
// network with unlimited and with default request capacity. A gossip
// process draws its samples as uniform request targets, so with every
// request answered a run is a sample of the chain; at the default cap
// ⌈4·log₂ n⌉ (24 at n = 60) no request of these fixtures is dropped, so
// that row shares the unlimited row's realization and pins that the
// default cap stays out of the dynamics.
var twoValueRuns = []twoValueRun{
	{label: "count", kind: "median", rule: "median"},
	{label: "count/sampled", kind: "median", rule: sampledMedianName},
	{label: "gossip/unlimited", kind: "gossip", rule: "median", cap: -1},
	{label: "gossip/default-cap", kind: "gossip", rule: "median"},
}

// The absorption-time fixture: n and the low-bin start count of the
// twovalue init, which is exactly the exact chain's start state.
const (
	timeN      = 60
	timeStart  = 21
	timeTrials = 600
)

// The win-probability fixture uses a smaller, closer-to-balanced chain so
// the exact win probability is moderate (≈ 0.19) and a few thousand
// Bernoulli trials resolve it tightly.
const (
	winN      = 40
	winStart  = 18
	winTrials = 2000
)

// sigmas is the band half-width in standard errors. Seeds are fixed, so
// this is not a flake budget: 5σ would be exceeded by chance once in ~10⁶
// re-rolls of the seed list, and never by re-running the same seeds.
const sigmas = 5

// simTrials runs `trials` fixed-seed runs of one configuration over the
// twovalue init and returns each run's rounds-to-consensus plus the
// number of runs the low value won.
func simTrials(t *testing.T, run twoValueRun, n, nLow, trials int) (rounds []int, lowWins int) {
	t.Helper()
	init := consensus.InitSpec{Kind: "twovalue", N: n, NLow: nLow}
	rounds = make([]int, 0, trials)
	for seed := 1; seed <= trials; seed++ {
		var res engine.Result
		if run.kind == "gossip" {
			res = executeGossip(t, rules.Ref{Name: run.rule}, init, run.cap, uint64(seed))
		} else {
			res = execute(t, "count", rules.Ref{Name: run.rule}, init, uint64(seed))
		}
		rounds = append(rounds, res.Rounds)
		if res.Winner == exact.ValueLeft {
			lowWins++
		}
	}
	return rounds, lowWins
}

// execute runs one median-kind spec through engine.Execute.
func execute(t *testing.T, engineName string, rule rules.Ref, init consensus.InitSpec, seed uint64) engine.Result {
	t.Helper()
	res, err := engine.Execute(engine.Spec{
		Kind:    "median",
		Seed:    seed,
		Payload: &consensus.Spec{Init: init, Rule: rule, Engine: engineName},
	}, nil, nil)
	if err != nil {
		t.Fatalf("%s/%s seed %d: %v", engineName, rule.Name, seed, err)
	}
	return res
}

// executeGossip runs one gossip-kind spec through engine.Execute.
func executeGossip(t *testing.T, rule rules.Ref, init consensus.InitSpec, capFactor float64, seed uint64) engine.Result {
	t.Helper()
	res, err := engine.Execute(engine.Spec{
		Kind:    "gossip",
		Seed:    seed,
		Payload: &gossip.Spec{Init: init, Rule: rule, CapFactor: capFactor},
	}, nil, nil)
	if err != nil {
		t.Fatalf("gossip/%s cap %v seed %d: %v", rule.Name, capFactor, seed, err)
	}
	return res
}

// meanStd returns the sample mean and standard deviation.
func meanStd(xs []int) (mean, sd float64) {
	for _, x := range xs {
		mean += float64(x)
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := float64(x) - mean
		sd += d * d
	}
	sd = math.Sqrt(sd / float64(len(xs)-1))
	return mean, sd
}

// TestDifferentialAbsorptionTime: each run mode's mean rounds-to-consensus
// must sit inside a 5σ confidence band around the chain's exact expected
// absorption time. A bias in the transition round (count) or the sampling
// loop (count/sampled) shifts the mean and trips the band.
func TestDifferentialAbsorptionTime(t *testing.T) {
	times, _ := exact.NewChain(timeN).Solve()
	want := times[timeStart]
	for _, run := range twoValueRuns {
		rounds, _ := simTrials(t, run, timeN, timeStart, timeTrials)
		mean, sd := meanStd(rounds)
		band := sigmas*sd/math.Sqrt(float64(len(rounds))) + 0.05
		t.Logf("%s: mean %0.4f ± %0.4f vs exact %0.4f over %d trials",
			run.label, mean, band, want, len(rounds))
		if math.Abs(mean-want) > band {
			t.Errorf("%s mean absorption time %0.4f outside exact %0.4f ± %0.4f",
				run.label, mean, want, band)
		}
	}
}

// TestDifferentialWinProbability: each engine's empirical low-value win
// rate must sit inside a 5σ Bernoulli band around the chain's exact win
// probability — the sharpest test of the dynamics' bias, since any
// asymmetry in tie-breaking or sampling moves it.
func TestDifferentialWinProbability(t *testing.T) {
	_, wins := exact.NewChain(winN).Solve()
	want := wins[winStart]
	for _, run := range twoValueRuns {
		_, wins := simTrials(t, run, winN, winStart, winTrials)
		got := float64(wins) / winTrials
		band := sigmas*math.Sqrt(want*(1-want)/winTrials) + 0.01
		t.Logf("%s: win rate %0.4f ± %0.4f vs exact %0.4f over %d trials",
			run.label, got, band, want, winTrials)
		if math.Abs(got-want) > band {
			t.Errorf("%s win rate %0.4f outside exact %0.4f ± %0.4f",
				run.label, got, want, band)
		}
	}
}

// TestDifferentialAbsorptionCDF: the empirical distribution of
// rounds-to-consensus must track the chain's absorption CDF pointwise (a
// per-quantile check, sharper than the mean: a variance bug leaves the
// mean intact and trips this). Probe rounds are chosen where the exact
// CDF is informative.
func TestDifferentialAbsorptionCDF(t *testing.T) {
	c := exact.NewChain(timeN)
	maxRounds := 200
	cdf := c.AbsorptionCDF(timeStart, maxRounds)
	for _, run := range twoValueRuns {
		rounds, _ := simTrials(t, run, timeN, timeStart, timeTrials)
		sort.Ints(rounds)
		for _, probe := range []int{4, 7, 10, 15, 25} {
			want := cdf[probe]
			// Empirical CDF: fraction of runs absorbed by round probe.
			got := float64(sort.SearchInts(rounds, probe+1)) / float64(len(rounds))
			band := sigmas*math.Sqrt(want*(1-want)/float64(len(rounds))) + 0.01
			if math.Abs(got-want) > band {
				t.Errorf("%s CDF at round %d: empirical %0.4f outside exact %0.4f ± %0.4f",
					run.label, probe, got, want, band)
			}
		}
	}
}

// TestDifferentialExactKindSelfConsistent closes the loop: the registered
// exact kind must agree with the chain it wraps bit-for-bit, so the two
// tests above really compare simulation against the analytic spec the
// service serves, not against a drifted copy.
func TestDifferentialExactKindSelfConsistent(t *testing.T) {
	res, err := engine.Execute(engine.Spec{
		Kind:    "exact",
		Payload: &exact.Spec{N: timeN, Start: timeStart},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	times, wins := exact.NewChain(timeN).Solve()
	if got, want := res.Exact.ExpectedRounds, times[timeStart]; got != want {
		t.Errorf("exact kind ExpectedRounds %v != chain %v", got, want)
	}
	if got, want := res.Exact.WinProbability, wins[timeStart]; got != want {
		t.Errorf("exact kind WinProbability %v != chain %v", got, want)
	}
}

// The transition-vs-ball fixture: k > 2 values have no tractable exact
// chain, so the per-ball engine — a direct execution of the paper's
// update — is the ground truth the count engine's transition round must
// match in distribution.
const (
	kTrials = 400
	kN      = 300
)

// meanBand reports whether two samples' means agree within the 5σ band
// of their difference (plus a small slack for discrete rounds).
func meanBand(a, b []int) (diff, band float64) {
	ma, sa := meanStd(a)
	mb, sb := meanStd(b)
	band = sigmas*math.Sqrt(sa*sa/float64(len(a))+sb*sb/float64(len(b))) + 0.05
	return ma - mb, band
}

// TestDifferentialTransitionVsBall: on k > 2 values, the count engine's
// transition round (k·k ≤ n·samples from the first round here) and the
// ball engine must agree on mean rounds-to-consensus and on the winner
// distribution, each within a 5σ band, for every rule family the round
// serves: the median, majority and a 2k-choice median (binomial tails).
func TestDifferentialTransitionVsBall(t *testing.T) {
	for _, tc := range []struct {
		rule rules.Ref
		init consensus.InitSpec
	}{
		{rules.Ref{Name: "median"}, consensus.InitSpec{Kind: "evenblocks", N: kN, M: 5}},
		{rules.Ref{Name: "majority"}, consensus.InitSpec{Kind: "evenblocks", N: kN, M: 4}},
		{rules.Ref{Name: "kmedian", Params: rules.Params{"k": 2}}, consensus.InitSpec{Kind: "evenblocks", N: kN, M: 6}},
	} {
		t.Run(tc.rule.Name, func(t *testing.T) {
			var rounds [2][]int
			wins := [2]map[int64]int{{}, {}}
			for e, engineName := range []string{"count", "ball"} {
				for i := 1; i <= kTrials; i++ {
					res := execute(t, engineName, tc.rule, tc.init, uint64(e*kTrials+i))
					if res.Reason != "consensus" {
						t.Fatalf("%s trial %d: %+v", engineName, i, res)
					}
					rounds[e] = append(rounds[e], res.Rounds)
					wins[e][res.Winner]++
				}
			}
			diff, band := meanBand(rounds[0], rounds[1])
			t.Logf("mean rounds count − ball = %+0.3f (band ± %0.3f)", diff, band)
			if math.Abs(diff) > band {
				t.Errorf("mean rounds differ by %0.3f, outside ± %0.3f", diff, band)
			}
			for v := range mergeKeys(wins[0], wins[1]) {
				pc := float64(wins[0][v]) / kTrials
				pb := float64(wins[1][v]) / kTrials
				p := (pc + pb) / 2
				band := sigmas*math.Sqrt(2*p*(1-p)/kTrials) + 0.01
				if math.Abs(pc-pb) > band {
					t.Errorf("value %d wins %0.3f on count vs %0.3f on ball, outside ± %0.3f", v, pc, pb, band)
				}
			}
		})
	}
}

// mergeKeys returns the union of two maps' keys.
func mergeKeys(a, b map[int64]int) map[int64]bool {
	out := map[int64]bool{}
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

// TestDifferentialMultidimD1: a d = 1 multidim run is the scalar median
// dynamics, so the multidim kind over a one-dimensional uniform point set
// and the scalar count engine over the same-law uniform init must agree
// on mean rounds-to-consensus within a 5σ band.
func TestDifferentialMultidimD1(t *testing.T) {
	const n, m = 400, 8
	var scalar, multi []int
	for i := 1; i <= kTrials; i++ {
		seed := uint64(i)
		res := execute(t, "count", rules.Ref{Name: "median"}, consensus.InitSpec{Kind: "uniform", N: n, M: m, Seed: seed}, seed)
		scalar = append(scalar, res.Rounds)
		mres, err := engine.Execute(engine.Spec{
			Kind:    "multidim",
			Seed:    seed,
			Payload: &multidim.Spec{Init: multidim.InitSpec{Kind: "random", N: n, D: 1, M: m, Seed: seed}},
		}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		multi = append(multi, mres.Rounds)
	}
	diff, band := meanBand(scalar, multi)
	t.Logf("mean rounds scalar − multidim(d=1) = %+0.3f (band ± %0.3f)", diff, band)
	if math.Abs(diff) > band {
		t.Errorf("mean rounds differ by %0.3f, outside ± %0.3f", diff, band)
	}
}
