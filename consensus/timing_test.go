package consensus_test

import (
	"math"
	"testing"

	"repro/adversary"
	"repro/consensus"
	"repro/rules"
)

// TestAfterChoicesTimingTwoBin exercises the Section 3 / Theorem 10
// adversary timing through the public API on the two-bin count engine: the
// balancer rewrites outcomes *after* the random choices. The run must still reach almost stability
// with the theorem's (constant-adjusted) budget.
func TestAfterChoicesTimingTwoBin(t *testing.T) {
	const n = 4096
	res := consensus.Run(consensus.Config{
		Values:      consensus.TwoValue(n, n/2, 1, 2),
		Rule:        rules.Median{},
		Adversary:   adversary.NewBalancer(adversary.Sqrt(0.5), 1, 2),
		Timing:      consensus.AfterChoices,
		AlmostSlack: 3 * int(math.Sqrt(n)),
		MaxRounds:   20000,
		Seed:        11,
		Engine:      consensus.EngineCount,
	})
	if res.Reason != consensus.StopAlmostStable {
		t.Fatalf("AfterChoices run ended with %v after %d rounds", res.Reason, res.Rounds)
	}
}

// TestAfterChoicesTimingBall checks the ball engine's PostRoundAdversary
// path: the post-round balancer must keep the two bins measurably closer
// than an unimpeded run at the same horizon.
func TestAfterChoicesTimingBall(t *testing.T) {
	const n, horizon = 2000, 30
	gap := func(adv consensus.Adversary, timing consensus.Timing) int64 {
		var lastGap int64
		consensus.Run(consensus.Config{
			Values:    consensus.TwoValue(n, n/2, 1, 2),
			Rule:      rules.Median{},
			Adversary: adv,
			Timing:    timing,
			MaxRounds: horizon,
			Window:    horizon + 1,
			Seed:      5,
			Engine:    consensus.EngineBall,
			Observer: func(round int, vals []consensus.Value, counts []int64) {
				var lo, hi int64
				for i, v := range vals {
					switch v {
					case 1:
						lo = counts[i]
					case 2:
						hi = counts[i]
					}
				}
				d := hi - lo
				if d < 0 {
					d = -d
				}
				lastGap = d
			},
		})
		return lastGap
	}
	free := gap(nil, consensus.BeforeRound)
	held := gap(adversary.NewBalancer(adversary.Fixed(400), 1, 2), consensus.AfterChoices)
	if held >= free {
		t.Fatalf("post-round balancer did not reduce the gap: free=%d held=%d", free, held)
	}
	if held > 100 {
		t.Fatalf("post-round balancer with budget 400 left gap %d at n=%d", held, n)
	}
}

// TestWindowDisablesEarlyStop pins the semantics the fixed-horizon
// experiments rely on: with an adversary present and Window larger than
// MaxRounds, the run must observe the whole horizon.
func TestWindowDisablesEarlyStop(t *testing.T) {
	const horizon = 120
	res := consensus.Run(consensus.Config{
		Values:    consensus.TwoValue(1000, 100, 1, 2),
		Rule:      rules.Median{},
		Adversary: adversary.NewRandomNoise(adversary.Fixed(0)), // inert, but present
		MaxRounds: horizon,
		Window:    horizon + 1,
		Seed:      3,
		Engine:    consensus.EngineBall,
	})
	if res.Reason != consensus.StopMaxRounds || res.Rounds != horizon {
		t.Fatalf("got %v after %d rounds; want max-rounds after %d", res.Reason, res.Rounds, horizon)
	}
}

// TestWindowStopsAtFullAgreementUnderAdversary pins the complementary
// default: with an adversary, zero slack and the default window, sustained
// full agreement stops the run as almost-stable (an adversary could always
// break it later, so the engine never reports StopConsensus).
func TestWindowStopsAtFullAgreementUnderAdversary(t *testing.T) {
	res := consensus.Run(consensus.Config{
		Values:    consensus.TwoValue(1000, 100, 1, 2),
		Rule:      rules.Median{},
		Adversary: adversary.NewRandomNoise(adversary.Fixed(0)),
		MaxRounds: 5000,
		Seed:      3,
		Engine:    consensus.EngineBall,
	})
	if res.Reason != consensus.StopAlmostStable {
		t.Fatalf("got %v; want almost-stable via the window", res.Reason)
	}
	if res.WinnerCount != 1000 {
		t.Fatalf("full agreement expected with an inert adversary, got %d/1000", res.WinnerCount)
	}
}
