package consensus

import (
	"math"
	"slices"
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
		Engine: EngineCount,
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

// TestRunAutoPicksTwoBin: a small two-value state runs on the count
// engine, whose exact transition round is the Section 3 two-bin update,
// whenever the rule states its next-value law — observed or not.
func TestRunAutoPicksTwoBin(t *testing.T) {
	for _, rule := range []Rule{rules.Median{}, rules.Majority{}, rules.NewKMedian(2), rules.Voter{}} {
		if e := pickVals(TwoValue(100, 40, 1, 2), Config{Rule: rule}); e != EngineCount {
			t.Fatalf("%s: picked %v, want count", rule.Name(), e)
		}
	}
	if e := pickVals(TwoValue(100, 40, 1, 2), Config{Rule: rules.Median{}, Observer: func(int, []Value, []int64) {}}); e != EngineCount {
		t.Fatalf("observed: picked %v, want count (observation must not change the pick)", e)
	}
	// The mean rule has no transition law: small populations stay per-ball.
	if e := pickVals(TwoValue(100, 40, 1, 2), Config{Rule: rules.Mean{}}); e != EngineBall {
		t.Fatalf("mean: picked %v, want ball", e)
	}
	// The O(k²) round must fit: 100 distinct values exceed k·k ≤ n·2.
	if e := pickVals(AllDistinct(100), Config{Rule: rules.Median{}}); e != EngineBall {
		t.Fatalf("distinct: picked %v, want ball", e)
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

// TestSpecTwoBinEngineHint: the retired "twobin" engine name fails
// validation and points at the count engine that subsumes it.
func TestSpecTwoBinEngineHint(t *testing.T) {
	s := &Spec{Init: InitSpec{Kind: "twovalue", N: 100}, Rule: rules.Ref{Name: "median"}, Engine: "twobin"}
	s.Normalize()
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), `engine "count"`) {
		t.Fatalf("Validate() = %v, want a hint to use engine \"count\"", err)
	}
}

func TestRunTwoBinDegenerateSingleValue(t *testing.T) {
	res := Run(Config{Values: []Value{7, 7, 7}, Rule: rules.Median{}, Engine: EngineCount, Seed: 2})
	if res.Reason != StopConsensus || res.Winner != 7 {
		t.Fatalf("%+v", res)
	}
}

// allowedRecorder is a count-level random-noise adversary that records
// every allowed value set the engine hands it.
type allowedRecorder struct {
	*adversary.RandomNoise
	seen [][]Value
}

func (a *allowedRecorder) CorruptCounts(round int, vals []Value, counts []int64, allowed []Value, r Rand) ([]Value, []int64) {
	a.seen = append(a.seen, slices.Clone(allowed))
	return a.RandomNoise.CorruptCounts(round, vals, counts, allowed, r)
}

// TestRunSingleValueAdversaryWritesOnlyInitialValues: the adversary may
// write only initial values (Section 1.1), so on a single-value start the
// allowed set it is handed is that one value — no engine may invent a
// neighbouring value to fill a second bin.
func TestRunSingleValueAdversaryWritesOnlyInitialValues(t *testing.T) {
	rec := &allowedRecorder{RandomNoise: adversary.NewRandomNoise(adversary.Fixed(2))}
	res := Run(Config{Values: []Value{7, 7, 7, 7, 7, 7, 7, 7}, Rule: rules.Median{}, Adversary: rec, Seed: 3, MaxRounds: 50})
	if len(rec.seen) == 0 {
		t.Fatal("adversary never called; test vacuous")
	}
	for i, allowed := range rec.seen {
		if !slices.Equal(allowed, []Value{7}) {
			t.Fatalf("call %d: adversary handed allowed values %v, want the initial set [7]", i, allowed)
		}
	}
	if res.Winner != 7 || res.WinnerCount != 8 {
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
				Engine: EngineCount,
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
