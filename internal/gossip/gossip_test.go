package gossip

import (
	"math"
	"runtime"
	"testing"

	"repro/adversary"
	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/initspec"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/rules"
)

func TestNetworkConverges(t *testing.T) {
	cfg := assign.AllDistinct(300)
	nw := New(cfg, rules.Median{}, nil, 1, Options{MaxRounds: 2000})
	res := nw.Run()
	if res.Reason != model.StopConsensus {
		t.Fatalf("no consensus: %+v", res)
	}
	if res.Winner < 1 || res.Winner > 300 {
		t.Fatalf("validity violated: %d", res.Winner)
	}
}

func TestNetworkConsensusIsFixedPoint(t *testing.T) {
	cfg := assign.Config{4, 4, 4}
	nw := New(cfg, rules.Median{}, nil, 2, Options{})
	res := nw.Run()
	if res.Reason != model.StopConsensus || res.Rounds != 0 {
		t.Fatalf("%+v", res)
	}
}

func TestNetworkDeterministic(t *testing.T) {
	cfg := assign.EvenBlocks(150, 3)
	a := New(cfg, rules.Median{}, nil, 7, Options{}).Run()
	b := New(cfg, rules.Median{}, nil, 7, Options{}).Run()
	if a.Rounds != b.Rounds || a.Winner != b.Winner {
		t.Fatalf("not reproducible: %+v vs %+v", a, b)
	}
}

func TestNetworkCapDefault(t *testing.T) {
	cfg := assign.AllDistinct(256)
	nw := New(cfg, rules.Median{}, nil, 1, Options{})
	want := int(math.Ceil(DefaultCapFactor * math.Log2(256)))
	if nw.Cap() != want {
		t.Fatalf("cap %d want %d", nw.Cap(), want)
	}
}

func TestNetworkUnlimitedCap(t *testing.T) {
	cfg := assign.AllDistinct(100)
	nw := New(cfg, rules.Median{}, nil, 1, Options{CapFactor: -1})
	nw.Run()
	if nw.Stats().RequestsDropped != 0 {
		t.Fatalf("dropped %d requests despite unlimited cap", nw.Stats().RequestsDropped)
	}
}

func TestNetworkDropsAreRare(t *testing.T) {
	// With the default capacity 4·log2(n), the max in-degree of 2n uniform
	// requests should essentially never exceed the cap.
	cfg := assign.AllDistinct(500)
	nw := New(cfg, rules.Median{}, nil, 3, Options{MaxRounds: 500})
	nw.Run()
	st := nw.Stats()
	if st.RequestsSent == 0 {
		t.Fatal("no requests recorded")
	}
	dropRate := float64(st.RequestsDropped) / float64(st.RequestsSent)
	if dropRate > 0.001 {
		t.Fatalf("drop rate %v too high (max in-degree %d, cap %d)",
			dropRate, st.MaxInDegree, nw.Cap())
	}
}

func TestNetworkTinyCapStillConverges(t *testing.T) {
	// Even a brutal capacity of 1 only slows the protocol (dropped samples
	// fall back to own values), it cannot wedge it.
	cfg := assign.EvenBlocks(200, 2)
	nw := New(cfg, rules.Median{}, nil, 5, Options{CapFactor: 1e-9, MaxRounds: 20000})
	if nw.Cap() != 1 {
		t.Fatalf("cap %d want 1", nw.Cap())
	}
	res := nw.Run()
	if res.Reason != model.StopConsensus {
		t.Fatalf("no consensus under cap=1: %+v", res)
	}
	if nw.Stats().RequestsDropped == 0 {
		t.Fatal("expected drops under cap=1; test vacuous")
	}
}

// Conformance (experiment E12): convergence-round distributions of the
// message-level simulator and the balls-and-bins ball engine agree.
func TestNetworkMatchesBallEngine(t *testing.T) {
	cfg := assign.EvenBlocks(300, 3)
	var net, ball []float64
	for s := uint64(0); s < 15; s++ {
		net = append(net, float64(New(cfg, rules.Median{}, nil, s, Options{}).Run().Rounds))
		ball = append(ball, float64(core.NewBallEngine(cfg, rules.Median{}, nil, s+99, core.Options{}).Run().Rounds))
	}
	mn, mb := stats.Mean(net), stats.Mean(ball)
	if math.Abs(mn-mb) > 0.4*(mn+mb)/2+2 {
		t.Fatalf("network %.2f vs ball %.2f mean rounds", mn, mb)
	}
}

func TestNetworkWithAdversaryAlmostStable(t *testing.T) {
	cfg := assign.TwoValue(300, 30, 1, 2)
	adv := adversary.NewHider(adversary.Fixed(5), 1)
	nw := New(cfg, rules.Median{}, adv, 11, Options{AlmostSlack: 10, Window: 5, MaxRounds: 5000})
	res := nw.Run()
	if res.Reason != model.StopAlmostStable {
		t.Fatalf("expected almost-stable: %+v", res)
	}
	if res.Winner != 2 {
		t.Fatalf("winner %d", res.Winner)
	}
}

func TestKeepFirstSelector(t *testing.T) {
	ks := KeepFirst{}
	reqs := []int32{5, 6, 7, 8}
	kept := ks.Select(0, reqs, 2, nil)
	if len(kept) != 2 || kept[0] != 5 || kept[1] != 6 {
		t.Fatalf("kept %v", kept)
	}
	kept = ks.Select(0, reqs, 10, nil)
	if len(kept) != 4 {
		t.Fatalf("under-cap trimmed: %v", kept)
	}
}

func TestDropValueSelectorPrefersDroppingVictims(t *testing.T) {
	d := &DropValue{Victim: 9, state: []Value{9, 1, 9, 1, 1}}
	reqs := []int32{0, 1, 2, 3, 4} // values: 9,1,9,1,1
	kept := d.Select(0, reqs, 3, rng.NewXoshiro256(1))
	if len(kept) != 3 {
		t.Fatalf("kept %d", len(kept))
	}
	for _, q := range kept {
		if d.state[q] == 9 {
			t.Fatalf("victim request kept while non-victims available: %v", kept)
		}
	}
	// When capacity exceeds non-victims, victims fill the remainder.
	kept = d.Select(0, reqs, 4, rng.NewXoshiro256(1))
	victims := 0
	for _, q := range kept {
		if d.state[q] == 9 {
			victims++
		}
	}
	if len(kept) != 4 || victims != 1 {
		t.Fatalf("kept %v victims %d", kept, victims)
	}
}

func TestDropValueAdversarialSelectorDoesNotWedgeMedian(t *testing.T) {
	// Even an adversarial drop selector targeting the minority's requests
	// cannot stop convergence (the paper's cap-with-adversarial-selection
	// model): dropped samples become own values, slowing, not blocking.
	cfg := assign.TwoValue(200, 60, 1, 2)
	nw := New(cfg, rules.Median{}, nil, 13, Options{
		CapFactor: 0.3, // aggressive cap to force drops
		Selector:  &DropValue{Victim: 2},
		MaxRounds: 30000,
	})
	res := nw.Run()
	if res.Reason != model.StopConsensus {
		t.Fatalf("no consensus: %+v", res)
	}
}

func TestNetworkPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("empty: expected panic")
			}
		}()
		New(nil, rules.Median{}, nil, 1, Options{})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("nil rule: expected panic")
			}
		}()
		New(assign.AllDistinct(5), nil, nil, 1, Options{})
	}()
}

// TestNewMemoryIsLinear: the network holds O(n) state. The private
// numberings are not materialized, so building a network of 4096
// processes stays far below the 32 MiB an n·n int16 table would take.
func TestNewMemoryIsLinear(t *testing.T) {
	cfg := assign.AllDistinct(4096)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	nw := New(cfg, rules.Median{}, nil, 1, Options{})
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(nw)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("New(n=4096) allocated %d bytes, want < 1 MiB", got)
	}
}

// TestStepAllocs pins the round loop's zero-allocation contract (the
// static hotpath check on Step complements it): after warm-up, a round
// allocates nothing, whether or not targets saturate and whichever
// selector answers them.
func TestStepAllocs(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"saturated/fair", Options{CapFactor: 0.3}},
		{"saturated/drop-value", Options{CapFactor: 0.3, Selector: &DropValue{Victim: 2}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			nw := New(assign.TwoValue(2000, 900, 1, 2), rules.Median{}, nil, 3, c.opts)
			for range 4 {
				nw.Step()
			}
			if avg := testing.AllocsPerRun(20, nw.Step); avg != 0 {
				t.Fatalf("Step allocates %v times per round", avg)
			}
			if c.opts.CapFactor > 0 && nw.Stats().RequestsDropped == 0 {
				t.Fatal("no request dropped; the saturated path went untested")
			}
		})
	}
}

// TestSaturatedTargetGrantsDuplicates: at a saturated target, a requester
// the selector keeps has every one of its requests to that target
// answered, and the drop count is the number of requester entries the
// selector left out. Cap 1 saturates every target asked twice.
func TestSaturatedTargetGrantsDuplicates(t *testing.T) {
	const n = 64
	nw := New(assign.AllDistinct(n), rules.Median{}, nil, 5, Options{CapFactor: 1e-9})
	dupGrants := 0
	for range 20 {
		dropped := nw.Stats().RequestsDropped
		nw.Step()
		grants, dups := 0, 0
		for i := 0; i < n; i++ {
			a, b := 2*i, 2*i+1
			if nw.targets[a] == nw.targets[b] && nw.granted[a] != nw.granted[b] {
				t.Fatalf("process %d: duplicate requests to %d answered %v/%v", i, nw.targets[a], nw.granted[a], nw.granted[b])
			}
			if nw.targets[a] == nw.targets[b] && nw.granted[a] {
				dups++
			}
		}
		requested := map[int32]bool{}
		for slot, tgt := range nw.targets {
			requested[tgt] = true
			if nw.granted[slot] {
				grants++
			}
		}
		// Each requested target keeps exactly one requester.
		if grants != len(requested)+dups {
			t.Fatalf("%d requests answered, want one per requested target (%d) plus %d duplicates", grants, len(requested), dups)
		}
		if got, want := nw.Stats().RequestsDropped-dropped, int64(2*n-len(requested)); got != want {
			t.Fatalf("dropped %d, want %d", got, want)
		}
		dupGrants += dups
	}
	if dupGrants == 0 {
		t.Fatal("no answered duplicate request: the seed no longer exercises duplicates")
	}
}

func TestStatsAccumulate(t *testing.T) {
	cfg := assign.AllDistinct(64)
	nw := New(cfg, rules.Median{}, nil, 5, Options{})
	nw.Step()
	nw.Step()
	st := nw.Stats()
	if st.RequestsSent != 2*2*64 {
		t.Fatalf("requests sent %d, want %d", st.RequestsSent, 2*2*64)
	}
	if st.MaxInDegree < 1 {
		t.Fatal("no in-degree recorded")
	}
}

func TestAccessors(t *testing.T) {
	nw := New(assign.EvenBlocks(64, 2), rules.Median{}, nil, 1, Options{})
	if nw.Round() != 0 {
		t.Fatal("fresh network must be at round 0")
	}
	if len(nw.Values()) != 64 {
		t.Fatalf("Values() has %d entries", len(nw.Values()))
	}
	nw.Step()
	if nw.Round() != 1 {
		t.Fatal("Round() must count steps")
	}
}

// TestObserverSeesEveryRound: the observer receives the initial state plus
// one sorted distribution per executed round, and watching a run does not
// change its trajectory — the property the service layer's cancellation
// and streaming hooks rest on.
func TestObserverSeesEveryRound(t *testing.T) {
	cfg := assign.AllDistinct(256)
	var rounds []int
	var lastVals []Value
	var lastCounts []int64
	observed := New(cfg, rules.Median{}, nil, 9, Options{
		Observer: func(round int, vals []Value, counts []int64) {
			rounds = append(rounds, round)
			lastVals = append(lastVals[:0], vals...)
			lastCounts = append(lastCounts[:0], counts...)
			var n int64
			for i := 1; i < len(vals); i++ {
				if vals[i-1] >= vals[i] {
					t.Fatalf("round %d: observed values not sorted: %v", round, vals)
				}
			}
			for _, c := range counts {
				n += c
			}
			if n != 256 {
				t.Fatalf("round %d: observed counts sum to %d", round, n)
			}
		},
	}).Run()
	blind := New(cfg, rules.Median{}, nil, 9, Options{}).Run()
	if observed.Rounds != blind.Rounds || observed.Winner != blind.Winner {
		t.Fatalf("observer changed the trajectory: %+v vs %+v", observed, blind)
	}
	if len(rounds) != observed.Rounds+1 {
		t.Fatalf("observer fired %d times, want rounds+1 = %d", len(rounds), observed.Rounds+1)
	}
	for i, r := range rounds {
		if r != i {
			t.Fatalf("observation %d reported round %d", i, r)
		}
	}
	if len(lastVals) != 1 || lastVals[0] != observed.Winner || lastCounts[0] != 256 {
		t.Fatalf("final observation %v/%v does not match the consensus", lastVals, lastCounts)
	}
}

// TestObserverPanicUnwindsRun: a panic raised inside the observer escapes
// Run mid-simulation — the mechanism service cancellation uses.
func TestObserverPanicUnwindsRun(t *testing.T) {
	type sentinel struct{}
	nw := New(assign.AllDistinct(128), rules.Median{}, nil, 3, Options{
		Observer: func(round int, _ []Value, _ []int64) {
			if round == 2 {
				panic(sentinel{})
			}
		},
	})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("observer panic must unwind Run")
		} else if _, ok := r.(sentinel); !ok {
			t.Fatalf("unexpected panic %v", r)
		}
		if nw.Round() != 2 {
			t.Fatalf("run unwound at round %d, want 2", nw.Round())
		}
	}()
	nw.Run()
}

// TestDistIntoAllocs pins the observer aggregation path: distInto reuses
// the network-owned map and sorts in place, so once the map has seen the
// support, observing a round appends into caller scratch and allocates
// nothing else.
func TestDistIntoAllocs(t *testing.T) {
	nw := New(assign.EvenBlocks(400, 4), rules.Median{}, nil, 1, Options{})
	vals := make([]Value, 0, 8)
	counts := make([]int64, 0, 8)
	vals, counts = nw.distInto(vals[:0], counts[:0]) // warm the map
	if len(vals) != 4 || len(counts) != 4 {
		t.Fatalf("distInto: %v %v", vals, counts)
	}
	avg := testing.AllocsPerRun(50, func() {
		vals, counts = nw.distInto(vals[:0], counts[:0])
	})
	if avg != 0 {
		t.Fatalf("steady-state observation allocates (%v allocs/round)", avg)
	}
}

// TestValidateBoundsRequestSlots: request slots are int32-indexed, so a
// spec whose round would issue more than MaxRequestSlots requests is
// rejected at validation instead of overflowing a slot index.
func TestValidateBoundsRequestSlots(t *testing.T) {
	for _, tc := range []struct {
		n  int
		ok bool
	}{{MaxRequestSlots / 2, true}, {MaxRequestSlots/2 + 1, false}} {
		s := &Spec{Init: initspec.Spec{Kind: "twovalue", N: tc.n}}
		s.Normalize()
		if err := s.Validate(); (err == nil) != tc.ok {
			t.Fatalf("n=%d (median, 2 samples): Validate() = %v, want ok=%v", tc.n, err, tc.ok)
		}
	}
}
