package exact

import (
	"math"
	"testing"

	"repro/engine"
)

func TestSpecNormalize(t *testing.T) {
	s := &Spec{N: 50}
	s.Normalize()
	if s.Init != InitPoint || s.Start != 25 {
		t.Fatalf("empty spec must normalize to point/n2, got init=%q start=%d", s.Init, s.Start)
	}
	u := &Spec{N: 50, Init: InitUniform}
	u.Normalize()
	if u.Start != 0 {
		t.Fatalf("uniform init must keep start 0, got %d", u.Start)
	}
	// Normalize is idempotent.
	s2 := &Spec{N: 50, Init: InitPoint, Start: 25}
	s2.Normalize()
	if *s2 != (Spec{N: 50, Init: InitPoint, Start: 25}) {
		t.Fatalf("normalize not idempotent: %+v", s2)
	}
}

func TestSpecValidate(t *testing.T) {
	good := []Spec{
		{N: 2, Start: 1},
		{N: 50},
		{N: 50, Init: InitPoint, Start: 49},
		{N: MaxSpecN, Init: InitUniform},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %+v must validate, got %v", s, err)
		}
	}
	bad := []Spec{
		{N: 1},
		{N: MaxSpecN + 1},
		{N: 50, Start: -1},
		{N: 50, Start: 50},
		{N: 50, Init: InitUniform, Start: 10},
		{N: 50, Init: "gaussian"},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v must be rejected", s)
		}
	}
}

func TestSpecApplyAxis(t *testing.T) {
	s := &Spec{N: 10}
	if err := s.ApplyAxis("n", 80); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyAxis("start", 20); err != nil {
		t.Fatal(err)
	}
	if s.N != 80 || s.Start != 20 {
		t.Fatalf("axes not applied: %+v", s)
	}
	if err := s.ApplyAxis("n", 10.5); err == nil {
		t.Fatal("fractional n axis value must be rejected")
	}
	if err := s.ApplyAxis("loss_prob", 0.1); err == nil {
		t.Fatal("foreign axis must be rejected")
	}
}

// TestSpecRunMatchesChain: the registered kind is a thin veneer over the
// Chain — the Result's analytic fields must equal the chain's direct
// answers, and the record stream must be the absorption CDF.
func TestSpecRunMatchesChain(t *testing.T) {
	const n, start = 60, 20
	var recs []engine.Record
	res, err := engine.Execute(
		engine.Spec{Kind: "exact", Payload: &Spec{N: n, Start: start}},
		func(r engine.Record) { recs = append(recs, r) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewChain(n)
	times, wins := c.Solve()
	if want := times[start]; math.Abs(res.Exact.ExpectedRounds-want) > 1e-9 {
		t.Errorf("ExpectedRounds = %v, chain says %v", res.Exact.ExpectedRounds, want)
	}
	if want := wins[start]; math.Abs(res.Exact.WinProbability-want) > 1e-9 {
		t.Errorf("WinProbability = %v, chain says %v", res.Exact.WinProbability, want)
	}
	if res.Reason != ReasonAnalytic {
		t.Errorf("reason = %q, want %q", res.Reason, ReasonAnalytic)
	}
	if len(recs) != res.Rounds+1 {
		t.Fatalf("%d records for %d rounds (want rounds+1)", len(recs), res.Rounds)
	}
	cdf := c.AbsorptionCDF(start, res.Rounds)
	for i, r := range recs {
		if r.Round != i {
			t.Fatalf("record %d has round %d", i, r.Round)
		}
		if math.Abs(r.Absorbed-cdf[i]) > 1e-12 {
			t.Errorf("record %d absorbed = %v, CDF says %v", i, r.Absorbed, cdf[i])
		}
		if r.Absorbed > 1 {
			t.Errorf("record %d absorbed %v exceeds 1", i, r.Absorbed)
		}
	}
	if last := recs[len(recs)-1].Absorbed; last < defaultCDFTarget {
		t.Errorf("adaptive stop left CDF at %v < %v", last, defaultCDFTarget)
	}
	if res.Exact.AbsorbedByEnd != recs[len(recs)-1].Absorbed {
		t.Errorf("AbsorbedByEnd %v != last record %v", res.Exact.AbsorbedByEnd, recs[len(recs)-1].Absorbed)
	}
	// A start left of center loses with high probability, so the winner is
	// the right value and the expected plurality leads right from round 0.
	if res.Winner != ValueRight || res.WinnerCount != n {
		t.Errorf("winner = %d/%d, want %d/%d", res.Winner, res.WinnerCount, ValueRight, n)
	}
	if recs[0].Leader != ValueRight || recs[0].LeaderCount != n-start {
		t.Errorf("record 0 leader %d/%d, want %d/%d", recs[0].Leader, recs[0].LeaderCount, ValueRight, n-start)
	}

	// MaxRounds caps the record stream without touching the analytic fields.
	var capped []engine.Record
	resCap, err := engine.Execute(
		engine.Spec{Kind: "exact", MaxRounds: 3, Payload: &Spec{N: n, Start: start}},
		func(r engine.Record) { capped = append(capped, r) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resCap.Rounds != 3 || len(capped) != 4 {
		t.Fatalf("capped run: rounds=%d records=%d, want 3/4", resCap.Rounds, len(capped))
	}
	if resCap.Exact.ExpectedRounds != res.Exact.ExpectedRounds {
		t.Error("round cap must not change the analytic expectation")
	}
	if resCap.Exact.AbsorbedByEnd >= res.Exact.AbsorbedByEnd {
		t.Error("a 3-round CDF cannot be above the converged one")
	}
}

// TestSpecRunUniformInit: the uniform init averages the point answers over
// the transient states.
func TestSpecRunUniformInit(t *testing.T) {
	const n = 40
	res, err := engine.Execute(
		engine.Spec{Kind: "exact", Payload: &Spec{N: n, Init: InitUniform}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	times, wins := NewChain(n).Solve()
	var wantT, wantW float64
	for i := 1; i < n; i++ {
		wantT += times[i]
		wantW += wins[i]
	}
	wantT /= float64(n - 1)
	wantW /= float64(n - 1)
	if math.Abs(res.Exact.ExpectedRounds-wantT) > 1e-9 {
		t.Errorf("uniform ExpectedRounds = %v, want %v", res.Exact.ExpectedRounds, wantT)
	}
	if math.Abs(res.Exact.WinProbability-wantW) > 1e-9 {
		t.Errorf("uniform WinProbability = %v, want %v", res.Exact.WinProbability, wantW)
	}
	// By symmetry the uniform win probability is exactly 1/2.
	if math.Abs(res.Exact.WinProbability-0.5) > 1e-9 {
		t.Errorf("uniform win probability %v, symmetry says 1/2", res.Exact.WinProbability)
	}
}

// TestSpecRunSeedIndependent: the analytic result is a function of the
// payload alone — the envelope seed must not leak into any output field.
func TestSpecRunSeedIndependent(t *testing.T) {
	run := func(seed uint64) engine.Result {
		res, err := engine.Execute(
			engine.Spec{Kind: "exact", Seed: seed, Payload: &Spec{N: 30, Start: 7}}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		res.Seed = 0 // the envelope echoes the seed; everything else must match
		return res
	}
	a, b := run(1), run(999)
	if *a.Exact != *b.Exact || a.Rounds != b.Rounds || a.Winner != b.Winner {
		t.Fatalf("analytic result depends on the seed:\n%+v\n%+v", a, b)
	}
}

// TestStepIntoAllocs pins the hot propagation path at zero allocations per
// round (satellite: Step used to allocate a fresh O(n) slice per round).
func TestStepIntoAllocs(t *testing.T) {
	c := NewChain(80)
	dist := make([]float64, c.N+1)
	next := make([]float64, c.N+1)
	dist[40] = 1
	allocs := testing.AllocsPerRun(100, func() {
		c.StepInto(dist, next)
		dist, next = next, dist
	})
	if allocs != 0 {
		t.Fatalf("StepInto allocates %v per round, want 0", allocs)
	}
}

func TestStepIntoPanics(t *testing.T) {
	c := NewChain(10)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-length buffers must panic")
		}
	}()
	c.StepInto(make([]float64, 11), make([]float64, 5))
}
