package exact

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/engine"
)

func resetMemo() {
	memo.mu.Lock()
	memo.entries = nil
	memo.mu.Unlock()
}

func memoResident(n int) bool {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	for _, e := range memo.entries {
		if e.n == n {
			return true
		}
	}
	return false
}

func memoLen() int {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	return len(memo.entries)
}

// exactRun is one exact run's output: the result and the record stream.
type exactRun struct {
	res  engine.Result
	recs []engine.Record
}

func runExact(t *testing.T, s Spec, maxRounds int) exactRun {
	t.Helper()
	var out exactRun
	res, err := engine.Execute(
		engine.Spec{Kind: "exact", MaxRounds: maxRounds, Payload: &s},
		func(r engine.Record) { out.recs = append(out.recs, r) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	out.res = res
	return out
}

// freshRun is the reference for a memoized run: a chain built and solved
// for this run alone, then propagated the way Run propagates.
func freshRun(s Spec, maxRounds int) exactRun {
	s.Normalize()
	n := s.N
	c := NewChain(n)
	times, wins := c.Solve()
	dist, err := startDist(n, s.Init, s.Start)
	if err != nil {
		panic(err)
	}
	out := exactRun{res: engine.Result{Exact: &engine.ExactStats{
		ExpectedRounds: dot(times, dist),
		WinProbability: dot(wins, dist),
	}}}
	out.recs = append(out.recs, recordAt(0, n, dist))
	adaptive := maxRounds <= 0
	if adaptive {
		maxRounds = defaultCDFCap
	}
	next := make([]float64, n+1)
	absorbed := absorbedMass(dist, n)
	for t := 1; t <= maxRounds; t++ {
		c.StepInto(dist, next)
		dist, next = next, dist
		absorbed = absorbedMass(dist, n)
		out.res.Rounds = t
		out.recs = append(out.recs, recordAt(t, n, dist))
		if adaptive && absorbed >= defaultCDFTarget {
			break
		}
	}
	out.res.Exact.AbsorbedByEnd = absorbed
	return out
}

func sameRun(t *testing.T, label string, got, want exactRun) {
	t.Helper()
	g, w := got.res.Exact, want.res.Exact
	if got.res.Rounds != want.res.Rounds ||
		math.Float64bits(g.ExpectedRounds) != math.Float64bits(w.ExpectedRounds) ||
		math.Float64bits(g.WinProbability) != math.Float64bits(w.WinProbability) ||
		math.Float64bits(g.AbsorbedByEnd) != math.Float64bits(w.AbsorbedByEnd) {
		t.Fatalf("%s: rounds %d %+v, fresh chain says rounds %d %+v", label, got.res.Rounds, *g, want.res.Rounds, *w)
	}
	if len(got.recs) != len(want.recs) {
		t.Fatalf("%s: %d records, fresh chain gives %d", label, len(got.recs), len(want.recs))
	}
	for i := range got.recs {
		gr, wr := got.recs[i], want.recs[i]
		if math.Float64bits(gr.Absorbed) != math.Float64bits(wr.Absorbed) {
			t.Fatalf("%s: record %d absorbed %v, fresh chain %v", label, i, gr.Absorbed, wr.Absorbed)
		}
		if !reflect.DeepEqual(gr, wr) {
			t.Fatalf("%s: record %d = %+v, fresh chain %+v", label, i, gr, wr)
		}
	}
}

// TestRunMemoBitIdentical: a run that builds n's chain (cold), one that
// finds it in the memo (warm) and one after the chain was evicted and
// rebuilt all equal, bit for bit, a chain built and solved for the run
// alone. More distinct n run than the memo holds, and it never holds more
// than memoSize chains.
func TestRunMemoBitIdentical(t *testing.T) {
	cases := []struct {
		spec      Spec
		maxRounds int
	}{
		{Spec{N: 2, Start: 1}, 0},
		{Spec{N: 7, Init: InitUniform}, 0},
		{Spec{N: 30, Start: 7}, 5},
		{Spec{N: 60, Start: 20}, 0},
		{Spec{N: 60, Init: InitUniform}, 0},
		{Spec{N: 200}, 0},
	}
	fillers := []int{10, 11, 12, 13, 14} // more than memoSize, none a case's n
	for _, tc := range cases {
		label := func(phase string) string { return fmt.Sprintf("%+v %s", tc.spec, phase) }
		want := freshRun(tc.spec, tc.maxRounds)
		resetMemo()
		b0 := memoBuilds.Load()
		sameRun(t, label("cold"), runExact(t, tc.spec, tc.maxRounds), want)
		sameRun(t, label("warm"), runExact(t, tc.spec, tc.maxRounds), want)
		if got := memoBuilds.Load() - b0; got != 1 {
			t.Fatalf("n=%d: %d builds for a cold and a warm run, want 1", tc.spec.N, got)
		}
		for _, n := range fillers {
			runExact(t, Spec{N: n}, 1)
			if l := memoLen(); l > memoSize {
				t.Fatalf("memo holds %d chains, bound %d", l, memoSize)
			}
		}
		if memoResident(tc.spec.N) {
			t.Fatalf("n=%d still resident after %d other n", tc.spec.N, len(fillers))
		}
		b1 := memoBuilds.Load()
		sameRun(t, label("evicted"), runExact(t, tc.spec, tc.maxRounds), want)
		if got := memoBuilds.Load() - b1; got != 1 {
			t.Fatalf("n=%d: %d builds after eviction, want 1", tc.spec.N, got)
		}
	}
}

// TestMemoEvictsLeastRecentlyUsed: a hit refreshes an entry, so a new n
// evicts the chain used longest ago, not the one built first.
func TestMemoEvictsLeastRecentlyUsed(t *testing.T) {
	resetMemo()
	for n := 10; n < 10+memoSize; n++ {
		solvedChain(n)
	}
	solvedChain(10)
	solvedChain(10 + memoSize)
	if !memoResident(10) || memoResident(11) {
		t.Fatalf("after a hit on n=10 and a new n, resident 10: %v, 11: %v; want true, false",
			memoResident(10), memoResident(11))
	}
}

// TestMemoConcurrentRunsBuildOnce: goroutines running the same n and
// other n at once share one build per n, and every run of an n gets the
// same answer. Run it under -race.
func TestMemoConcurrentRunsBuildOnce(t *testing.T) {
	resetMemo()
	ns := []int{40, 120, 200} // fewer than memoSize, so nothing is evicted
	want := make(map[int]exactRun, len(ns))
	for _, n := range ns {
		want[n] = freshRun(Spec{N: n}, 0)
	}
	b0 := memoBuilds.Load()
	const workers = 8
	got := make([][]exactRun, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for k := range ns {
				n := ns[(w+k)%len(ns)]
				var run exactRun
				res, err := engine.Execute(
					engine.Spec{Kind: "exact", Payload: &Spec{N: n}},
					func(r engine.Record) { run.recs = append(run.recs, r) }, nil)
				if err != nil {
					t.Error(err)
					return
				}
				run.res = res
				got[w] = append(got[w], run)
			}
		}(w)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	if b := memoBuilds.Load() - b0; b != int64(len(ns)) {
		t.Fatalf("%d builds for %d distinct n across %d goroutines, want one per n", b, len(ns), workers)
	}
	for w, runs := range got {
		for k, run := range runs {
			n := ns[(w+k)%len(ns)]
			sameRun(t, "concurrent", run, want[n])
		}
	}
}

// TestMemoDoesNotCachePanics: a build that panics leaves nothing in the
// memo, so the next run of that n builds again and panics the same way,
// and goroutines waiting on a failing build get the panic rather than
// hang.
func TestMemoDoesNotCachePanics(t *testing.T) {
	resetMemo()
	catch := func() (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg, _ = r.(string)
			}
		}()
		solvedChain(0)
		return ""
	}
	b0 := memoBuilds.Load()
	for i := 0; i < 2; i++ {
		if msg := catch(); !strings.Contains(msg, "exact: n must be >= 1") {
			t.Fatalf("attempt %d: panic %q, want NewChain's", i, msg)
		}
		if memoResident(0) {
			t.Fatal("a failed build stayed in the memo")
		}
	}
	if b := memoBuilds.Load() - b0; b != 2 {
		t.Fatalf("%d builds for two failing runs, want 2", b)
	}

	const workers = 4
	msgs := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			msgs[w] = catch()
		}(w)
	}
	wg.Wait()
	for w, msg := range msgs {
		if !strings.Contains(msg, "exact: n must be >= 1") {
			t.Errorf("goroutine %d: panic %q, want NewChain's", w, msg)
		}
	}
	if memoLen() != 0 {
		t.Fatalf("memo holds %d entries after failing builds only", memoLen())
	}
}
