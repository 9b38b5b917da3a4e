package main

import (
	"encoding/json"
	"math/rand/v2"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{1000, 99, 10},
		{999, 90, 99},
		{5000, 99, 50},
		{100, 90, 10},
		{99, 90, 9},
		{10, 90, 1},
		{0, 90, 0},
	} {
		p, beyond := tailPercentile(c.n)
		if p != c.p || beyond != c.beyond {
			t.Errorf("tailPercentile(%d) = p%v with %d beyond, want p%v with %d", c.n, p, beyond, c.p, c.beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, beyond := percentile(xs, 99); v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if v, _ := percentile(xs, 50); v != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", v)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestMetricCatalog checks every metric name and unit against the
// benchmark's naming rules and against BENCHMARK.json.
func TestMetricCatalog(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
			t.Errorf("bad metric definition %+v", d)
		}
		if seen[d.name] {
			t.Errorf("metric %s defined twice", d.name)
		}
		seen[d.name] = true
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the program %d", len(got), what, len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("BENCHMARK.json %s[%d] = %+v, the program has %+v", what, i, g, w)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	// BENCHMARK.json may leave a workload out (see README.md), but may not
	// name one the program does not have.
	for _, bw := range bench.Workloads {
		found := false
		for _, w := range workloads {
			found = found || w.name == bw.Name
		}
		if !found {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not have", bw.Name)
		}
	}
}

func sp(start, end int64) span { return span{Start: start, End: end} }

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := sp(0, 100)
	for _, c := range []struct {
		children []span
		want     time.Duration
	}{
		{nil, 100},
		{[]span{sp(10, 50), sp(30, 70)}, 40},
		{[]span{sp(10, 50), sp(30, 70), sp(60, 120), sp(-20, 5)}, 5},
		{[]span{sp(-50, 200), sp(0, 100), sp(20, 30)}, 0},
		{[]span{sp(200, 300)}, 100},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("selfTime(%v) = %v, want %v", c.children, got, c.want)
		}
	}
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 1000; i++ {
		var children []span
		for k := r.IntN(8); k > 0; k-- {
			a := r.Int64N(160) - 30
			children = append(children, sp(a, a+r.Int64N(80)))
		}
		if got := selfTime(parent, children); got < 0 || got > parent.dur() {
			t.Fatalf("selfTime(%v) = %v, outside [0, %v]", children, got, parent.dur())
		}
	}
}
