package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples a tail percentile needs beyond it to
// be reported.
const minBeyond = 10

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return max(1, min(int(math.Ceil(p/100*float64(n))), n))
}

// percentile returns the nearest-rank p-th percentile of the sorted
// samples and the number of samples above that rank.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	k := rank(len(sorted), p)
	if k == 0 {
		return 0, 0
	}
	return sorted[k-1], len(sorted) - k
}

// tailPercentile picks the tail percentile to report for n samples: the
// highest of p99 and p90 that has at least minBeyond samples beyond it.
// With fewer than 100 samples neither has; p90 is then returned with the
// short count, which the report prints beside it.
func tailPercentile(n int) (p float64, beyond int) {
	for _, p := range []float64{99, 90} {
		if beyond := n - rank(n, p); beyond >= minBeyond {
			return p, beyond
		}
	}
	return 90, n - rank(n, 90)
}

// median returns the median of xs (which it sorts), 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// span is one traced interval: a layer boundary crossed by one request.
// Spans of one request share Req, the X-Request-Id the client sent.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps one client's spans in memory. A nil tracer records nothing,
// which is how the untraced runs call the same code.
type tracer struct {
	origin time.Time
	prefix int64
	n      int64
	spans  []span
}

func newTracer(origin time.Time, client int) *tracer {
	return &tracer{origin: origin, prefix: int64(client+1) << 40}
}

// id reserves a span id, so a parent can be recorded after its children.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.n++
	return t.prefix | t.n
}

// add records the span [start, end] under id (0 = a fresh id).
func (t *tracer) add(id, parent int64, req, name string, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.id()
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))})
}

// selfTime is the part of parent's interval that no child covers. Children
// may overlap one another and stick out of the parent; only the union of
// their clipped intervals is subtracted, so the result is never negative.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return parent.dur() - time.Duration(covered)
}
