package conformance_test

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/engine"
	"repro/internal/rng"
	"repro/multidim"
)

// processOnly is a multidim adversary without a count-level
// implementation: it forces the per-process engine wherever it appears.
type processOnly struct{}

func (processOnly) Budget(int) int                                                   { return 0 }
func (processOnly) Corrupt(int, []multidim.Point, []multidim.Point, *rng.Xoshiro256) {}

func init() {
	multidim.RegisterAdversary("pin-process-only", func(multidim.Params) (multidim.Adversary, error) {
		return processOnly{}, nil
	})
}

// pinned is the fixed-seed outcome of one spec: the Execute result fields
// every kind shares, the admission charge, and — for the exact kind — the
// analytic floats as raw bits.
type pinned struct {
	rounds       int
	reason       string
	winner       int64
	winnerCount  int64
	stableSince  int
	materialized int64
	winnerPoint  string    // multidim winning tuple
	exactBits    [3]uint64 // expected_rounds, win_probability, absorbed_by_end
}

// TestEngineChoicePinned pins, at a fixed seed, the result and the
// materialized size of specs on both sides of every engine auto-selection
// boundary of the median and multidim kinds, plus explicit engine choices
// and the exact kind's analytic output. A refactor of engine dispatch that
// moves any spec to another engine — or perturbs one bit of a result —
// fails here.
func TestEngineChoicePinned(t *testing.T) {
	cases := []struct {
		name string
		spec string
		want pinned
		err  string // substring of the expected Validate error
	}{
		// Median kind, auto: count from n = 2^16 on, ball below.
		{name: "median/twovalue/n=2^16-1", spec: `{"rule":{"name":"median"},"init":{"kind":"twovalue","n":65535},"seed":11}`, want: pinned{rounds: 18, reason: "consensus", winner: 2, winnerCount: 65535, stableSince: 18, materialized: 65535}},
		{name: "median/twovalue/n=2^16", spec: `{"rule":{"name":"median"},"init":{"kind":"twovalue","n":65536},"seed":11}`, want: pinned{rounds: 19, reason: "consensus", winner: 1, winnerCount: 65536, stableSince: 19, materialized: 2}},
		{name: "median/uniform/m=3/small", spec: `{"rule":{"name":"median"},"init":{"kind":"uniform","n":3000,"m":3,"seed":5},"seed":12}`, want: pinned{rounds: 6, reason: "consensus", winner: 2, winnerCount: 3000, stableSince: 6, materialized: 3000}},
		{name: "median/uniform/m=3/large", spec: `{"rule":{"name":"median"},"init":{"kind":"uniform","n":70000,"m":3,"seed":5},"seed":12}`, want: pinned{rounds: 7, reason: "consensus", winner: 2, winnerCount: 70000, stableSince: 7, materialized: 3}},
		{name: "median/adversary/count-compatible", spec: `{"rule":{"name":"median"},"init":{"kind":"twovalue","n":65536},"adversary":{"name":"random-noise","budget":{"kind":"fixed","factor":2}},"almost_slack":20,"seed":13,"max_rounds":200}`, want: pinned{rounds: 25, reason: "almost-stable", winner: 2, winnerCount: 65536, stableSince: 18, materialized: 2}},
		{name: "median/adversary/ball-only", spec: `{"rule":{"name":"median"},"init":{"kind":"twovalue","n":65536},"adversary":{"name":"flipper","budget":{"kind":"fixed","factor":2}},"almost_slack":20,"seed":13,"max_rounds":40}`, want: pinned{rounds: 29, reason: "almost-stable", winner: 1, winnerCount: 65536, stableSince: 22, materialized: 65536}},
		// Median kind, explicit engines.
		{name: "median/explicit/twobin", spec: `{"rule":{"name":"median"},"init":{"kind":"twovalue","n":1000000},"engine":"twobin","seed":14}`, want: pinned{rounds: 23, reason: "consensus", winner: 1, winnerCount: 1000000, stableSince: 23, materialized: 2}},
		{name: "median/explicit/twobin/huge", spec: `{"rule":{"name":"median"},"init":{"kind":"twovalue","n":1000000000000},"engine":"twobin","seed":14}`, want: pinned{rounds: 41, reason: "consensus", winner: 1, winnerCount: 1000000000000, stableSince: 41, materialized: 2}},
		{name: "median/explicit/count", spec: `{"rule":{"name":"median"},"init":{"kind":"evenblocks","n":5000,"m":4},"engine":"count","seed":15}`, want: pinned{rounds: 20, reason: "consensus", winner: 3, winnerCount: 5000, stableSince: 20, materialized: 4}},
		{name: "median/explicit/ball", spec: `{"rule":{"name":"median"},"init":{"kind":"distinct","n":2000},"engine":"ball","seed":16}`, want: pinned{rounds: 26, reason: "consensus", winner: 964, winnerCount: 2000, stableSince: 26, materialized: 2000}},
		{name: "median/explicit/gossip", spec: `{"rule":{"name":"median"},"init":{"kind":"twovalue","n":64},"engine":"gossip"}`, err: `"gossip" spec kind`},
		// Multidim kind, auto: count once support·16 ≤ n (support 10² here).
		{name: "multidim/support*16<n", spec: `{"kind":"multidim","init":{"kind":"random","n":1601,"d":2,"m":10,"seed":3},"seed":17}`, want: pinned{rounds: 15, reason: "consensus", winnerCount: 1601, materialized: 100, winnerPoint: "[5 5]"}},
		{name: "multidim/support*16>n", spec: `{"kind":"multidim","init":{"kind":"random","n":1599,"d":2,"m":10,"seed":3},"seed":17}`, want: pinned{rounds: 12, reason: "consensus", winner: 0, winnerCount: 1599, materialized: 1599, winnerPoint: "[6 6]"}},
		{name: "multidim/adversary/count-compatible", spec: `{"kind":"multidim","init":{"kind":"random","n":1601,"d":2,"m":10,"seed":3},"adversary":{"name":"noise","params":{"t":2}},"seed":18,"max_rounds":60}`, want: pinned{rounds: 60, reason: "consensus", winnerCount: 1601, materialized: 100, winnerPoint: "[5 5]"}},
		{name: "multidim/adversary/count-incompatible", spec: `{"kind":"multidim","init":{"kind":"random","n":1601,"d":2,"m":10,"seed":3},"adversary":{"name":"pin-process-only"},"seed":18,"max_rounds":60}`, want: pinned{rounds: 60, reason: "consensus", winnerCount: 1601, materialized: 1601, winnerPoint: "[5 5]"}},
		{name: "multidim/explicit/count/count-incompatible", spec: `{"kind":"multidim","init":{"kind":"random","n":1601,"d":2,"m":10,"seed":3},"adversary":{"name":"pin-process-only"},"engine":"count"}`, err: "no count-level implementation"},
		// Exact kind: the analytic floats, bit for bit.
		{name: "exact/n=60/point", spec: `{"kind":"exact","n":60,"start":20}`, want: pinned{rounds: 44, reason: "analytic", winner: 2, winnerCount: 60, materialized: 60, exactBits: [3]uint64{0x401307ebfe093ef6, 0x3f380f8a6fa20ecf, 0x3fefffffff85bfd3}}},
		{name: "exact/n=60/uniform", spec: `{"kind":"exact","n":60,"init":"uniform"}`, want: pinned{rounds: 53, reason: "analytic", winner: 1, winnerCount: 60, materialized: 60, exactBits: [3]uint64{0x4010c86f93f59b7c, 0x3fe0000000000003, 0x3fefffffff8d31a0}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var spec engine.Spec
			if err := json.Unmarshal([]byte(c.spec), &spec); err != nil {
				t.Fatal(err)
			}
			spec = spec.Normalize()
			if err := spec.Validate(); c.err != "" {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("Validate() = %v, want an error containing %q", err, c.err)
				}
				return
			} else if err != nil {
				t.Fatal(err)
			}
			res, err := engine.Execute(spec, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := pinned{
				rounds: res.Rounds, reason: res.Reason, winner: res.Winner,
				winnerCount: res.WinnerCount, stableSince: res.StableSince,
				materialized: spec.MaterializedSize(),
			}
			if res.WinnerPoint != nil {
				got.winnerPoint = fmt.Sprint(res.WinnerPoint)
			}
			if x := res.Exact; x != nil {
				got.exactBits = [3]uint64{
					math.Float64bits(x.ExpectedRounds),
					math.Float64bits(x.WinProbability),
					math.Float64bits(x.AbsorbedByEnd),
				}
			}
			if got != c.want {
				t.Errorf("got  %#v\nwant %#v", got, c.want)
			}
		})
	}
}
