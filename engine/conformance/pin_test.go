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
	messages     string    // gossip message telemetry
	exactBits    [3]uint64 // expected_rounds, win_probability, absorbed_by_end
}

// TestEngineChoicePinned pins, at a fixed seed, the result and the
// materialized size of specs on both sides of every engine auto-selection
// boundary of the median and multidim kinds, plus explicit engine choices,
// the gossip kind's request draws and the exact kind's analytic output. A
// refactor of engine dispatch that moves any spec to another engine — or
// perturbs one bit of a result — fails here.
func TestEngineChoicePinned(t *testing.T) {
	cases := []struct {
		name string
		spec string
		want pinned
		err  string // substring of the expected Validate error
	}{
		// Median kind, auto: count once its transition round fits the
		// init's support bound k (k·k ≤ n·samples) or from n = 2^16 on,
		// ball otherwise.
		{name: "median/twovalue/n=2^16-1", spec: `{"rule":{"name":"median"},"init":{"kind":"twovalue","n":65535},"seed":11}`, want: pinned{rounds: 16, reason: "consensus", winner: 1, winnerCount: 65535, stableSince: 16, materialized: 2}},
		{name: "median/twovalue/n=2^16", spec: `{"rule":{"name":"median"},"init":{"kind":"twovalue","n":65536},"seed":11}`, want: pinned{rounds: 16, reason: "consensus", winner: 1, winnerCount: 65536, stableSince: 16, materialized: 2}},
		{name: "median/uniform/m=3/small", spec: `{"rule":{"name":"median"},"init":{"kind":"uniform","n":3000,"m":3,"seed":5},"seed":12}`, want: pinned{rounds: 6, reason: "consensus", winner: 2, winnerCount: 3000, stableSince: 6, materialized: 3}},
		{name: "median/uniform/m=3/large", spec: `{"rule":{"name":"median"},"init":{"kind":"uniform","n":70000,"m":3,"seed":5},"seed":12}`, want: pinned{rounds: 6, reason: "consensus", winner: 2, winnerCount: 70000, stableSince: 6, materialized: 3}},
		{name: "median/distinct/k*k>2n", spec: `{"rule":{"name":"median"},"init":{"kind":"distinct","n":3000},"seed":12}`, want: pinned{rounds: 25, reason: "consensus", winner: 1513, winnerCount: 3000, stableSince: 25, materialized: 3000}},
		// A distinct start from n = 2^16 runs on count: per-ball rounds
		// until the support collapses into the transition round's reach.
		{name: "median/distinct/n=2^16", spec: `{"rule":{"name":"median"},"init":{"kind":"distinct","n":65536},"seed":12}`, want: pinned{rounds: 33, reason: "consensus", winner: 32889, winnerCount: 65536, stableSince: 33, materialized: 65536}},
		{name: "median/mean/no-transition", spec: `{"rule":{"name":"mean"},"init":{"kind":"twovalue","n":3000},"seed":12}`, want: pinned{rounds: 16, reason: "consensus", winner: 2, winnerCount: 3000, stableSince: 16, materialized: 3000}},
		{name: "median/adversary/count-compatible", spec: `{"rule":{"name":"median"},"init":{"kind":"twovalue","n":65536},"adversary":{"name":"random-noise","budget":{"kind":"fixed","factor":2}},"almost_slack":20,"seed":13,"max_rounds":200}`, want: pinned{rounds: 24, reason: "almost-stable", winner: 2, winnerCount: 65536, stableSince: 17, materialized: 2}},
		{name: "median/adversary/ball-only", spec: `{"rule":{"name":"median"},"init":{"kind":"twovalue","n":65536},"adversary":{"name":"flipper","budget":{"kind":"fixed","factor":2}},"almost_slack":20,"seed":13,"max_rounds":40}`, want: pinned{rounds: 29, reason: "almost-stable", winner: 1, winnerCount: 65536, stableSince: 22, materialized: 65536}},
		// Median kind, explicit engines.
		// The count rows on twovalue reproduce, draw for draw, what the
		// retired "twobin" engine pinned for the same specs.
		{name: "median/explicit/count/twovalue", spec: `{"rule":{"name":"median"},"init":{"kind":"twovalue","n":1000000},"engine":"count","seed":14}`, want: pinned{rounds: 23, reason: "consensus", winner: 1, winnerCount: 1000000, stableSince: 23, materialized: 2}},
		{name: "median/explicit/count/huge", spec: `{"rule":{"name":"median"},"init":{"kind":"twovalue","n":1000000000000},"engine":"count","seed":14}`, want: pinned{rounds: 41, reason: "consensus", winner: 1, winnerCount: 1000000000000, stableSince: 41, materialized: 2}},
		{name: "median/explicit/twobin", spec: `{"rule":{"name":"median"},"init":{"kind":"twovalue","n":1000000},"engine":"twobin","seed":14}`, err: `engine "count"`},
		{name: "median/explicit/count", spec: `{"rule":{"name":"median"},"init":{"kind":"evenblocks","n":5000,"m":4},"engine":"count","seed":15}`, want: pinned{rounds: 18, reason: "consensus", winner: 3, winnerCount: 5000, stableSince: 18, materialized: 4}},
		{name: "median/explicit/ball", spec: `{"rule":{"name":"median"},"init":{"kind":"distinct","n":2000},"engine":"ball","seed":16}`, want: pinned{rounds: 26, reason: "consensus", winner: 964, winnerCount: 2000, stableSince: 26, materialized: 2000}},
		{name: "median/explicit/gossip", spec: `{"rule":{"name":"median"},"init":{"kind":"twovalue","n":64},"engine":"gossip"}`, err: `"gossip" spec kind`},
		// Multidim kind, auto: count once support·16 ≤ n (support 10² here).
		{name: "multidim/support*16<n", spec: `{"kind":"multidim","init":{"kind":"random","n":1601,"d":2,"m":10,"seed":3},"seed":17}`, want: pinned{rounds: 15, reason: "consensus", winnerCount: 1601, materialized: 100, winnerPoint: "[5 5]"}},
		{name: "multidim/support*16>n", spec: `{"kind":"multidim","init":{"kind":"random","n":1599,"d":2,"m":10,"seed":3},"seed":17}`, want: pinned{rounds: 12, reason: "consensus", winner: 0, winnerCount: 1599, materialized: 1599, winnerPoint: "[6 6]"}},
		{name: "multidim/adversary/count-compatible", spec: `{"kind":"multidim","init":{"kind":"random","n":1601,"d":2,"m":10,"seed":3},"adversary":{"name":"noise","params":{"t":2}},"seed":18,"max_rounds":60}`, want: pinned{rounds: 60, reason: "consensus", winnerCount: 1601, materialized: 100, winnerPoint: "[5 5]"}},
		{name: "multidim/adversary/count-incompatible", spec: `{"kind":"multidim","init":{"kind":"random","n":1601,"d":2,"m":10,"seed":3},"adversary":{"name":"pin-process-only"},"seed":18,"max_rounds":60}`, want: pinned{rounds: 60, reason: "consensus", winnerCount: 1601, materialized: 1601, winnerPoint: "[5 5]"}},
		{name: "multidim/explicit/count/count-incompatible", spec: `{"kind":"multidim","init":{"kind":"random","n":1601,"d":2,"m":10,"seed":3},"adversary":{"name":"pin-process-only"},"engine":"count"}`, err: "no count-level implementation"},
		// Gossip kind: every request target is one draw of the run's RNG
		// (spec v3; no private numbering is drawn), so this row pins the
		// round's draw order and the saturated-target grants.
		{name: "gossip/twovalue/n=500", spec: `{"kind":"gossip","init":{"kind":"twovalue","n":500,"n_low":200},"cap_factor":0.3,"seed":19}`, want: pinned{rounds: 7, reason: "consensus", winner: 2, winnerCount: 500, materialized: 500, messages: "{RequestsSent:7000 RequestsDropped:769 MaxInDegree:8}"}},
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
			if res.Messages != nil {
				got.messages = fmt.Sprintf("%+v", *res.Messages)
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

// TestAdversaryValueContractIsEngineFree: whether a spec's adversary may
// write a value does not depend on the engine that runs it. Under the
// median rule a hider pinned to a value outside the init's {1, 2} fails
// on every engine, one pinned to 2 runs on every engine; under the mean
// rule, whose own values leave the initial set, a noise adversary runs on
// every engine (auto sends the n = 10⁵ spec to the count engine).
func TestAdversaryValueContractIsEngineFree(t *testing.T) {
	cases := []struct {
		name, spec, err string
	}{
		{"median/hider/foreign", `{"rule":{"name":"median"},"init":{"kind":"twovalue","n":1000},"adversary":{"name":"hider","budget":{"kind":"fixed","factor":5},"params":{"held":5}},"seed":3,"max_rounds":30}`, "wrote value 5"},
		{"median/hider/initial", `{"rule":{"name":"median"},"init":{"kind":"twovalue","n":1000},"adversary":{"name":"hider","budget":{"kind":"fixed","factor":5},"params":{"held":2}},"seed":3,"max_rounds":30}`, ""},
		{"mean/noise/small", `{"rule":{"name":"mean"},"init":{"kind":"twovalue","n":1000,"low":1,"high":3},"adversary":{"name":"random-noise","budget":{"kind":"fixed","factor":5}},"seed":3,"max_rounds":30}`, ""},
		{"mean/noise/n=1e5", `{"rule":{"name":"mean"},"init":{"kind":"twovalue","n":100000,"low":0,"high":1000},"adversary":{"name":"random-noise","budget":{"kind":"sqrt","factor":1}},"seed":3,"max_rounds":10}`, ""},
	}
	for _, c := range cases {
		for _, eng := range []string{"auto", "count", "ball"} {
			t.Run(c.name+"/"+eng, func(t *testing.T) {
				spec := c.spec
				if eng != "auto" {
					spec = strings.Replace(spec, `"seed"`, `"engine":"`+eng+`","seed"`, 1)
				}
				var s engine.Spec
				if err := json.Unmarshal([]byte(spec), &s); err != nil {
					t.Fatal(err)
				}
				s = s.Normalize()
				if err := s.Validate(); err != nil {
					t.Fatal(err)
				}
				_, err := engine.Execute(s, nil, nil)
				if c.err == "" && err != nil {
					t.Fatal(err)
				}
				if c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)) {
					t.Fatalf("Execute() = %v, want an error containing %q", err, c.err)
				}
			})
		}
	}
}
