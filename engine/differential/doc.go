// Package differential is the exact-vs-simulation gate: its test suite
// pins the Monte-Carlo engines' empirical statistics inside confidence
// bands of the analytic two-bin Markov chain (internal/exact), so the
// closed-form Section 3 results enforce simulation correctness on every
// change.
//
// The two-value scalar dynamics and the exact chain describe the same
// process — a run of the median kind over a twovalue init IS a sample of
// the chain, so its rounds-to-consensus is a draw of the chain's
// absorption time and its winner a Bernoulli draw of the chain's win
// probability. The suite runs fixed-seed trial batches through
// engine.Execute: the count engine in both of its round modes — the exact
// transition round (median) and the per-ball alias loop (a test-only
// median rule without a transition law) — and the gossip kind's message
// network with unlimited and with default request capacity. It requires:
//
//   - the mean absorption time within a 5σ band of the exact expectation,
//   - the win rate within a 5σ band of the exact win probability,
//   - the empirical absorption CDF within a 5σ band of the exact CDF at
//     probe rounds.
//
// Beyond two values there is no tractable chain, so the per-ball engine
// is the reference: the transition round on k > 2 values (median,
// majority, a 2k-choice median) must match it on mean rounds and on the
// winner distribution within 5σ, and a d = 1 multidim run must match the
// scalar dynamics on mean rounds.
//
// Seeds are fixed, so every band check is deterministic: a failure is a
// genuine statistical discrepancy (an engine bug or a changed sampling
// path), never flakiness — which is what lets CI treat this suite as a
// hard gate (the differential job in ci.yml).
//
// The package has no non-test API; this file exists so the suite is part
// of the ordinary build and `go test ./...` tier-1 surface.
package differential
