// Replicated key-value store: anti-entropy version reconciliation on the
// paper's actual network model — the synchronous, anonymous, completely
// connected message-passing system with logarithmic per-round contact
// budgets (Section 1.1).
//
// Run with:
//
//	go run ./examples/keyvaluestore
//
// A cluster of n replicas each hold a version identifier for one hot key.
// A network partition has healed and left the cluster split between several
// divergent versions; in addition, a low-rate corruption source (bit-rot,
// misbehaving nodes, operators poking at state) keeps resurrecting stale
// versions — the self-stabilization problem: the protocol must converge
// from *any* state, and re-converge after every perturbation, without any
// node ever being aware that consensus has been reached (stabilizing
// consensus, Angluin–Fischer–Jiang [1]).
//
// Each replica runs the median rule over version IDs via gossip: per round
// it sends value requests to two uniformly random peers, answers at most
// O(log n) requests itself (overloaded replicas drop the excess), and
// adopts the median of its own and the two fetched versions.
//
// The demo measures what a storage operator cares about: rounds to
// re-convergence, messages per replica per round, request-drop rate under
// the cap, and behaviour under continuous corruption.
//
// The simulation is the "gossip" spec kind, run through the same
// engine.Execute path the simulation service uses.
package main

import (
	"fmt"
	"math"
	"slices"

	"repro/adversary"
	"repro/consensus"
	"repro/service"
)

const nReplicas = 8_192

func main() {
	// Post-partition state: three divergent versions with skewed support,
	// plus a long tail of stale versions on individual replicas.
	versions := make([]consensus.Value, 0, nReplicas)
	for i := 0; i < nReplicas*45/100; i++ {
		versions = append(versions, 7001) // side A of the partition
	}
	for i := 0; i < nReplicas*35/100; i++ {
		versions = append(versions, 7002) // side B
	}
	for i := 0; i < nReplicas*15/100; i++ {
		versions = append(versions, 6990) // laggards
	}
	for v := consensus.Value(6800); len(versions) < nReplicas; v++ {
		versions = append(versions, v) // stale tail, all distinct
	}
	ids, counts := versionBlocks(versions)

	fmt.Printf("cluster of %d replicas, %d distinct versions after partition heal\n\n",
		nReplicas, len(ids))

	// The spec's "blocks" init gives the replicas holding the i-th smallest
	// version the value i+1. The median rule only compares values, so this
	// order-preserving relabeling runs the same dynamics; winners map back
	// through ids.
	run := func(seed uint64, maxRounds int, payload service.GossipSpec) service.RunResult {
		payload.Init = service.InitSpec{Kind: "blocks", Counts: counts}
		res, err := service.Execute(service.Spec{
			Kind: service.KindGossip, Seed: seed, MaxRounds: maxRounds, Payload: &payload,
		}, nil, nil)
		if err != nil {
			panic(err)
		}
		return res
	}
	describe := func(res service.RunResult) string {
		return fmt.Sprintf("%s after %d rounds (version %d held by %d)",
			res.Reason, res.Rounds, ids[res.Winner-1], res.WinnerCount)
	}

	// --- 1. Clean reconciliation on the message-passing model. ---------
	res := run(2024, 0, service.GossipSpec{})
	msgs := res.Messages
	perReplica := float64(msgs.RequestsSent) / float64(nReplicas) / float64(max(res.Rounds, 1))
	fmt.Printf("reconciliation: %s\n", describe(res))
	fmt.Printf("  requests/replica/round: %.2f   dropped: %d (%.4f%%)   max in-degree: %d\n\n",
		perReplica, msgs.RequestsDropped,
		100*float64(msgs.RequestsDropped)/float64(msgs.RequestsSent),
		msgs.MaxInDegree)

	// --- 2. Tight request caps: overloaded replicas drop requests. -----
	fmt.Println("under request-cap pressure (overloaded replicas answer in arrival order):")
	for _, capFactor := range []float64{4, 1, 0.5} {
		r := run(2025, 0, service.GossipSpec{CapFactor: capFactor})
		fmt.Printf("  cap %.1f·log2(n): %3d rounds, drop rate %6.3f%%\n",
			capFactor, r.Rounds,
			100*float64(r.Messages.RequestsDropped)/float64(r.Messages.RequestsSent))
	}

	// --- 3. Continuous low-rate corruption: almost stable consensus. ---
	// A T-bounded corruption source keeps flipping √n replicas per round
	// back to stale versions. The cluster still pins all but O(√n)
	// replicas to one version, forever — and every individual corruption
	// is healed within a few rounds.
	noise := adversary.Ref{Name: "random-noise", Budget: adversary.BudgetSpec{Kind: "sqrt", Factor: 0.5}}
	budget, err := noise.Budget.Func()
	if err != nil {
		panic(err)
	}
	res = run(2026, 10_000, service.GossipSpec{
		Adversary:   &noise,
		AlmostSlack: 3 * int(math.Sqrt(nReplicas)),
	})
	fmt.Printf("\nwith continuous corruption of %d replicas/round: %s\n", budget(nReplicas), describe(res))
	fmt.Printf("  (almost stable consensus: >= n − 3·sqrt(n) = %d replicas pinned)\n",
		nReplicas-3*int(math.Sqrt(nReplicas)))
}

// versionBlocks returns the sorted distinct versions and how many replicas
// hold each.
func versionBlocks(versions []consensus.Value) (ids []consensus.Value, counts []int64) {
	sorted := slices.Sorted(slices.Values(versions))
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			ids = append(ids, v)
			counts = append(counts, 0)
		}
		counts[len(counts)-1]++
	}
	return ids, counts
}
