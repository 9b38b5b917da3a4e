package main

import (
	"math/rand/v2"

	"repro/engine"
	"repro/multidim"
	"repro/service"
)

// Workload names, as given to --workload.
const (
	serveSmall  = "serve-small"
	serveRepeat = "serve-repeat"
	sweep       = "sweep"
)

// workloads lists each workload with its closed-loop client count and the
// number of slices its window is cut into. No workload uses more clients
// than the two CPUs of the reference host. sweep completes about 50 runs a
// second, so it gets longer slices: at least 100 samples each, enough for
// a p90 with 10 beyond.
var workloads = []struct {
	name    string
	clients int
	slices  int
}{
	{serveSmall, 2, 10},
	{serveRepeat, 2, 10},
	{sweep, 1, 5},
}

const (
	// workingSet is serve-repeat's number of distinct specs: twice the
	// service's default CacheSize of 1024, so LRU misses happen.
	workingSet = 2048
	// zipfS is the skew of serve-repeat's resubmits; with it most
	// requests hit the cache.
	zipfS = 1.1
	// batchCells is the number of cells in one sweep batch.
	batchCells = 6
)

// Salts keep the seed streams of the different inputs apart.
const (
	saltTiny uint64 = iota + 1
	saltSweep
	saltPerm
	saltZipf
	saltProbe
)

// gen derives every input of a workload from the workload seed: input i is
// a pure function of (seed, i), so the same seed yields the same sequence
// whichever client sends which input.
type gen struct {
	seed uint64
	// perm maps a serve-repeat popularity rank to a working-set index, so
	// the hot specs are spread over the whole mix.
	perm []int
}

func newGen(seed uint64) *gen {
	return &gen{seed: seed, perm: rand.New(rand.NewPCG(seed, saltPerm)).Perm(workingSet)}
}

// runSeed is the run seed of input i in the stream salt. mix64 is a
// bijection, so distinct i give distinct seeds within a stream.
func (g *gen) runSeed(salt uint64, i int) uint64 {
	s := mix64(mix64(g.seed^salt<<56) + uint64(i))
	if s == 0 {
		s = 1 // 0 would mean "derive the seed from the spec hash"
	}
	return s
}

// tiny is the i-th spec of the serve-small mix. serve-repeat's working set
// is tiny(0..workingSet-1).
func (g *gen) tiny(i int) engine.Spec {
	var s engine.Spec
	switch i % 4 {
	case 0:
		s = medianSpec(service.InitSpec{Kind: "twovalue", N: 64})
	case 1:
		s = medianSpec(service.InitSpec{Kind: "uniform", N: 256, M: 8})
	case 2:
		s = engine.Spec{Kind: service.KindMultidim, Payload: &service.MultidimSpec{
			Init: multidim.InitSpec{Kind: "random", N: 64, D: 2}}}
	default:
		s = engine.Spec{Kind: service.KindRobust, Payload: &service.RobustSpec{
			Init: service.InitSpec{Kind: "twovalue", N: 48}}}
	}
	s.SetSeed(g.runSeed(saltTiny, i))
	return s
}

// batch is the b-th sweep batch: one cell per engine kind at engine-heavy
// sizes (two for median: the count and ball engines), fresh seeds each.
func (g *gen) batch(b int) []engine.Spec {
	cells := []engine.Spec{
		medianSpec(service.InitSpec{Kind: "twovalue", N: 100_000}),
		medianSpec(service.InitSpec{Kind: "twovalue", N: 20_000}),
		{Kind: service.KindMultidim, Payload: &service.MultidimSpec{
			Init:   multidim.InitSpec{Kind: "random", N: 1_000_000_000, D: 2, M: 4},
			Engine: multidim.EngineCount}},
		{Kind: service.KindGossip, Payload: &service.GossipSpec{
			Init: service.InitSpec{Kind: "twovalue", N: 2000}}},
		{Kind: service.KindRobust, Payload: &service.RobustSpec{
			Init: service.InitSpec{Kind: "twovalue", N: 2000}, LossProb: 0.1}},
		{Kind: service.KindExact, Payload: &service.ExactSpec{N: 200}},
	}
	for c := range cells {
		cells[c].SetSeed(g.runSeed(saltSweep, b*batchCells+c))
	}
	return cells
}

// probe is the i-th spec of kind for an engine probe on a workload whose
// traffic has no spec of that kind (gossip and exact on serve-*): the
// kind at the workload's size of n = 64.
func (g *gen) probe(kind string, i int) engine.Spec {
	var s engine.Spec
	switch kind {
	case service.KindGossip:
		s = engine.Spec{Kind: kind, Payload: &service.GossipSpec{Init: service.InitSpec{Kind: "twovalue", N: 64}}}
	case service.KindExact:
		s = engine.Spec{Kind: kind, Payload: &service.ExactSpec{N: 64}}
	default:
		panic("perfbench: no probe spec for kind " + kind)
	}
	s.SetSeed(g.runSeed(saltProbe, i))
	return s
}

// zipf returns client c's stream of serve-repeat working-set indices.
func (g *gen) zipf(c int) func() int {
	z := rand.NewZipf(rand.New(rand.NewPCG(g.seed, saltZipf+uint64(c))), zipfS, 1, workingSet-1)
	return func() int { return g.perm[z.Uint64()] }
}

func medianSpec(init service.InitSpec) engine.Spec {
	return engine.Spec{Kind: service.KindMedian, Payload: &service.MedianSpec{
		Init: init, Rule: service.RuleSpec{Name: "median"}}}
}

// mix64 is the splitmix64 finalizer, a bijection on uint64.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
