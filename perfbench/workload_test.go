package main

import (
	"encoding/json"
	"testing"

	"repro/engine"
)

func canonical(t *testing.T, s engine.Spec) string {
	t.Helper()
	c, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return string(c)
}

func hashOf(t *testing.T, s engine.Spec) string {
	t.Helper()
	h, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, other := newGen(7), newGen(7), newGen(8)
	for i := 0; i < 64; i++ {
		if ca, cb := canonical(t, a.tiny(i)), canonical(t, b.tiny(i)); ca != cb {
			t.Fatalf("tiny(%d) differs under one seed:\n%s\n%s", i, ca, cb)
		}
		if canonical(t, a.tiny(i)) == canonical(t, other.tiny(i)) {
			t.Fatalf("tiny(%d) is the same under seeds 7 and 8", i)
		}
	}
	for i := 0; i < 8; i++ {
		ja, _ := json.Marshal(a.batch(i))
		jb, _ := json.Marshal(b.batch(i))
		if string(ja) != string(jb) {
			t.Fatalf("batch(%d) differs under one seed", i)
		}
	}
	za, zb := a.zipf(1), b.zipf(1)
	for i := 0; i < 1000; i++ {
		if x, y := za(), zb(); x != y {
			t.Fatalf("zipf draw %d: %d != %d under one seed", i, x, y)
		}
	}
}

// TestNoHiddenCacheHits checks that serve-small's runs and sweep's cells
// never share a spec hash, so neither workload is answered from the cache.
func TestNoHiddenCacheHits(t *testing.T) {
	g := newGen(1)
	seen := map[string]int{}
	for i := 0; i < 20000; i++ {
		h := hashOf(t, g.tiny(i))
		if j, dup := seen[h]; dup {
			t.Fatalf("serve-small specs %d and %d share hash %s", j, i, h)
		}
		seen[h] = i
	}
	seen = map[string]int{}
	for b := 0; b < 500; b++ {
		for c, s := range g.batch(b) {
			h := hashOf(t, s)
			if j, dup := seen[h]; dup {
				t.Fatalf("sweep cell %d/%d repeats cell %d's hash %s", b, c, j, h)
			}
			seen[h] = b*batchCells + c
		}
	}
}

func TestWorkingSet(t *testing.T) {
	g := newGen(3)
	hashes := map[string]bool{}
	for i := 0; i < workingSet; i++ {
		hashes[hashOf(t, g.tiny(i))] = true
	}
	if len(hashes) != 2048 {
		t.Fatalf("working set has %d distinct hashes, want 2048", len(hashes))
	}
	draws := map[int]int{}
	z := g.zipf(0)
	for i := 0; i < 100000; i++ {
		k := z()
		if k < 0 || k >= workingSet {
			t.Fatalf("zipf drew %d, outside the working set", k)
		}
		draws[k]++
	}
	top := 0
	for _, n := range draws {
		top = max(top, n)
	}
	if top < 10000 {
		t.Fatalf("most drawn spec has %d of 100000 draws; the stream is not skewed", top)
	}
}

// TestSpecsValid checks that every kind of input the workloads send is a
// spec the service accepts.
func TestSpecsValid(t *testing.T) {
	g := newGen(1)
	specs := g.batch(0)
	for i := 0; i < 4; i++ {
		specs = append(specs, g.tiny(i))
	}
	specs = append(specs, g.probe("gossip", 0), g.probe("exact", 0))
	for _, s := range specs {
		if err := s.Normalize().Validate(); err != nil {
			t.Errorf("%s spec invalid: %v", s.Kind, err)
		}
	}
}
