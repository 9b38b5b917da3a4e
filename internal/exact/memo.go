package exact

import (
	"sync"
	"sync/atomic"
)

// The chain and its absorption solve depend on n alone — the seed, the
// start distribution and max_rounds never enter them — so Spec.Run reads
// them from a small process-wide memo and pays only its CDF propagation:
// O(n²) per round instead of the O(n³) build and solve.

// memoSize bounds the memo to the most recently used few n: at most about
// 5 MiB at n = MaxSpecN, where memoizing every admissible n would hold
// about 170 MB.
const memoSize = 4

// solved is a built chain with its Solve vectors. It is shared by every
// run of its n and never written after publication.
type solved struct {
	chain       *Chain
	times, wins []float64
}

// memoEntry is one n's slot. ready is closed when the build ends; s is
// set before that when the build succeeded and stays nil when it panicked.
type memoEntry struct {
	n     int
	ready chan struct{}
	s     *solved
}

var memo struct {
	mu      sync.Mutex
	entries []*memoEntry // most recently used first
}

// memoBuilds counts chain builds, so tests can check that concurrent runs
// of one n share a single build.
var memoBuilds atomic.Int64

// solvedChain returns the shared solved chain for n, building it at most
// once per residency even when several goroutines ask at the same time.
// The memo lock is held only for the lookup. A build that panics is not
// cached: its panic reaches the caller, and goroutines that were waiting
// on it retry.
func solvedChain(n int) *solved {
	for {
		e, owner := lookup(n)
		if owner {
			return e.build()
		}
		<-e.ready
		if e.s != nil {
			return e.s
		}
	}
}

// lookup returns n's entry, moved to the front, and whether the caller
// created it and so must build it. A new entry evicts the least recently
// used one beyond memoSize; goroutines already holding the evicted entry
// still get its result.
func lookup(n int) (e *memoEntry, owner bool) {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	for i, x := range memo.entries {
		if x.n == n {
			copy(memo.entries[1:i+1], memo.entries[:i])
			memo.entries[0] = x
			return x, false
		}
	}
	e = &memoEntry{n: n, ready: make(chan struct{})}
	if len(memo.entries) < memoSize {
		memo.entries = append(memo.entries, nil)
	}
	copy(memo.entries[1:], memo.entries)
	memo.entries[0] = e
	return e, true
}

// build builds and solves e's chain and publishes it by closing e.ready.
// If the build panics, e is dropped from the memo before waiters wake.
func (e *memoEntry) build() *solved {
	defer func() {
		if e.s == nil {
			forget(e)
		}
		close(e.ready)
	}()
	memoBuilds.Add(1)
	c := NewChain(e.n)
	times, wins := c.Solve()
	e.s = &solved{chain: c, times: times, wins: wins}
	return e.s
}

// forget removes e from the memo if it is still resident.
func forget(e *memoEntry) {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	for i, x := range memo.entries {
		if x == e {
			memo.entries = append(memo.entries[:i], memo.entries[i+1:]...)
			return
		}
	}
}
