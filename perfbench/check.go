package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"

	"repro/engine"
	"repro/service"
	"repro/service/store"
)

// storeProbeRuns bounds the runs kept from the reopened store to feed the
// store append probe.
const storeProbeRuns = 1000

// tally counts one correctness check over the outcomes it applies to.
type tally struct {
	name            string
	checked, failed int
}

// verdict is the result of the correctness gate.
type verdict struct {
	tallies           []*tally
	attempted, failed int
	// Reopened-store facts, for the store probe.
	storeRuns    []store.Run
	storeRecords int
	storeBytes   int64
	// storeNoID counts stored runs without a job id.
	storeNoID int
}

func (v *verdict) tally(name string) *tally {
	t := &tally{name: name}
	v.tallies = append(v.tallies, t)
	return t
}

// fail marks o failed for check t; the first failure message is kept.
func fail(t *tally, o *outcome, format string, args ...any) {
	t.failed++
	if o.fail == "" {
		o.fail = t.name + ": " + fmt.Sprintf(format, args...)
	}
}

// spec returns the spec outcome o sent.
func (b *bench) spec(o *outcome) engine.Spec {
	if b.workload == sweep {
		return b.g.batch(o.idx)[o.cell]
	}
	return b.g.tiny(o.idx)
}

// check is the correctness gate, run after the service stopped:
//   - every request succeeded and its job reached done;
//   - each spec_hash equals the submitted spec's canonical hash;
//   - records + truncated = rounds + 1 for every run;
//   - serve-repeat results, cache hits included, are byte-identical
//     (timing aside) to the first run of the spec, and the other
//     workloads see no cache hit at all;
//   - rounds, reason, winner, winner_count and seed equal a direct
//     engine.Execute of the spec: every sweep cell, and every spec whose
//     index is a multiple of 61 on serve-*;
//   - reopening the store finds every run acknowledged done.
//
// A failed check marks its outcome failed.
func (b *bench) check(outs []*outcome) (*verdict, error) {
	v := &verdict{attempted: len(outs)}
	req := v.tally("request")
	hashT := v.tally("spec_hash")
	streamT := v.tally("records_eq_rounds_plus_1")
	cacheT := v.tally("cache_hit_identical")
	replayT := v.tally("engine_replay")
	lostT := v.tally("store_lost_runs")

	type key struct{ idx, cell int }
	hashes := map[key]string{}
	replays := map[key][]*outcome{}
	for _, o := range outs {
		req.checked++
		if o.fail != "" {
			req.failed++
			continue
		}
		k := key{o.idx, o.cell}
		want, ok := hashes[k]
		if !ok {
			h, err := b.spec(o).Hash()
			if err != nil {
				return nil, fmt.Errorf("hashing spec %v: %w", k, err)
			}
			want, hashes[k] = h, h
		}
		res := o.job.result
		hashT.checked++
		if o.job.hash != want {
			fail(hashT, o, "got %s, want %s", o.job.hash, want)
		}
		streamT.checked++
		if res == nil || o.records+o.job.truncated != res.Rounds+1 {
			fail(streamT, o, "%d records + %d truncated for a result of %+v", o.records, o.job.truncated, res)
		}
		if b.workload == serveRepeat {
			cacheT.checked++
			got, err := stripTiming(res)
			if err != nil || !bytes.Equal(got, b.ref[o.idx]) {
				fail(cacheT, o, "result %s differs from the first run %s", got, b.ref[o.idx])
			}
		} else if o.job.cacheHit {
			cacheT.checked++
			fail(cacheT, o, "unexpected cache hit: inputs are never repeated on %s", b.workload)
		}
		if b.workload == sweep || o.idx%61 == 0 {
			replays[k] = append(replays[k], o)
		}
	}

	type job struct {
		k    key
		outs []*outcome
	}
	jobs := make(chan job)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				want, err := engine.Execute(b.spec(j.outs[0]), nil, nil)
				mu.Lock()
				for _, o := range j.outs {
					replayT.checked++
					switch got := o.job.result; {
					case err != nil:
						fail(replayT, o, "direct engine.Execute failed: %v", err)
					case got == nil || got.Rounds != want.Rounds || got.Reason != want.Reason ||
						got.Winner != want.Winner || got.WinnerCount != want.WinnerCount || got.Seed != want.Seed:
						fail(replayT, o, "served %+v, direct engine.Execute %+v", got, want)
					}
				}
				mu.Unlock()
			}
		}()
	}
	for k, group := range replays {
		jobs <- job{k, group}
	}
	close(jobs)
	wg.Wait()

	stored := map[string]bool{}
	l, err := store.Open(b.storePath)
	if err != nil {
		return nil, fmt.Errorf("reopening the store: %w", err)
	}
	err = l.Load(func(r store.Run) error {
		stored[r.SpecHash] = true
		if r.ID == "" {
			v.storeNoID++
		}
		if len(v.storeRuns) < storeProbeRuns {
			v.storeRuns = append(v.storeRuns, r)
		}
		return nil
	})
	v.storeRecords = len(stored)
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("loading the reopened store: %w", err)
	}
	if fi, err := os.Stat(b.storePath); err == nil {
		v.storeBytes = fi.Size()
	}
	for _, o := range outs {
		if o.job != nil && o.job.status == service.StatusDone && o.fail == "" {
			lostT.checked++
			if !stored[o.job.hash] {
				fail(lostT, o, "run %s acknowledged done is missing from the reopened store", o.job.id)
			}
		}
	}
	for _, o := range outs {
		if o.fail != "" {
			v.failed++
		}
	}
	return v, nil
}
