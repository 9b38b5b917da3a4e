package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/engine"
	"repro/service"
	"repro/service/store"
)

// metricDef is a metric's name, unit and direction as BENCHMARK.json
// declares them. README.md lists which end-to-end metric each per-layer
// metric should move, and on which workload.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the service sees, measured untraced.
// failed_ratio is reported beside them but is not among them: it is 0 on a
// correct run, and the JSON's attempted and failed carry it.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_rps", "runs/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"cpu_ms_per_run", "ms", "lower"},
	{"alloc_kb_per_run", "KiB", "lower"},
	{"max_rss_mb", "MiB", "lower"},
}

// engineKinds are the engine families the engine probe replays.
var engineKinds = []string{service.KindMedian, service.KindGossip, service.KindMultidim, service.KindRobust, service.KindExact}

// perLayer are the traced run's metrics, timed from outside each layer's
// public functions.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"http.submit_p50_us", "us", "lower"},
		{"http.follow_p50_us", "us", "lower"},
		{"http.self_p50_us", "us", "lower"},
		{"http.requests_per_run", "count", "lower"},
		{"http.resp_bytes_per_run", "bytes", "lower"},
		{"http.refused", "count", "lower"},
		{"spec.decode_us", "us", "lower"},
		{"spec.normalize_us", "us", "lower"},
		{"spec.validate_us", "us", "lower"},
		{"spec.hash_us", "us", "lower"},
		{"spec.materialized_us", "us", "lower"},
		{"service.submit_us", "us", "lower"},
		{"service.queue_wait_p50_ms", "ms", "lower"},
		{"service.run_p50_ms", "ms", "lower"},
		{"service.cache_hit_ratio", "ratio", "higher"},
		{"service.coalesced", "count", "higher"},
		{"service.workers_busy_frac", "ratio", "higher"},
		{"batch.expand_us", "us", "lower"},
		{"batch.cells_per_batch", "count", "higher"},
	}
	for _, k := range engineKinds {
		defs = append(defs,
			metricDef{"engine." + k + ".init_ms", "ms", "lower"},
			metricDef{"engine." + k + ".rounds_ms", "ms", "lower"},
			metricDef{"engine." + k + ".rounds_per_run", "count", "lower"},
			metricDef{"engine." + k + ".us_per_round", "us", "lower"})
	}
	return append(defs,
		metricDef{"engine.records_per_run", "count", "lower"},
		metricDef{"store.append_p50_us", "us", "lower"},
		metricDef{"store.append_p99_us", "us", "lower"},
		metricDef{"store.frame_bytes_p50", "bytes", "lower"},
		metricDef{"store.bytes_per_run", "bytes", "lower"},
		metricDef{"store.open_load_ms", "ms", "lower"},
		metricDef{"store.records_loaded", "count", "higher"},
		metricDef{"runtime.gc_cycles_per_1k_runs", "count", "lower"},
	)
}()

// metric is one measured value with its sample count and a note printed
// beside it.
type metric struct {
	value float64
	n     int
	note  string
}

// p50 returns the median and sample count of xs.
func p50(xs []float64) metric { return metric{value: median(xs), n: len(xs)} }

// spansByName groups spans by name.
func spansByName(spans []span) map[string][]span {
	m := map[string][]span{}
	for _, s := range spans {
		m[s.Name] = append(m[s.Name], s)
	}
	return m
}

func durations(spans []span, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = unit(s.dur())
	}
	return out
}

// windowLayers computes the http, service and runtime metrics of the
// traced window tw; the GC count comes from the untraced window w.
func (b *bench) windowLayers(w, tw *window, okRuns, okTraced int, into map[string]metric) {
	spans := tw.spans()
	byName := spansByName(spans)
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Name == "service.queue" || s.Name == "engine.run" {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var self []float64
	for _, s := range spans {
		if s.Name == "client.run" || s.Name == "client.batch" {
			self = append(self, us(selfTime(s, children[s.ID])))
		}
	}
	var requests, refused int
	var respBytes int64
	for _, lg := range tw.logs {
		requests += lg.requests
		refused += lg.refused
		respBytes += lg.bytes
	}
	perRun := func(x float64) metric { return metric{value: x / float64(max(okTraced, 1)), n: okTraced} }
	into["http.submit_p50_us"] = p50(durations(byName["http.submit"], us))
	into["http.follow_p50_us"] = p50(durations(byName["http.follow"], us))
	into["http.self_p50_us"] = metric{value: median(self), n: len(self), note: "request span minus the server's created→finished"}
	into["http.requests_per_run"] = perRun(float64(requests))
	into["http.resp_bytes_per_run"] = perRun(float64(respBytes))
	into["http.refused"] = metric{value: float64(refused), n: requests, note: "429 and 503 answers"}

	into["service.queue_wait_p50_ms"] = p50(durations(byName["service.queue"], ms))
	into["service.run_p50_ms"] = p50(durations(byName["engine.run"], ms))
	hits := tw.m1.CacheHits - tw.m0.CacheHits
	misses := tw.m1.CacheMisses - tw.m0.CacheMisses
	into["service.cache_hit_ratio"] = metric{value: float64(hits) / float64(max(hits+misses, 1)), n: int(hits + misses),
		note: fmt.Sprintf("%d hits / %d lookups", hits, hits+misses)}
	into["service.coalesced"] = metric{value: float64(tw.m1.JobsCoalesced - tw.m0.JobsCoalesced +
		tw.m1.BatchCellsCoalesced - tw.m0.BatchCellsCoalesced), n: int(hits + misses)}
	var busy time.Duration
	for _, s := range byName["engine.run"] {
		busy += selfTime(s, nil)
	}
	capacity := time.Duration(tw.m1.Workers) * tw.end.Sub(tw.start)
	into["service.workers_busy_frac"] = metric{value: float64(busy) / float64(max(capacity, 1)), n: len(byName["engine.run"]),
		note: fmt.Sprintf("engine.run time / (%d workers × window)", tw.m1.Workers)}
	into["runtime.gc_cycles_per_1k_runs"] = metric{value: float64(w.gcs) * 1000 / float64(max(okRuns, 1)), n: okRuns,
		note: fmt.Sprintf("%d GC cycles, untraced window", w.gcs)}
}

// probeSpecs returns up to perKind specs of each engine kind: the traced
// window's own specs where its traffic has the kind, else probe specs,
// whose kinds it also returns.
func (b *bench) probeSpecs(tw *window, perKind int) (specs map[string][]engine.Spec, probed map[string]bool) {
	specs, probed = map[string][]engine.Spec{}, map[string]bool{}
	for _, o := range tw.outcomes() {
		s := b.spec(o)
		if len(specs[s.Kind]) < perKind {
			specs[s.Kind] = append(specs[s.Kind], s)
		}
	}
	for _, k := range engineKinds {
		if len(specs[k]) == 0 {
			probed[k] = true
			for i := 0; i < perKind; i++ {
				specs[k] = append(specs[k], b.g.probe(k, i))
			}
		}
	}
	return specs, probed
}

// nextSpecs returns the workload's next k request specs beyond what the
// windows sent: fresh specs on serve-small, the continued Zipf stream on
// serve-repeat, whole fresh batches on sweep.
func (b *bench) nextSpecs(k int) []engine.Spec {
	var out []engine.Spec
	for len(out) < k {
		switch b.workload {
		case serveSmall:
			out = append(out, b.g.tiny(int(b.next.Add(1)-1)))
		case serveRepeat:
			out = append(out, b.g.tiny(b.zipfs[0]()))
		case sweep:
			out = append(out, b.g.batch(int(b.next.Add(1)-1))...)
		}
	}
	return out
}

// decodeSpec round-trips a spec through its wire form, as the HTTP handler
// receives it.
func decodeSpec(s engine.Spec) (engine.Spec, error) {
	body, err := json.Marshal(s)
	if err != nil {
		return engine.Spec{}, err
	}
	var out engine.Spec
	err = json.Unmarshal(body, &out)
	return out, err
}

// liveProbes times the spec, service, batch and engine layers directly,
// on the running service after the traced window.
func (b *bench) liveProbes(tw *window, into map[string]metric) error {
	// spec: the codec steps on the traced window's specs, in order.
	var bodies [][]byte
	for _, o := range tw.outcomes() {
		if len(bodies) == 2000 {
			break
		}
		body, err := json.Marshal(b.spec(o))
		if err != nil {
			return err
		}
		bodies = append(bodies, body)
	}
	var dec, norm, val, hash, mat []float64
	for _, body := range bodies {
		t0 := time.Now()
		var s engine.Spec
		err := json.Unmarshal(body, &s)
		t1 := time.Now()
		n := s.Normalize()
		t2 := time.Now()
		if err == nil {
			err = n.Validate()
		}
		t3 := time.Now()
		if err == nil {
			_, err = n.Hash()
		}
		t4 := time.Now()
		n.MaterializedSize()
		t5 := time.Now()
		if err != nil {
			return fmt.Errorf("spec probe: %w", err)
		}
		dec = append(dec, us(t1.Sub(t0)))
		norm = append(norm, us(t2.Sub(t1)))
		val = append(val, us(t3.Sub(t2)))
		hash = append(hash, us(t4.Sub(t3)))
		mat = append(mat, us(t5.Sub(t4)))
	}
	into["spec.decode_us"], into["spec.normalize_us"], into["spec.validate_us"] = p50(dec), p50(norm), p50(val)
	into["spec.hash_us"], into["spec.materialized_us"] = p50(hash), p50(mat)

	svc := b.srv.svc
	// service: Submit alone, on the workload's next requests, one at a
	// time; the wait for each job is not timed.
	k := 200
	if b.workload == sweep {
		k = 2 * batchCells
	}
	var submit []float64
	for _, s := range b.nextSpecs(k) {
		s, err := decodeSpec(s)
		if err != nil {
			return err
		}
		t0 := time.Now()
		v, err := svc.Submit(s)
		submit = append(submit, us(time.Since(t0)))
		if err == nil {
			_, err = waitTerminal(svc, v.ID)
		}
		if err != nil {
			return fmt.Errorf("submit probe: %w", err)
		}
	}
	into["service.submit_us"] = p50(submit)

	// batch: ExpandBatch on explicit spec lists: the sweep's own batches,
	// or four consecutive requests of a serve workload.
	size, reps := 4, 200
	if b.workload == sweep {
		size, reps = batchCells, 20
	}
	var expand []float64
	var cells int
	for r := 0; r < reps; r++ {
		body, err := json.Marshal(service.BatchRequest{Specs: b.nextSpecs(size)[:size]})
		if err != nil {
			return err
		}
		var req service.BatchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		t0 := time.Now()
		got, err := svc.ExpandBatch(req)
		expand = append(expand, us(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("batch probe: %w", err)
		}
		cells += len(got)
	}
	into["batch.expand_us"] = p50(expand)
	into["batch.cells_per_batch"] = metric{value: float64(cells) / float64(reps), n: reps}

	// engine: direct engine.Execute, init timed up to the first Observe.
	perKind := 64
	if b.workload == sweep {
		perKind = 4
	}
	var records, runs int
	byKind, probed := b.probeSpecs(tw, perKind)
	for kind, specs := range byKind {
		var initT, roundsT, perRound, rounds []float64
		for _, s := range specs {
			var first time.Time
			n := 0
			t0 := time.Now()
			res, err := engine.Execute(s, func(engine.Record) {
				if n == 0 {
					first = time.Now()
				}
				n++
			}, nil)
			end := time.Now()
			if err != nil {
				return fmt.Errorf("engine probe %s: %w", kind, err)
			}
			records += n
			runs++
			initT = append(initT, ms(first.Sub(t0)))
			roundsT = append(roundsT, ms(end.Sub(first)))
			rounds = append(rounds, float64(res.Rounds))
			perRound = append(perRound, us(end.Sub(first))/float64(max(res.Rounds, 1)))
		}
		note := ""
		if probed[kind] {
			note = "kind absent from the traffic: probe spec at n = 64"
		}
		var sum float64
		for _, r := range rounds {
			sum += r
		}
		into["engine."+kind+".init_ms"] = metric{value: median(initT), n: len(initT), note: note}
		into["engine."+kind+".rounds_ms"] = metric{value: median(roundsT), n: len(roundsT), note: note}
		into["engine."+kind+".rounds_per_run"] = metric{value: sum / float64(len(rounds)), n: len(rounds), note: note}
		into["engine."+kind+".us_per_round"] = metric{value: median(perRound), n: len(perRound), note: note}
	}
	into["engine.records_per_run"] = metric{value: float64(records) / float64(max(runs, 1)), n: runs}
	return nil
}

// storeProbes times store.Log directly on scratch logs in the run
// directory: Append fed the runs the service stored, and open plus Load of
// the store as set-up found it.
func (b *bench) storeProbes(v *verdict, into map[string]metric) error {
	l, err := store.OpenWithPolicy(filepath.Join(b.dir, "append-probe.store"), store.Policy{})
	if err != nil {
		return err
	}
	var appendT, frames []float64
	for _, r := range v.storeRuns {
		before := l.Stats().Bytes
		t0 := time.Now()
		err := l.Append(r)
		appendT = append(appendT, us(time.Since(t0)))
		if err != nil {
			l.Close()
			return fmt.Errorf("store append probe: %w", err)
		}
		frames = append(frames, float64(l.Stats().Bytes-before))
	}
	if err := l.Close(); err != nil {
		return err
	}
	sort.Float64s(appendT)
	p99, beyond := percentile(appendT, 99)
	into["store.append_p50_us"] = p50(appendT)
	into["store.append_p99_us"] = metric{value: p99, n: len(appendT), note: fmt.Sprintf("%d samples beyond", beyond)}
	into["store.frame_bytes_p50"] = p50(frames)
	into["store.bytes_per_run"] = metric{value: float64(v.storeBytes) / float64(max(v.storeRecords, 1)), n: v.storeRecords,
		note: "reopened workload store: file bytes / records"}

	var openT []float64
	loaded := 0
	for r := 0; r < 3; r++ {
		path := filepath.Join(b.dir, fmt.Sprintf("open-probe-%d.store", r))
		if b.pristine != "" {
			if err := copyFile(b.pristine, path); err != nil {
				return err
			}
		}
		t0 := time.Now()
		l, err := store.OpenWithPolicy(path, store.Policy{})
		if err != nil {
			return err
		}
		loaded = 0
		err = l.Load(func(store.Run) error { loaded++; return nil })
		openT = append(openT, ms(time.Since(t0)))
		if cerr := l.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("store open probe: %w", err)
		}
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	into["store.open_load_ms"] = metric{value: median(openT), n: len(openT), note: "the store as set-up found it"}
	into["store.records_loaded"] = metric{value: float64(loaded), n: len(openT)}
	return nil
}
