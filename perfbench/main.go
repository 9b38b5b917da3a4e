// Command perfbench is the repository's end-to-end benchmark. It starts the
// simulation service in-process (service.New with a file store in a fresh
// directory, its Handler on a loopback listener), drives one workload
// closed loop for a fixed window, checks every output and prints the
// end-to-end metrics. With --trace 1 it adds a traced window and direct
// probes of each layer's public functions, and prints the per-layer
// metrics instead.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload serve-small --seed 1 --seconds 10 --trace 0
//
// The report goes to standard output; its last line is one JSON object
// with the keys correct, attempted, failed and metrics. The exit code is 1
// when a check failed or the run could not complete, 2 on bad arguments.
package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// buildDir is where run.sh builds and where every run keeps its files,
// relative to the repository root.
const buildDir = ".bench_build"

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: serve-small, serve-repeat or sweep")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 adds the traced window and layer probes and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	clients, slices := 0, 0
	for _, w := range workloads {
		if w.name == *name {
			clients, slices = w.clients, w.slices
		}
	}
	if clients == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload serve-small|serve-repeat|sweep, --seconds >= 1 and --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := newBench(*name, clients, slices, *seed, dir)
	var report bytes.Buffer
	res, err := b.run(&report, time.Duration(*seconds)*time.Second, *trace == 1, *seed)
	_, _ = stdout.Write(report.Bytes())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding the result:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the report.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// historyBound is the service's default job-history bound
// (service.Options.MaxJobs). Once the history holds that many jobs, every
// submit also evicts, so the warm-up runs until it is full.
const historyBound = 4096

// warmup drives the workload unmeasured, in one-second windows, until the
// service's job history is full or maxWarmup has passed, so that the
// measured window sees the service in its steady state.
func (b *bench) warmup() []*outcome {
	const maxWarmup = 5 * time.Second
	var outs []*outcome
	for start := time.Now(); time.Since(start) < maxWarmup; {
		outs = append(outs, b.runWindow(time.Second, false).outcomes()...)
		if b.srv.svc.Metrics().JobsSubmitted >= historyBound {
			break
		}
	}
	return outs
}

// run performs the whole benchmark run and writes the report to out.
func (b *bench) run(out io.Writer, d time.Duration, traced bool, seed uint64) (*result, error) {
	fmt.Fprintf(out, "perfbench %s seed %d: %d client(s) closed loop, %v window, trace %v\n", b.workload, seed, b.clients, d, traced)
	fmt.Fprintln(out, hostBlock(b.dir))
	b.storePath = filepath.Join(b.dir, "runs.store")
	if b.workload == serveRepeat {
		if err := b.prepopulate(); err != nil {
			return nil, err
		}
	}
	setupTimes, err := b.setup()
	if err != nil {
		return nil, err
	}
	outs := b.warmup()
	w := b.runWindow(d, false)
	var tw *window
	layers := map[string]metric{}
	var probeErr error
	if traced {
		tw = b.runWindow(d, true)
		probeErr = b.liveProbes(tw, layers)
	}
	if err := b.srv.stop(); err != nil {
		return nil, fmt.Errorf("stopping the service: %w", err)
	}
	b.hc.CloseIdleConnections()
	if probeErr != nil {
		return nil, probeErr
	}
	outs = append(outs, w.outcomes()...)
	if tw != nil {
		outs = append(outs, tw.outcomes()...)
	}
	v, err := b.check(outs)
	if err != nil {
		return nil, err
	}

	e2e := endToEndMetrics(w, setupTimes)
	fmt.Fprintf(out, "\nend-to-end (untraced window of %.2fs)\n", w.end.Sub(w.start).Seconds())
	printMetrics(out, endToEnd, e2e)
	printMetric(out, "failed_ratio", "ratio", e2e["failed_ratio"])
	fmt.Fprintf(out, "\nchecks over %d outcomes (warm-up and every window)\n", v.attempted)
	for _, t := range v.tallies {
		fmt.Fprintf(out, "  %-26s %7d checked %5d failed\n", t.name, t.checked, t.failed)
	}
	if v.storeNoID > 0 {
		fmt.Fprintf(out, "  WARNING %d stored runs carry no job id: the worker persisted them before Service.submit assigned the id\n", v.storeNoID)
	}
	shown := 0
	for _, o := range outs {
		if o.fail != "" && shown < 5 {
			fmt.Fprintf(out, "  FAIL %s: %s\n", o.req, o.fail)
			shown++
		}
	}
	res := &result{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: map[string]jsonMetric{}}
	defs, values := endToEnd, e2e
	if traced {
		te := endToEndMetrics(tw, setupTimes)
		fmt.Fprintf(out, "\ntracing overhead (traced window against the untraced one):\n")
		for _, n := range []string{"throughput_rps", "latency_p50_ms", "cpu_ms_per_run"} {
			fmt.Fprintf(out, "  %-16s untraced %.6g, traced %.6g (%+.1f%%)\n", n, e2e[n].value, te[n].value,
				100*(te[n].value/e2e[n].value-1))
		}
		b.windowLayers(w, tw, int(e2e["throughput_rps"].n), int(te["throughput_rps"].n), layers)
		if err := b.storeProbes(v, layers); err != nil {
			return nil, err
		}
		spans := tw.spans()
		path := filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.ndjson.gz", b.workload, seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "\nspans (traced window): %d written to %s\n", len(spans), path)
		printSelfTimes(out, spans)
		fmt.Fprintf(out, "\nper-layer (traced window and direct layer probes)\n")
		printMetrics(out, perLayer, layers)
		defs, values = perLayer, layers
	}
	for _, d := range defs {
		m, ok := values[d.name]
		if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = jsonMetric{Value: m.value, Unit: d.unit}
	}
	return res, nil
}

// endToEndMetrics computes the end-to-end metrics of window w: each is
// taken per slice and the median over the slices is reported. Only runs
// that reached done and passed every check count as completed. A run
// belongs to the slice it completed in; the runs completing after the
// window's end belong to the last slice, which is longer by as much.
func endToEndMetrics(w *window, setupTimes []float64) map[string]metric {
	n := len(w.peakRSS)
	lat := make([][]float64, n)
	var all []float64
	outs := w.outcomes()
	for _, o := range outs {
		if o.fail != "" {
			continue
		}
		k := min(int(o.end.Sub(w.start)/w.sliceLen), n-1)
		l := ms(o.end.Sub(o.start))
		lat[k] = append(lat[k], l)
		all = append(all, l)
	}
	ok := len(all)
	// The tail percentile is the highest with 10 samples beyond it in
	// every slice.
	minCount := ok
	for _, xs := range lat {
		sort.Float64s(xs)
		minCount = min(minCount, len(xs))
	}
	tailP, beyond := tailPercentile(minCount)
	var thr, p50s, tails, cpu, rss []float64
	for k, xs := range lat {
		d := w.sliceLen
		if k == n-1 {
			d = w.end.Sub(w.start) - time.Duration(n-1)*w.sliceLen
		}
		runs := float64(max(len(xs), 1))
		t, _ := percentile(xs, tailP)
		thr = append(thr, float64(len(xs))/d.Seconds())
		p50s = append(p50s, median(append([]float64(nil), xs...)))
		tails = append(tails, t)
		cpu = append(cpu, ms(w.cpuMarks[k+1]-w.cpuMarks[k])/runs)
		rss = append(rss, float64(w.peakRSS[k])/(1<<20))
	}
	sliced := fmt.Sprintf("median of %d × %v slices", n, w.sliceLen)
	elapsed := w.end.Sub(w.start)
	return map[string]metric{
		"setup_s": {value: median(append([]float64(nil), setupTimes...)), n: len(setupTimes),
			note: "median of the set-ups"},
		"throughput_rps": {value: median(thr), n: ok,
			note: fmt.Sprintf("%s; whole window %.6g", sliced, float64(ok)/elapsed.Seconds())},
		"latency_p50_ms": {value: median(p50s), n: ok,
			note: fmt.Sprintf("%s; whole window %.6g", sliced, median(all))},
		"latency_tail_ms": {value: median(tails), n: ok,
			note: fmt.Sprintf("p%.0f, %s, >= %d samples beyond in each", tailP, sliced, beyond)},
		"failed_ratio": {value: float64(len(outs)-ok) / float64(max(len(outs), 1)), n: len(outs),
			note: fmt.Sprintf("%d failed / %d attempted", len(outs)-ok, len(outs))},
		"cpu_ms_per_run": {value: median(cpu), n: ok, note: "process user+sys; " + sliced},
		"alloc_kb_per_run": {value: float64(w.alloc) / 1024 / float64(max(ok, 1)), n: ok,
			note: "runtime.MemStats.TotalAlloc delta over the window"},
		"max_rss_mb": {value: median(rss), n: n, note: "peak resident set per slice, sampled every 10ms; " + sliced},
	}
}

func printMetrics(out io.Writer, defs []metricDef, values map[string]metric) {
	for _, d := range defs {
		printMetric(out, d.name, d.unit, values[d.name])
	}
}

func printMetric(out io.Writer, name, unit string, m metric) {
	fmt.Fprintf(out, "  %-32s %14.6g %-7s n=%-7d %s\n", name, m.value, unit, m.n, m.note)
}

// printSelfTimes prints, per span name, the median duration and the median
// self time: the duration minus what the span's children cover.
func printSelfTimes(out io.Writer, spans []span) {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := spansByName(spans)
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "  %-16s %8s %14s %14s\n", "span", "count", "p50 dur (us)", "p50 self (us)")
	for _, n := range names {
		var self []float64
		for _, s := range byName[n] {
			self = append(self, us(selfTime(s, children[s.ID])))
		}
		fmt.Fprintf(out, "  %-16s %8d %14.1f %14.1f\n", n, len(byName[n]),
			median(durations(byName[n], us)), median(self))
	}
}

// writeSpans writes the spans as gzipped NDJSON, one span per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostBlock describes the machine the numbers were measured on.
func hostBlock(dir string) string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("host: cpu %q, nproc %d, GOMAXPROCS %d, %s, temp-dir filesystem %s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(dir))
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
