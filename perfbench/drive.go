package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/service"
)

// bench is one run of one workload against an in-process service.
type bench struct {
	workload string
	clients  int
	slices   int
	dir      string
	g        *gen

	// next is the next fresh input index: a spec on serve-small, a batch
	// on sweep.
	next atomic.Int64
	// zipfs are serve-repeat's per-client working-set index streams.
	zipfs []func() int
	reqN  atomic.Int64

	hc        *http.Client
	srv       *server
	storePath string
	// pristine is a copy of the store as set-up found it (serve-repeat),
	// for the store open/load probe.
	pristine string
	// ref holds serve-repeat's reference results: the first run of each
	// working-set spec, timing stripped.
	ref [][]byte
	// origin is the zero of every span timestamp.
	origin time.Time
}

func newBench(workload string, clients, slices int, seed uint64, dir string) *bench {
	b := &bench{workload: workload, clients: clients, slices: slices, dir: dir, g: newGen(seed), origin: time.Now()}
	for c := 0; c < clients; c++ {
		b.zipfs = append(b.zipfs, b.g.zipf(c))
	}
	b.hc = &http.Client{
		// A request that hangs fails the run instead of stalling it.
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
	return b
}

// server is the service under test behind a loopback HTTP listener.
type server struct {
	svc  *service.Service
	http *http.Server
	url  string
	done chan error
}

// startServer opens the service on the store at path, serves its Handler on
// a loopback port and returns once /v1/healthz answers.
func startServer(path string, hc *http.Client) (*server, error) {
	svc, err := service.New(service.Options{StorePath: path})
	if err != nil {
		return nil, fmt.Errorf("service.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &server{
		svc:  svc,
		http: &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(s.url + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			_ = s.stop()
			return nil, fmt.Errorf("healthz did not answer: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the listener down, waits for the serve loop, then closes the
// service (which drains its workers and closes the store).
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.svc.Close()
	return err
}

// prepopulate runs serve-repeat's whole working set once into the store,
// keeping each result as the reference later cache hits must match.
func (b *bench) prepopulate() error {
	svc, err := service.New(service.Options{StorePath: b.storePath})
	if err != nil {
		return fmt.Errorf("service.New: %w", err)
	}
	b.ref = make([][]byte, workingSet)
	var next atomic.Int64
	errs := make([]error, b.clients)
	var wg sync.WaitGroup
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < workingSet; i = int(next.Add(1) - 1) {
				v, err := svc.Submit(b.g.tiny(i))
				if err == nil {
					v, err = waitTerminal(svc, v.ID)
				}
				if err == nil && v.Status != service.StatusDone {
					err = fmt.Errorf("job %s: %s", v.Status, v.Error)
				}
				if err == nil {
					b.ref[i], err = stripTiming(v.Result)
				}
				if err != nil {
					errs[c] = fmt.Errorf("prepopulate spec %d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	svc.Close()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	b.pristine = filepath.Join(b.dir, "pristine.store")
	return copyFile(b.storePath, b.pristine)
}

// waitTerminal blocks until the job reaches a terminal state and returns
// its final view.
func waitTerminal(svc *service.Service, id string) (service.JobView, error) {
	for {
		_, terminal, notify, err := svc.Records(id, math.MaxInt)
		if err != nil {
			return service.JobView{}, err
		}
		if terminal {
			return svc.Get(id)
		}
		<-notify
	}
}

// stripTiming encodes a result without its wall-clock timing, the part of
// a result that differs between two runs of one spec.
func stripTiming(r *service.RunResult) ([]byte, error) {
	if r == nil {
		return nil, errors.New("done job without result")
	}
	c := *r
	c.Timing = nil
	return json.Marshal(c)
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// Set-up repetitions: at least minSetups, then more until the set-ups
// took setupBudget in all, at most maxSetups. A set-up on a fresh store
// takes about a millisecond, so it gets many repetitions; a reload of
// serve-repeat's store takes over 0.1 s and gets minSetups.
const (
	minSetups   = 15
	maxSetups   = 101
	setupBudget = time.Second
)

// setup starts the service repeatedly and keeps the last one running. It
// returns each set-up time: service.New (store open and reload included)
// until /v1/healthz answers. serve-repeat reopens its pre-populated store
// every time; the other workloads start on a fresh store each time.
func (b *bench) setup() ([]float64, error) {
	var times []float64
	var total time.Duration
	for r := 0; ; r++ {
		path := b.storePath
		if b.workload != serveRepeat {
			d := filepath.Join(b.dir, fmt.Sprintf("setup-%d", r))
			if err := os.Mkdir(d, 0o755); err != nil {
				return nil, err
			}
			path = filepath.Join(d, "runs.store")
		}
		t0 := time.Now()
		srv, err := startServer(path, b.hc)
		if err != nil {
			return nil, err
		}
		d := time.Since(t0)
		times = append(times, d.Seconds())
		total += d
		if r+1 == maxSetups || (r+1 >= minSetups && total >= setupBudget) {
			b.srv, b.storePath = srv, path
			return times, nil
		}
		if err := srv.stop(); err != nil {
			return nil, err
		}
		b.hc.CloseIdleConnections()
	}
}

// outcome is one logical request: a run on serve-*, one cell on sweep.
type outcome struct {
	idx  int // spec index (serve-*) or batch index (sweep)
	cell int // cell within the batch (sweep)
	req  string
	root int64 // root span id (traced windows)

	start, end time.Time
	fail       string // transport, status or job failure; set by checks too
	job        *job
	// records is the number of round records the client saw: streamed
	// lines, or the job's stored count when no stream was followed.
	records int
}

// job is what a client keeps of a job's final state for the checks.
type job struct {
	id, hash  string
	status    service.Status
	cacheHit  bool
	truncated int
	result    *service.RunResult
}

// jobAnswer is the part of a service.JobView answer the client decodes. It
// leaves out the echoed spec, which the client sent itself: decoding it
// would spend CPU the service under test shares with the client.
type jobAnswer struct {
	ID        string             `json:"id"`
	SpecHash  string             `json:"spec_hash"`
	Status    service.Status     `json:"status"`
	CacheHit  bool               `json:"cache_hit"`
	Result    *service.RunResult `json:"result"`
	Error     string             `json:"error"`
	Records   int                `json:"records"`
	Truncated int                `json:"truncated"`
	Created   time.Time          `json:"created"`
	Started   *time.Time         `json:"started"`
	Finished  *time.Time         `json:"finished"`
}

// cellAnswer is, likewise, the part of a service.BatchCellRecord line the
// client decodes.
type cellAnswer struct {
	Index    int                `json:"index"`
	SpecHash string             `json:"spec_hash"`
	JobID    string             `json:"job_id"`
	Status   service.Status     `json:"status"`
	CacheHit bool               `json:"cache_hit"`
	Result   *service.RunResult `json:"result"`
	Error    string             `json:"error"`
}

func jobOf(v *jobAnswer) *job {
	return &job{id: v.ID, hash: v.SpecHash, status: v.Status, cacheHit: v.CacheHit,
		truncated: v.Truncated, result: v.Result}
}

// clientLog is what one client recorded in one window.
type clientLog struct {
	out      []outcome
	requests int
	bytes    int64
	refused  int
	tr       *tracer // nil in untraced windows
}

// window is one closed-loop measurement interval, cut into equal slices.
// The end-to-end metrics are medians over the slices, which keeps a burst
// of noise from a neighbour on the host to one slice.
type window struct {
	start, end time.Time
	logs       []*clientLog
	sliceLen   time.Duration
	// cpuMarks is the process CPU time at each slice boundary; the last
	// mark is taken when the last request of the window completed.
	cpuMarks []time.Duration
	// peakRSS is each slice's highest sampled resident set, in bytes.
	peakRSS []int64
	alloc   uint64
	gcs     uint32
	m0, m1  service.MetricsSnapshot
}

func (w *window) outcomes() []*outcome {
	var out []*outcome
	for _, lg := range w.logs {
		for i := range lg.out {
			out = append(out, &lg.out[i])
		}
	}
	return out
}

func (w *window) spans() []span {
	var out []span
	for _, lg := range w.logs {
		if lg.tr != nil {
			out = append(out, lg.tr.spans...)
		}
	}
	return out
}

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentBytes is the process's current resident set size.
func residentBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize())
}

// sample records, until stop closes, the process CPU at each slice
// boundary and the peak resident set within each slice.
func (w *window) sample(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	n := len(w.peakRSS)
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			for len(w.cpuMarks) <= n {
				w.cpuMarks = append(w.cpuMarks, processCPU())
			}
			return
		case now := <-t.C:
			k := int(now.Sub(w.start) / w.sliceLen)
			for len(w.cpuMarks) <= min(k, n-1) {
				w.cpuMarks = append(w.cpuMarks, processCPU())
			}
			if k < n {
				w.peakRSS[k] = max(w.peakRSS[k], residentBytes())
			}
		}
	}
}

// runWindow drives the workload closed loop for d: every client sends its
// next request as soon as the previous one completed, and starts none
// after d. Requests started before then run to completion and count.
func (b *bench) runWindow(d time.Duration, traced bool) *window {
	n := max(1, min(b.slices, int(d/time.Second)))
	w := &window{sliceLen: d / time.Duration(n), peakRSS: make([]int64, n)}
	for c := 0; c < b.clients; c++ {
		lg := &clientLog{}
		if traced {
			lg.tr = newTracer(b.origin, c)
		}
		w.logs = append(w.logs, lg)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	w.m0 = b.srv.svc.Metrics()
	w.cpuMarks = append(w.cpuMarks, processCPU())
	w.start = time.Now()
	deadline := w.start.Add(d)
	stop, sampled := make(chan struct{}), make(chan struct{})
	go w.sample(stop, sampled)
	var wg sync.WaitGroup
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				b.step(c, w.logs[c])
			}
		}()
	}
	wg.Wait()
	w.end = time.Now()
	close(stop)
	<-sampled
	w.m1 = b.srv.svc.Metrics()
	runtime.ReadMemStats(&ms1)
	w.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	w.gcs = ms1.NumGC - ms0.NumGC
	if traced && b.workload == sweep {
		b.addServerSpans(w)
	}
	return w
}

// step sends client c's next request.
func (b *bench) step(c int, lg *clientLog) {
	switch b.workload {
	case serveSmall:
		b.serveOne(lg, int(b.next.Add(1)-1))
	case serveRepeat:
		b.serveOne(lg, b.zipfs[c]())
	case sweep:
		b.batchOne(lg, int(b.next.Add(1)-1))
	}
}

func (b *bench) newReqID() string { return fmt.Sprintf("pb-%d", b.reqN.Add(1)) }

// call sends one request and reads the whole response. A status other
// than 2xx is returned as an error.
func (b *bench) call(lg *clientLog, parent int64, reqID, name, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, b.srv.url+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Request-Id", reqID)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := b.hc.Do(req)
	lg.requests++
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lg.tr.add(0, parent, reqID, name, t0, time.Now())
	lg.bytes += int64(len(data))
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		lg.refused++
	}
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading response: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// serveOne is one serve-* run: submit the spec, follow its stream to EOF
// and fetch the result; a cache hit has its result in the submit answer.
func (b *bench) serveOne(lg *clientLog, idx int) {
	o := outcome{idx: idx, req: b.newReqID(), root: lg.tr.id(), records: -1}
	body, err := json.Marshal(b.g.tiny(idx))
	o.start = time.Now()
	if err == nil {
		err = b.serveRun(lg, &o, body)
	}
	o.end = time.Now()
	if err != nil {
		o.fail = err.Error()
	}
	lg.tr.add(o.root, 0, o.req, "client.run", o.start, o.end)
	lg.out = append(lg.out, o)
}

func (b *bench) serveRun(lg *clientLog, o *outcome, body []byte) error {
	data, err := b.call(lg, o.root, o.req, "http.submit", http.MethodPost, "/v1/runs", body)
	if err != nil {
		return err
	}
	var v jobAnswer
	if err := json.Unmarshal(data, &v); err != nil {
		return fmt.Errorf("decoding submit answer: %w", err)
	}
	if v.CacheHit {
		o.records = v.Records
	} else {
		data, err = b.call(lg, o.root, o.req, "http.follow", http.MethodGet, "/v1/runs/"+v.ID+"/stream", nil)
		if err != nil {
			return err
		}
		o.records = bytes.Count(data, []byte{'\n'})
		if data, err = b.call(lg, o.root, o.req, "http.get", http.MethodGet, "/v1/runs/"+v.ID, nil); err != nil {
			return err
		}
		v = jobAnswer{}
		if err := json.Unmarshal(data, &v); err != nil {
			return fmt.Errorf("decoding job: %w", err)
		}
	}
	o.job = jobOf(&v)
	if lg.tr != nil && !v.CacheHit && v.Started != nil && v.Finished != nil {
		lg.tr.add(0, o.root, o.req, "service.queue", v.Created, *v.Started)
		lg.tr.add(0, o.root, o.req, "engine.run", *v.Started, *v.Finished)
	}
	if v.Status != service.StatusDone {
		return fmt.Errorf("job %s %s: %s", v.ID, v.Status, v.Error)
	}
	return nil
}

// batchOne is one sweep batch: POST the explicit cell list and read the
// NDJSON cell records as they arrive.
func (b *bench) batchOne(lg *clientLog, bi int) {
	req, root := b.newReqID(), lg.tr.id()
	outs := make([]outcome, batchCells)
	body, err := json.Marshal(service.BatchRequest{Specs: b.g.batch(bi)})
	start := time.Now()
	for i := range outs {
		outs[i] = outcome{idx: bi, cell: i, req: req, root: root, start: start, records: -1}
	}
	if err == nil {
		err = b.streamBatch(lg, root, req, body, outs)
	}
	end := time.Now()
	for i := range outs {
		o := &outs[i]
		if o.end.IsZero() {
			o.end = end
			if err != nil {
				o.fail = err.Error()
			} else {
				o.fail = "batch stream ended without this cell"
			}
		}
	}
	lg.tr.add(root, 0, req, "client.batch", start, end)
	lg.out = append(lg.out, outs...)
}

func (b *bench) streamBatch(lg *clientLog, root int64, reqID string, body []byte, outs []outcome) error {
	req, err := http.NewRequest(http.MethodPost, b.srv.url+"/v1/batches", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("X-Request-Id", reqID)
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := b.hc.Do(req)
	lg.requests++
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	t1 := time.Now()
	lg.tr.add(0, root, reqID, "http.submit", t0, t1)
	cr := &countingReader{r: resp.Body}
	defer func() { lg.bytes += cr.n }()
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			lg.refused++
		}
		data, _ := io.ReadAll(cr)
		return fmt.Errorf("POST /v1/batches: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	dec := json.NewDecoder(cr)
	for {
		var rec cellAnswer
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("decoding batch stream: %w", err)
		}
		if rec.Index < 0 || rec.Index >= len(outs) {
			return fmt.Errorf("batch stream: cell index %d out of range", rec.Index)
		}
		o := &outs[rec.Index]
		o.end = time.Now()
		o.job = &job{id: rec.JobID, hash: rec.SpecHash, status: rec.Status, cacheHit: rec.CacheHit, result: rec.Result}
		if rec.Result != nil && rec.Result.Timing != nil {
			o.records = rec.Result.Timing.RecordsEmitted
			o.job.truncated = rec.Result.Timing.RecordsTruncated
		}
		if rec.Status != service.StatusDone {
			o.fail = fmt.Sprintf("cell %d %s: %s", rec.Index, rec.Status, rec.Error)
		}
	}
	lg.tr.add(0, root, reqID, "http.follow", t1, time.Now())
	return nil
}

// addServerSpans adds each sweep cell's server-side spans, read from the
// job's timestamps after the window: the batch stream carries results
// but not the timestamps.
func (b *bench) addServerSpans(w *window) {
	for _, lg := range w.logs {
		for _, o := range lg.out {
			if o.job == nil || o.job.id == "" {
				continue
			}
			v, err := b.srv.svc.Get(o.job.id)
			if err != nil || v.Started == nil || v.Finished == nil {
				continue
			}
			lg.tr.add(0, o.root, o.req, "service.queue", v.Created, *v.Started)
			lg.tr.add(0, o.root, o.req, "engine.run", *v.Started, *v.Finished)
		}
	}
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
