package main

// bench.go runs one workload end to end: set-up (world, server, first
// validated answers), warm-up, the measured window, and in trace mode
// the window's counters plus the traced pass.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	clientCount = 2 // closed-loop callers, one keep-alive connection each (nproc is 2)
	setUps      = 5 // set-up is repeated and its median reported
	warmUp      = 2 * time.Second
)

// bench is one workload's system under test with its clients.
type bench struct {
	w       workloadDef
	sys     *system
	server  *http.Server
	served  chan error
	base    string
	clients []*client
	refs    map[string]*ref
	ops     []sendOp // the trace, ready to send
	reg     sendOp
	next    atomic.Int64 // operations sent so far
}

// setUp builds the world, starts the server on a loopback port, and
// fetches and validates the first answer to every distinct operation of
// the trace: matched counts against the oracle, no errors, and the same
// document on every route that serves it. Those answers become the
// references the window validates against, and fetching them fills the
// plan, schema and compiled-rule caches.
func setUp(w workloadDef, seed int64, trace []op) (b *bench, err error) {
	b = &bench{w: w, refs: map[string]*ref{}, served: make(chan error, 1)}
	if b.sys, err = newSystem(w.Spec, seed); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.server = &http.Server{Handler: b.sys.handler}
	go func() { b.served <- b.server.Serve(ln) }()
	b.base = "http://" + ln.Addr().String()
	for i := 0; i < clientCount; i++ {
		b.clients = append(b.clients, newClient())
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, b.shutDown())
		}
	}()

	for _, o := range trace {
		if err := b.reference(o); err != nil {
			return nil, fmt.Errorf("set-up: %s %v: %w", o.route(), o.Queries, err)
		}
	}
	raw := map[string]docSum{}
	for _, o := range trace {
		for _, q := range o.Queries {
			r := b.refs[refKey(o.route(), o.Format, q)]
			if prev, ok := raw[o.Format+"\x00"+q]; ok && prev != r.Raw {
				return nil, fmt.Errorf("set-up: %q as %s is a different document on %s than on another route", q, o.Format, o.route())
			}
			raw[o.Format+"\x00"+q] = r.Raw
		}
	}
	for _, o := range trace {
		s, err := prepare(b.base, o, b.refs)
		if err != nil {
			return nil, err
		}
		b.ops = append(b.ops, s)
	}
	b.reg, err = prepare(b.base, op{Kind: opRegister}, nil)
	return b, err
}

// reference records the first answer to an operation, once per distinct
// (route, format, query), aborting if the oracle disagrees with it.
func (b *bench) reference(o op) error {
	fresh := false
	for _, q := range o.Queries {
		if b.refs[refKey(o.route(), o.Format, q)] == nil {
			fresh = true
		}
	}
	if !fresh {
		return nil
	}
	s, err := prepare(b.base, o, nil)
	if err != nil {
		return err
	}
	var seen []observed
	var raws []docSum
	if o.Kind == opQuery {
		// Decode the envelope in full, once: later answers are only
		// summed and compared.
		resp, err := b.clients[0].http.Get(s.url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		var env struct {
			Matched, Related int
			Errors, Degraded []string
			Body             string
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(data, &env); err != nil {
				return err
			}
		}
		seen = []observed{{Status: resp.StatusCode, Matched: env.Matched, Related: env.Related,
			Body: sumOf(data), Complete: true, Flagged: len(env.Errors) + len(env.Degraded)}}
		raws = []docSum{sumOf([]byte(env.Body))}
	} else {
		a := b.clients[0].send(s, "")
		if a.Err != nil {
			return a.Err
		}
		seen = a.Seen
		for _, o := range seen {
			raws = append(raws, o.Body)
		}
	}
	for i, q := range o.Queries {
		pred, err := oracle(q)
		if err != nil {
			return err
		}
		want := &ref{Matched: b.sys.countMatching(pred), Related: seen[i].Related, Wire: seen[i].Body, Raw: raws[i]}
		if why := seen[i].check(want); why != "" {
			return fmt.Errorf("first answer to %q fails on %s: matched %d, oracle %d, status %d",
				q, why, seen[i].Matched, want.Matched, seen[i].Status)
		}
		b.refs[refKey(o.route(), o.Format, q)] = want
	}
	return nil
}

// shutDown closes the listener, waits for the server goroutine and
// drops the clients' connections.
func (b *bench) shutDown() error {
	for _, c := range b.clients {
		c.close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := b.server.Shutdown(ctx)
	if serr := <-b.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

func (b *bench) replay(d time.Duration) window {
	return replay(b.w, b.ops, b.reg, b.clients, &b.next, d)
}

// scrape reads the server's counters over GET /metrics.
func (b *bench) scrape() (scrape, error) {
	resp, err := b.clients[0].http.Get(b.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseScrape(resp.Body)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runConfig sizes one run.
type runConfig struct {
	Seed   int64
	Window time.Duration
	WarmUp time.Duration
	SetUps int
	Traced bool
	OutDir string  // where the span log goes
	MaxOps int     // cap on traced operations; 0 means the workload's own count
	Header *header // the run's conditions, filled in as it goes
}

// result is one run's outcome in the shape the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload performs one run of one workload.
func runWorkload(w workloadDef, cfg runConfig) (result, error) {
	trace := w.Trace(rand.New(rand.NewSource(cfg.Seed)))
	values := map[string]float64{}

	var b *bench
	setupS := make([]float64, 0, cfg.SetUps)
	for i := 0; i < cfg.SetUps; i++ {
		if b != nil {
			if err := b.shutDown(); err != nil {
				return result{}, err
			}
		}
		start := time.Now()
		var err error
		if b, err = setUp(w, cfg.Seed, trace); err != nil {
			return result{}, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	values["setup_s"] = median(setupS)

	res := result{}
	count := func(win window) {
		res.Attempted += win.Attempted
		res.Failed += win.Failed
		for why, n := range win.Reasons {
			cfg.Header.Failures[why] += n
		}
	}
	err := func() error {
		if cfg.WarmUp > 0 {
			count(b.replay(cfg.WarmUp))
		}
		if !cfg.Traced {
			win := b.measure(cfg.Window, values)
			count(win)
			cfg.Header.note(win)
			return nil
		}
		win, err := b.measureLayers(cfg.Window/2, values)
		if err != nil {
			return err
		}
		count(win)
		cfg.Header.note(win)
		attempted, failed, err := b.tracedPass(cfg, values)
		res.Attempted += attempted
		res.Failed += failed
		return err
	}()
	if err = errors.Join(err, b.shutDown()); err != nil {
		return result{}, err
	}

	defs := endToEnd
	if cfg.Traced {
		defs = perLayer
	}
	res.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		res.Metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// measure runs the untraced window and derives the end-to-end metrics.
// Nothing but the clients, the server and the once-a-second sampler runs
// inside it.
//
// Rates and latencies are taken over the window's least disturbed
// quarter: the seconds in which most operations completed. On a shared
// machine another tenant slows single seconds, or dozens of them, by a
// third; that noise only ever slows the system down, so the fastest
// seconds are the ones closest to what the program itself does, and they
// repeat from run to run where a mean over the window does not. A second
// holds one to four cycles of the trace, so every second carries the same
// mix. Allocation counts are not disturbed and are taken over the whole
// window.
func (b *bench) measure(d time.Duration, values map[string]float64) window {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	win := b.replay(d)
	runtime.ReadMemStats(&after)

	slices, samples := win.best()
	var seconds, ops, instances, cpu float64
	for _, s := range slices {
		seconds, ops, instances, cpu = seconds+s.Seconds, ops+float64(s.Ops), instances+float64(s.Instances), cpu+float64(s.CPU)
	}
	lat, ttfb := make([]float64, len(samples)), make([]float64, len(samples))
	for i, sm := range samples {
		lat[i], ttfb[i] = sm.LatencyMs, sm.TTFBMs
	}
	sorted(lat)
	values["qps"] = ops / seconds
	values["latency_p50_ms"] = quantile(lat, 0.5)
	values["latency_p90_ms"] = quantile(lat, 0.9)
	values["ttfb_p50_ms"] = median(ttfb)
	values["instances_per_s"] = instances / seconds
	values["cpu_ms_per_op"] = cpu / 1e6 / max(ops, 1)
	whole := float64(max(win.Attempted-win.Failed, 1))
	values["allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / whole
	values["alloc_kb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / whole
	return win
}

// best returns the window's least disturbed quarter: the quarter
// (rounded up) of its seconds with the highest rate of completed
// operations, and the operations that completed in them. Failed
// operations are included wherever they fell.
func (w window) best() ([]slice, []sample) {
	order := make([]int, len(w.Slices))
	for i := range order {
		order[i] = i
	}
	rate := func(i int) float64 { return float64(w.Slices[i].Ops) / w.Slices[i].Seconds }
	sort.SliceStable(order, func(a, b int) bool { return rate(order[a]) > rate(order[b]) })
	chosen := make([]bool, len(w.Slices))
	var slices []slice
	for _, i := range order[:(len(order)+3)/4] {
		chosen[i] = true
		slices = append(slices, w.Slices[i])
	}
	var samples []sample
	for _, sm := range w.Samples {
		// The slice an operation falls in is the first that ends after it.
		i := sort.Search(len(w.Slices), func(i int) bool { return w.Slices[i].End >= sm.DoneAt })
		if sm.Failed || (i < len(w.Slices) && chosen[i]) {
			samples = append(samples, sm)
		}
	}
	return slices, samples
}

// measureLayers runs a window like measure, but reports the per-layer
// numbers that only a loaded server shows: counter deltas scraped from
// /metrics on either side of the window, the latency tail, and the Go
// runtime sampled every 100 ms.
func (b *bench) measureLayers(d time.Duration, values map[string]float64) (window, error) {
	before, err := b.scrape()
	if err != nil {
		return window{}, err
	}
	var gcBefore runtime.MemStats
	runtime.ReadMemStats(&gcBefore)

	stop, sampled := make(chan struct{}), make(chan struct{})
	var peakHeap uint64
	var peakGoroutines int
	go func() {
		defer close(sampled)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			peakHeap = max(peakHeap, ms.HeapAlloc)
			peakGoroutines = max(peakGoroutines, runtime.NumGoroutine())
			select {
			case <-tick.C:
			case <-stop:
				return
			}
		}
	}()
	win := b.replay(d)
	close(stop)
	<-sampled

	var gcAfter runtime.MemStats
	runtime.ReadMemStats(&gcAfter)
	after, err := b.scrape()
	if err != nil {
		return win, err
	}
	delta := func(family string, labels ...string) float64 {
		return after.sum(family, labels...) - before.sum(family, labels...)
	}
	ops := float64(max(win.Attempted-win.Failed, 1))
	queries := float64(max(win.Queries, 1))
	lat := make([]float64, len(win.Samples))
	for i, sm := range win.Samples {
		lat[i] = sm.LatencyMs
	}
	sorted(lat)

	values["core.plan_miss_per_op"] = delta("s2s_planner_mergefree_total") / queries
	values["planner.sources_pruned_per_op"] = delta("s2s_planner_sources_pruned_total") / queries
	values["planner.pushdown_applied_per_op"] = delta("s2s_planner_pushdown_applied_total") / queries
	values["planner.semijoin_per_op"] = delta("s2s_planner_semijoin_total") / queries
	values["extract.retries_per_op"] = delta("s2s_source_retries_total") / queries
	values["extract.source_errors_per_op"] = (delta("s2s_source_extract_total") - delta("s2s_source_extract_total", `outcome="ok"`)) / queries
	values["transport.bytes_per_op"] = float64(win.Bytes) / ops
	values["transport.tail_p99_ms"] = quantile(lat, 0.99)
	values["transport.max_ms"] = quantile(lat, 1)
	values["transport.shed_total"] = delta("s2s_query_total", `outcome="shed"`)
	values["runtime.peak_heap_mb"] = float64(peakHeap) / (1 << 20)
	values["runtime.gc_cycles_per_s"] = float64(gcAfter.NumGC-gcBefore.NumGC) / win.Elapsed.Seconds()
	values["runtime.goroutines_max"] = float64(peakGoroutines)
	return win, nil
}
