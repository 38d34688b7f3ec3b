package main

// load.go is the load generator: it sends the operations of a trace to
// the server over real HTTP, one request at a time per client (closed
// loop), and validates every response against the reference recorded
// during set-up. It knows the wire surface only.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// docSum identifies a byte sequence by length and FNV-1a checksum. It
// is an io.Writer so bodies are summed as they stream past.
type docSum struct {
	Len int
	Sum uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (d *docSum) Write(p []byte) (int, error) {
	h := d.Sum
	if d.Len == 0 {
		h = fnvOffset
	}
	for _, b := range p {
		h = (h ^ uint64(b)) * fnvPrime
	}
	d.Sum, d.Len = h, d.Len+len(p)
	return len(p), nil
}

func sumOf(p []byte) docSum {
	var d docSum
	d.Write(p)
	return d
}

// ref is the validated first answer to one (route, format, query).
// Wire sums the HTTP body (the frame's chunks for a batch); Raw sums the
// serialized document inside it, which is what the in-process pipeline
// must reproduce. They differ only under /query's JSON envelope.
type ref struct {
	Matched, Related int
	Wire, Raw        docSum
}

func refKey(route, format, query string) string { return route + "\x00" + format + "\x00" + query }

// observed is what the client saw of one answer.
type observed struct {
	Status           int
	Matched, Related int
	Body             docSum
	// Complete is the stream/batch completion signal (the completion
	// trailer, the frame's trailer); always true for /query.
	Complete bool
	// Flagged counts errors/degraded entries the answer reported.
	Flagged int
}

// check returns why the answer is wrong, or "" when it is the reference
// answer.
func (o observed) check(want *ref) string {
	switch {
	case o.Status != http.StatusOK:
		return "status"
	case !o.Complete:
		return "incomplete"
	case o.Flagged != 0:
		return "errors"
	case o.Matched != want.Matched:
		return "matched"
	case o.Related != want.Related:
		return "related"
	case o.Body.Len != want.Wire.Len:
		return "length"
	case o.Body.Sum != want.Wire.Sum:
		return "checksum"
	}
	return ""
}

// sendOp is an operation ready to send: URL and body built once, the
// references of its queries resolved.
type sendOp struct {
	op
	url  string
	body []byte
	refs []*ref
}

func prepare(base string, o op, refs map[string]*ref) (sendOp, error) {
	s := sendOp{op: o, url: base + o.route()}
	switch o.Kind {
	case opRegister:
		return s, nil
	case opBatch:
		body, err := json.Marshal(struct {
			Queries []string `json:"queries"`
			Format  string   `json:"format"`
		}{o.Queries, o.Format})
		if err != nil {
			return s, err
		}
		s.body = body
	default:
		s.url += "?q=" + url.QueryEscape(o.Queries[0]) + "&format=" + o.Format
	}
	for _, q := range o.Queries {
		r, ok := refs[refKey(o.route(), o.Format, q)]
		if !ok && refs != nil {
			return s, fmt.Errorf("no reference for %s %s %q", o.route(), o.Format, q)
		}
		s.refs = append(s.refs, r)
	}
	return s, nil
}

// stampReader notes when the first body byte arrived.
type stampReader struct {
	r     io.Reader
	start time.Time
	first time.Duration
}

func (s *stampReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if n > 0 && s.first == 0 {
		s.first = time.Since(s.start)
	}
	return n, err
}

// headWriter keeps the first bytes written to it.
type headWriter struct{ head []byte }

func (h *headWriter) Write(p []byte) (int, error) {
	if room := cap(h.head) - len(h.head); room > 0 {
		h.head = append(h.head, p[:min(room, len(p))]...)
	}
	return len(p), nil
}

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	http *http.Client
	buf  []byte
	head []byte
}

func newClient() *client {
	return &client{
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		buf:  make([]byte, 32<<10),
		head: make([]byte, 0, 1024),
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// answer is what one sent operation came to.
type answer struct {
	Latency, TTFB time.Duration
	Seen          []observed // one per query of the op
	Err           error      // the exchange itself failed
}

// send performs one operation and reads its whole response.
func (c *client) send(s sendOp, registerID string) answer {
	method, body := http.MethodGet, io.Reader(nil)
	switch s.Kind {
	case opBatch:
		method, body = http.MethodPost, bytes.NewReader(s.body)
	case opRegister:
		method = http.MethodPost
		body = strings.NewReader(`{"id":"` + registerID + `","kind":"xml","path":"` + registerID + `.xml"}`)
	}
	req, err := http.NewRequest(method, s.url, body)
	if err != nil {
		return answer{Err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return answer{Err: err}
	}
	defer resp.Body.Close()
	in := &stampReader{r: resp.Body, start: start}
	a := answer{}
	switch {
	case s.Kind == opRegister:
		_, a.Err = io.CopyBuffer(io.Discard, in, c.buf)
		a.Seen = []observed{{Status: resp.StatusCode, Complete: true}}
		if resp.StatusCode == http.StatusCreated { // a registration's OK
			a.Seen[0].Status = http.StatusOK
		}
	case resp.StatusCode != http.StatusOK:
		_, a.Err = io.CopyBuffer(io.Discard, in, c.buf)
		a.Seen = make([]observed, len(s.Queries))
		for i := range a.Seen {
			a.Seen[i].Status = resp.StatusCode
		}
	case s.Kind == opBatch:
		a.Seen, a.Err = readBatch(bufio.NewReaderSize(in, len(c.buf)), len(s.Queries))
		if resp.Trailer.Get("X-S2s-Stream-Complete") != "true" {
			for i := range a.Seen {
				a.Seen[i].Complete = false
			}
		}
	case s.Kind == opStream:
		o := observed{Status: resp.StatusCode}
		_, a.Err = io.CopyBuffer(&o.Body, in, c.buf)
		// Counts ride in the trailers when the body streamed
		// barrier-free, in the headers otherwise.
		counts := resp.Header
		if resp.Header.Get("X-S2s-Stream-Mode") == "eager" {
			counts = resp.Trailer
		}
		o.Matched, _ = strconv.Atoi(counts.Get("X-S2s-Matched"))
		o.Related, _ = strconv.Atoi(counts.Get("X-S2s-Related"))
		o.Complete = resp.Trailer.Get("X-S2s-Stream-Complete") == "true" && resp.Trailer.Get("X-S2s-Stream-Error") == ""
		o.Flagged, _ = strconv.Atoi(resp.Trailer.Get("X-S2s-Stream-Errors"))
		a.Seen = []observed{o}
	default:
		o := observed{Status: resp.StatusCode, Complete: true}
		head := &headWriter{head: c.head[:0]}
		_, a.Err = io.CopyBuffer(io.MultiWriter(&o.Body, head), in, c.buf)
		o.Matched, o.Related, o.Flagged = envelopeHead(head.head)
		a.Seen = []observed{o}
	}
	a.Latency, a.TTFB = time.Since(start), in.first
	return a
}

// envelopeHead reads the counts out of the first bytes of a /query
// response without decoding the (large) body: the envelope's fields
// precede "body" in a fixed order. Flagged is 1 when the envelope
// carries an errors or degraded list, or is not an envelope at all.
func envelopeHead(head []byte) (matched, related, flagged int) {
	end := bytes.Index(head, []byte(`,"body":"`))
	if end < 0 {
		return 0, 0, 1
	}
	head = head[:end]
	field := func(name string) int {
		_, rest, ok := bytes.Cut(head, []byte(`,"`+name+`":`))
		if !ok {
			return -1
		}
		n := 0
		for _, b := range rest {
			if b < '0' || b > '9' {
				break
			}
			n = n*10 + int(b-'0')
		}
		return n
	}
	if bytes.Contains(head, []byte(`,"errors":[`)) || bytes.Contains(head, []byte(`,"degraded":[`)) {
		flagged = 1
	}
	return field("matched"), field("related"), flagged
}

// readBatch demultiplexes a /query/batch body (the line framing of
// internal/instance/mux.go: =n count, =b i, =c i size + bytes, =t i
// k=v ...) into one observation per query. A query is Complete once its
// trailer frame arrived without an error key.
func readBatch(r *bufio.Reader, n int) ([]observed, error) {
	seen := make([]observed, n)
	for i := range seen {
		seen[i].Status = http.StatusOK
	}
	for {
		line, err := r.ReadString('\n')
		if err == io.EOF && line == "" {
			return seen, nil
		}
		if err != nil {
			return seen, fmt.Errorf("batch frame: %w", err)
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return seen, fmt.Errorf("malformed batch frame %q", line)
		}
		i, err := strconv.Atoi(f[1])
		if err != nil || (f[0] != "=n" && (i < 0 || i >= n)) {
			return seen, fmt.Errorf("bad batch frame index %q", line)
		}
		switch f[0] {
		case "=n":
			if i != n {
				return seen, fmt.Errorf("batch announces %d queries, want %d", i, n)
			}
		case "=b":
		case "=c":
			if len(f) != 3 {
				return seen, fmt.Errorf("malformed chunk frame %q", line)
			}
			size, err := strconv.Atoi(f[2])
			if err != nil || size < 0 {
				return seen, fmt.Errorf("malformed chunk size %q", line)
			}
			if _, err := io.CopyN(&seen[i].Body, r, int64(size)); err != nil {
				return seen, fmt.Errorf("batch chunk: %w", err)
			}
		case "=t":
			seen[i].Complete = true
			for _, kv := range f[2:] {
				k, v, _ := strings.Cut(kv, "=")
				num, _ := strconv.Atoi(v)
				switch k {
				case "matched":
					seen[i].Matched = num
				case "related":
					seen[i].Related = num
				case "errors":
					seen[i].Flagged = num
				case "error":
					seen[i].Complete = false
				}
			}
		default:
			return seen, fmt.Errorf("unknown batch frame %q", line)
		}
	}
}

// verdict validates an answer against the op's references. It returns
// the instances delivered and the first reason any query failed.
func (s sendOp) verdict(a answer) (instances int, fail string) {
	if a.Err != nil {
		return 0, "exchange"
	}
	if s.Kind == opRegister {
		if a.Seen[0].Status != http.StatusOK {
			return 0, "status"
		}
		return 0, ""
	}
	for i, o := range a.Seen {
		if why := o.check(s.refs[i]); why != "" {
			return 0, why
		}
		instances += o.Matched + o.Related
	}
	return instances, ""
}

// slice is one second of a replay, as the sampler saw it: when it ended
// (seconds since the replay began), how long it really was, and what
// completed and what CPU was spent inside it.
type slice struct {
	End       float64
	Seconds   float64
	Ops       int
	Instances int
	CPU       time.Duration
}

// sample is one operation's timing. A failed operation is recorded at
// the full window length: it misses every latency limit.
type sample struct {
	DoneAt            float64 // seconds since the replay began
	LatencyMs, TTFBMs float64
	Failed            bool
}

// window is the outcome of one timed replay.
type window struct {
	Elapsed   time.Duration // first send to last completion
	Slices    []slice       // whole seconds of the replay, in order
	Attempted int
	Failed    int
	Queries   int // queries inside validated ops (a batch carries several)
	Bytes     int
	Samples   []sample // one per attempted op
	Reasons   map[string]int
}

// replay drives the trace from the given clients, closed loop, until the
// duration has passed, then waits for the operations in flight. next is
// the shared operation counter: it persists across warm-up and window so
// the replay continues where it stopped and registrations stay fresh.
// Once a second a sampler notes the validated operations, instances and
// CPU time so far; it does nothing else.
func replay(w workloadDef, ops []sendOp, registerOp sendOp, clients []*client, next *atomic.Int64, d time.Duration) window {
	tallies := make([]window, len(clients))
	var okOps, okInstances atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(t *window, c *client) {
			defer wg.Done()
			t.Reasons = map[string]int{}
			for time.Now().Before(deadline) {
				n := int(next.Add(1) - 1)
				s := w.sendOpAt(ops, registerOp, n)
				a := c.send(s, "onboard_"+strconv.Itoa(n))
				t.Attempted++
				instances, why := s.verdict(a)
				if why != "" {
					t.Failed++
					t.Reasons[why]++
					t.Samples = append(t.Samples, sample{time.Since(start).Seconds(), float64(d) / 1e6, float64(d) / 1e6, true})
					continue
				}
				okOps.Add(1)
				okInstances.Add(int64(instances))
				t.Queries += len(s.Queries)
				for _, o := range a.Seen {
					t.Bytes += o.Body.Len
				}
				t.Samples = append(t.Samples, sample{time.Since(start).Seconds(), float64(a.Latency) / 1e6, float64(a.TTFB) / 1e6, false})
			}
		}(&tallies[ci], c)
	}

	done, sampled := make(chan struct{}), make(chan []slice)
	go func() {
		var slices []slice
		at, ops, instances, cpu := start, int64(0), int64(0), cpuTime()
		take := func(now time.Time) {
			o, i, c := okOps.Load(), okInstances.Load(), cpuTime()
			slices = append(slices, slice{now.Sub(start).Seconds(), now.Sub(at).Seconds(), int(o - ops), int(i - instances), c - cpu})
			at, ops, instances, cpu = now, o, i, c
		}
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case now := <-tick.C:
				take(now)
			case <-done:
				if len(slices) == 0 { // shorter than a second: one slice for all of it
					take(time.Now())
				}
				sampled <- slices
				return
			}
		}
	}()
	wg.Wait()
	out := window{Elapsed: time.Since(start), Reasons: map[string]int{}}
	close(done)
	out.Slices = <-sampled
	for _, t := range tallies {
		out.Attempted += t.Attempted
		out.Failed += t.Failed
		out.Queries += t.Queries
		out.Bytes += t.Bytes
		out.Samples = append(out.Samples, t.Samples...)
		for why, n := range t.Reasons {
			out.Reasons[why] += n
		}
	}
	return out
}

// sendOpAt returns operation number n of the replay, ready to send.
func (w workloadDef) sendOpAt(ops []sendOp, registerOp sendOp, n int) sendOp {
	if i := w.traceIndex(n, len(ops)); i >= 0 {
		return ops[i]
	}
	return registerOp
}
