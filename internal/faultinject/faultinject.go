// Package faultinject is a seeded, deterministic fault-injection layer
// for chaos-testing the extraction pipeline. The paper's data sources are
// autonomous and distributed — partner outages, slowdowns, and garbage
// responses are the normal case — so the recovery machinery (retries with
// backoff, circuit breakers, failover marking)
// needs tests that reproduce those failures exactly.
//
// An Injector holds per-target fault Plans keyed by the backend address a
// source resolves to (URL for web pages, Path for XML/text documents, DSN
// for databases — see Key). It wraps extract.Backends, whose four kinds
// share one context-taking shape, or an http.RoundTripper; every
// operation against a planned target first consults the plan under the
// operation's context, which may add latency, fail the call, hang until
// the context ends, or corrupt the payload. An operation is one backend
// read: a page fetch, a document read, a database open, or an HTTP round
// trip — never one rule, because the extraction layer reads each source
// document once per run and evaluates every rule over that copy.
// Count-based faults (FailFirst, flapping) depend only on the per-target
// call number, and latency jitter comes from a per-target rng derived
// from the Injector seed, so a run is reproducible from the single seed.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/datasource"
	"repro/internal/extract"
	"repro/internal/xmlpath"
)

// maxHang bounds a Hang fault whose caller's context has no deadline
// and is never canceled; without it such a hung call would hold its
// goroutine forever. Every other hang ends with its caller's context.
const maxHang = 30 * time.Second

// Fault is the failure plan for one target. Zero value injects nothing.
// When several fields are set they compose: latency is always applied
// first, then the failure decision (Permanent > FailFirst > flapping >
// FailEvery), and Corrupt only mangles calls that were allowed to
// succeed.
type Fault struct {
	// AddLatency delays every operation by this fixed amount.
	AddLatency time.Duration
	// JitterLatency adds a further uniform [0, JitterLatency) delay drawn
	// from the target's seeded rng.
	JitterLatency time.Duration
	// FailFirst fails the first N operations with a transient error, then
	// recovers — the "fail N then recover" shape retry/breaker tests need.
	FailFirst int
	// FlapFail/FlapOK make the target flap: cycles of FlapFail transient
	// failures followed by FlapOK successes. FlapOK defaults to 1 when
	// FlapFail is set.
	FlapFail int
	FlapOK   int
	// FailEvery fails every Nth operation (1 = always) transiently.
	FailEvery int
	// Permanent fails every operation with an error marked
	// extract.Permanent, so the extractor must fail fast instead of
	// burning retries.
	Permanent bool
	// Hang blocks the operation until its context ends (or maxHang when
	// the context never does), simulating a source that accepts the
	// connection and never answers.
	Hang bool
	// Corrupt lets the operation through but mangles the payload: fetched
	// pages and text documents are truncated mid-document, XML documents
	// are replaced by one with no records, and HTTP bodies are garbled.
	Corrupt bool
}

// active reports whether the fault injects anything at all.
func (f Fault) active() bool {
	return f != Fault{}
}

// Plan maps injection targets (see Key) to their faults.
type Plan map[string]Fault

// Key returns the injection target key for a source definition: the
// backend address its extraction resolves — URL for web sources, Path
// for XML and text documents, DSN for databases. Faults planned under
// this key hit every operation against that backend.
func Key(def datasource.Definition) string {
	switch def.Kind {
	case datasource.KindWeb:
		return def.URL
	case datasource.KindXML, datasource.KindText:
		return def.Path
	case datasource.KindDatabase:
		return def.DSN
	}
	return def.ID
}

// targetState is one target's mutable injection state.
type targetState struct {
	fault Fault
	calls int
	rng   *rand.Rand
}

// Injector applies a fault Plan to wrapped backends. All methods are
// safe for concurrent use; determinism is per target (each target's
// call sequence and rng are independent of interleaving with other
// targets).
type Injector struct {
	seed int64

	// sleep waits out an injected delay under ctx. It is the injector's
	// clock seam: tests swap in a recording fake so latency and hang
	// behaviour can be asserted without real waiting or wall-clock reads
	// (the determinism analyzer forbids time.Now in this package).
	sleep func(ctx context.Context, d time.Duration) error

	mu      sync.Mutex
	targets map[string]*targetState
}

// realSleep blocks for d or until the context is done.
func realSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		t.Stop()
		return ctx.Err()
	}
}

// New returns an Injector whose jittered delays derive from seed. Faults
// are registered with Set or all at once via Plan.
func New(seed int64, plan Plan) *Injector {
	in := &Injector{seed: seed, sleep: realSleep, targets: map[string]*targetState{}}
	for target, f := range plan {
		in.Set(target, f)
	}
	return in
}

// Set installs (or replaces) the fault for one target, resetting its
// call counter.
func (in *Injector) Set(target string, f Fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.targets[target] = &targetState{fault: f, rng: rand.New(rand.NewSource(in.seed ^ hashTarget(target)))}
}

// Calls returns how many operations have reached the target so far
// (only targets with a registered fault are counted).
func (in *Injector) Calls(target string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	if st, ok := in.targets[target]; ok {
		return st.calls
	}
	return 0
}

func hashTarget(target string) int64 {
	h := fnv.New64a()
	//lint:ignore errcheck hash.Hash documents Write as never failing
	io.WriteString(h, target)
	return int64(h.Sum64())
}

// decision is the injection outcome for one operation.
type decision struct {
	delay   time.Duration
	err     error
	hang    bool
	corrupt bool
}

// decide draws the injection outcome for the target's next operation.
// The failure choice is made under the lock from the call counter and
// the per-target rng; the delay (and any hang) is applied by apply, not
// here, so targets never serialize on each other's sleeps.
func (in *Injector) decide(target string) decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	st, ok := in.targets[target]
	if !ok || !st.fault.active() {
		return decision{}
	}
	st.calls++
	n := st.calls
	f := st.fault

	var d decision
	d.delay = f.AddLatency
	if f.JitterLatency > 0 {
		d.delay += time.Duration(st.rng.Int63n(int64(f.JitterLatency)))
	}
	switch {
	case f.Permanent:
		d.err = extract.Permanent(fmt.Errorf("faultinject: %s: injected permanent failure (call %d)", target, n))
	case f.Hang:
		d.hang = true
	case n <= f.FailFirst:
		d.err = fmt.Errorf("faultinject: %s: injected transient failure %d/%d", target, n, f.FailFirst)
	case f.FlapFail > 0:
		ok := f.FlapOK
		if ok <= 0 {
			ok = 1
		}
		if (n-1)%(f.FlapFail+ok) < f.FlapFail {
			d.err = fmt.Errorf("faultinject: %s: injected flapping failure (call %d)", target, n)
		}
	case f.FailEvery > 0 && n%f.FailEvery == 0:
		d.err = fmt.Errorf("faultinject: %s: injected transient failure (call %d)", target, n)
	}
	d.corrupt = f.Corrupt && d.err == nil && !d.hang
	return d
}

// apply sleeps out the decision's delay (and hang) under ctx and returns
// the injected error, if any. corrupt reports whether the caller must
// mangle a successful payload.
func (in *Injector) apply(ctx context.Context, target string) (corrupt bool, err error) {
	d := in.decide(target)
	if d.delay > 0 {
		if err := in.sleep(ctx, d.delay); err != nil {
			return false, fmt.Errorf("faultinject: %s: canceled during injected latency: %w", target, err)
		}
	}
	if d.hang {
		if err := in.sleep(ctx, maxHang); err != nil {
			return false, fmt.Errorf("faultinject: %s: injected hang: %w", target, err)
		}
		return false, fmt.Errorf("faultinject: %s: injected hang elapsed: %w", target, context.DeadlineExceeded)
	}
	return d.corrupt, d.err
}

// WrapBackends returns b with every non-nil backend routed through the
// injector, keyed by the address each kind resolves (see Key). The plan
// is applied under the reading rule's context, so a Hang or latency
// fault ends with the rule's deadline on every kind.
func (in *Injector) WrapBackends(b extract.Backends) extract.Backends {
	return extract.Backends{
		Pages: wrap(in, b.Pages, CorruptPage),
		XML:   wrap(in, b.XML, corruptXML),
		Text:  wrap(in, b.Text, CorruptPage),
		DB:    wrap(in, b.DB, nil),
	}
}

// wrap routes one backend through the injector. corrupt mangles a read
// a Corrupt fault lets through; nil lets it through unchanged (a
// database handle has no payload to mangle).
func wrap[T any](in *Injector, next extract.Backend[T], corrupt func(T) T) extract.Backend[T] {
	if next == nil {
		return nil
	}
	return func(ctx context.Context, key string) (T, error) {
		mangle, err := in.apply(ctx, key)
		if err != nil {
			var zero T
			return zero, err
		}
		doc, err := next(ctx, key)
		if err != nil || !mangle || corrupt == nil {
			return doc, err
		}
		return corrupt(doc), nil
	}
}

// corruptXML serves a corrupted XML read as the document <corrupted/>:
// well-formed, but with none of the records the source's rules select.
// A parsed document has no raw bytes left to truncate.
func corruptXML(*xmlpath.Node) *xmlpath.Node {
	root := &xmlpath.Node{}
	root.Children = []*xmlpath.Node{{Name: "corrupted", Parent: root}}
	return root
}

// CorruptPage truncates a fetched page mid-document and appends garbage,
// simulating a source that cuts the response off.
func CorruptPage(html string) string {
	cut := len(html) / 2
	return html[:cut] + "\x00\x00<corrupted"
}

// RoundTripper routes HTTP requests through the injector, keyed by the
// request URL's host. Transient faults surface as synthesized 503
// responses carrying Retry-After (what a struggling upstream actually
// sends, and what the transport client's retry loop keys on); permanent
// faults as 500s; Corrupt garbles the response body.
func (in *Injector) RoundTripper(next http.RoundTripper) http.RoundTripper {
	if next == nil {
		next = http.DefaultTransport
	}
	return &roundTripper{in: in, next: next}
}

type roundTripper struct {
	in   *Injector
	next http.RoundTripper
}

func (rt *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	corrupt, err := rt.in.apply(req.Context(), req.URL.Host)
	if err != nil {
		if extract.IsPermanent(err) {
			return syntheticResponse(req, http.StatusInternalServerError, err.Error(), nil), nil
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Hangs and cancellations never produce a response: the
			// caller sees a transport-level error, like a real timeout.
			return nil, err
		}
		return syntheticResponse(req, http.StatusServiceUnavailable, err.Error(),
			http.Header{"Retry-After": []string{"1"}}), nil
	}
	resp, err := rt.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if corrupt {
		body, rerr := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); rerr == nil {
			rerr = cerr
		}
		if rerr != nil {
			return nil, rerr
		}
		mangled := CorruptPage(string(body))
		resp.Body = io.NopCloser(strings.NewReader(mangled))
		resp.ContentLength = int64(len(mangled))
		resp.Header.Set("Content-Length", strconv.Itoa(len(mangled)))
	}
	return resp, nil
}

func syntheticResponse(req *http.Request, status int, body string, hdr http.Header) *http.Response {
	if hdr == nil {
		hdr = http.Header{}
	}
	hdr.Set("Content-Type", "text/plain; charset=utf-8")
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", status, http.StatusText(status)),
		StatusCode:    status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        hdr,
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}
