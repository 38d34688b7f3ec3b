package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestQuantileAgainstSortedSliceOracle: at every rank that falls on a
// sample, the quantile is that sample of the sorted slice; between
// ranks it lies between the neighbours and never decreases.
func TestQuantileAgainstSortedSliceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 10, 101, 1000} {
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = rng.ExpFloat64() * 10
		}
		oracle := append([]float64(nil), samples...)
		sort.Float64s(oracle)
		asc := sorted(samples)
		for k := 0; k < n; k++ {
			q := 1.0
			if n > 1 {
				q = float64(k) / float64(n-1)
			}
			if got := quantile(asc, q); math.Abs(got-oracle[k]) > 1e-9 {
				t.Fatalf("n=%d: quantile(%v) = %v, sorted[%d] = %v", n, q, got, k, oracle[k])
			}
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1; q += 0.01 {
			got := quantile(asc, q)
			if got < prev || got < oracle[0] || got > oracle[n-1] {
				t.Fatalf("n=%d: quantile(%v) = %v breaks order or range", n, q, got)
			}
			prev = got
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples must be 0")
	}
}

// TestQuartileSpreadMatchesPython pins the spread to the values
// statistics.quantiles(v, n=4) gives, the rule the driver applies.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0},
		{[]float64{10.0, 10.4, 9.8, 10.1}, 0.04726368159203976},
		{[]float64{3, 1}, 1.5},
		{[]float64{5, 5, 5, 9}, 0.6},
		{[]float64{4}, 0},
	} {
		if got := quartileSpread(c.v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

// TestTraceIsDeterministicPerSeed: the same seed gives the identical
// operation list, another seed a different one, and the mix keeps its
// exact shares at every seed.
func TestTraceIsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a := w.Trace(rand.New(rand.NewSource(1)))
		b := w.Trace(rand.New(rand.NewSource(1)))
		c := w.Trace(rand.New(rand.NewSource(2)))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different traces", w.Name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same trace", w.Name)
		}
		for _, o := range a {
			for _, q := range o.Queries {
				if _, err := oracle(q); err != nil {
					t.Errorf("%s: %v", w.Name, err)
				}
			}
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		trace := paperTrace(rand.New(rand.NewSource(seed)))
		formats, queries := map[string]int{}, map[string]int{}
		for _, o := range trace {
			formats[o.Format]++
			queries[o.Queries[0]]++
		}
		if len(trace) != 64 || formats["owl"] != 43 || formats["json"] != 21 {
			t.Errorf("seed %d: %d entries, formats %v; want 64 entries, 43 owl, 21 json", seed, len(trace), formats)
		}
		for _, b := range brands {
			if queries[brandQuery(b)] != 2 {
				t.Errorf("seed %d: brand %s asked %d times, want 2", seed, b, queries[brandQuery(b)])
			}
		}
		if queries[allQuery] != 8 {
			t.Errorf("seed %d: %q asked %d times, want 8", seed, allQuery, queries[allQuery])
		}
	}
}

func TestRegistrationsInterleaveTheTrace(t *testing.T) {
	w, _ := findWorkload("onboarding_churn")
	registers, next := 0, 0
	for n := 0; n < 16*64; n++ {
		i := w.traceIndex(n, 64)
		if i < 0 {
			registers++
			if n%16 != 15 {
				t.Fatalf("operation %d is a registration", n)
			}
			continue
		}
		if i != next%64 {
			t.Fatalf("operation %d maps to trace entry %d, want %d: the trace must stay intact around registrations", n, i, next%64)
		}
		next++
	}
	if registers != 64 {
		t.Errorf("%d registrations in %d operations, want every 16th", registers, 16*64)
	}
}

func TestOraclePredicates(t *testing.T) {
	seiko := record{Brand: "Seiko", Case: "gold", Source: "db_000", Price: 99.5, Water: 100}
	web := record{Brand: "Seiko", Case: "gold", Source: "web_000", Price: 99.5, Water: 100}
	for _, c := range []struct {
		query string
		rec   record
		want  bool
	}{
		{allQuery, seiko, true},
		{brandQuery("Seiko"), seiko, true},
		{brandQuery("Casio"), seiko, false},
		{brandCaseQuery("Seiko", "gold"), seiko, true},
		{brandCaseQuery("Seiko", "stainless-steel"), seiko, false},
		{priceQuery(100), seiko, true},
		{priceQuery(99), seiko, false},
		{waterQuery(100), seiko, true},
		{waterQuery(110), seiko, false},
		{waterQuery(100), web, false}, // web sources publish no water resistance
	} {
		pred, err := oracle(c.query)
		if err != nil {
			t.Fatal(err)
		}
		if got := pred(c.rec); got != c.want {
			t.Errorf("%q on %+v = %v, want %v", c.query, c.rec, got, c.want)
		}
	}
	if _, err := oracle("SELECT provider"); err == nil {
		t.Error("a query outside the templates must have no oracle")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "a.inner", Start: 12, End: 20, Parent: 1},
		{Name: "b", Start: 25, End: 50, Parent: 0},    // overlaps a by 5: counted once
		{Name: "c", Start: 90, End: 120, Parent: 0},   // runs past the parent: clipped
		{Name: "other", Start: 0, End: 7, Parent: -1}, // a second root
	}
	want := []int64{100 - 20 - 20 - 10, 20 - 8, 8, 25, 30, 7}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestEnvelopeHead(t *testing.T) {
	head := []byte(`{"query":"SELECT product WHERE price < 100","format":"json","matched":12,"related":8,"missing":["x"],"body":"{\n \"errors\": [] ...`)
	if m, r, flagged := envelopeHead(head); m != 12 || r != 8 || flagged != 0 {
		t.Errorf("envelopeHead = %d, %d, %d; want 12, 8, 0", m, r, flagged)
	}
	withErrors := []byte(`{"query":"q","format":"json","matched":1,"related":0,"errors":["source db_000: boom"],"body":"..."}`)
	if _, _, flagged := envelopeHead(withErrors); flagged == 0 {
		t.Error("an envelope with an errors list must be flagged")
	}
	if _, _, flagged := envelopeHead([]byte(`{"error":"bad query"}`)); flagged == 0 {
		t.Error("a body that is no envelope must be flagged")
	}
}

func TestReadBatch(t *testing.T) {
	body := "=n 2\n=b 0\n=c 0 5\nhello=c 0 1\n!=t 0 errors=0 matched=3 related=1\n=b 1\n=t 1 error=bad+query\n"
	seen, err := readBatch(bufio.NewReader(strings.NewReader(body)), 2)
	if err != nil {
		t.Fatal(err)
	}
	if o := seen[0]; !o.Complete || o.Matched != 3 || o.Related != 1 || o.Body != sumOf([]byte("hello!")) {
		t.Errorf("query 0 = %+v", o)
	}
	if seen[1].Complete {
		t.Error("a query whose trailer carries an error must not be complete")
	}
	if _, err := readBatch(bufio.NewReader(strings.NewReader("=n 2\n=c 0 50\nshort")), 2); err == nil {
		t.Error("a chunk cut short must be an error")
	}
}

// TestValidatorCountsBadAnswersAsFailed serves answers that are each
// wrong in one way and checks that every one is a failed operation with
// the right reason.
func TestValidatorCountsBadAnswersAsFailed(t *testing.T) {
	const doc = `{"query":"q","format":"json","matched":3,"related":1,"body":"0123456789"}` + "\n"
	good := &ref{Matched: 3, Related: 1, Wire: sumOf([]byte(doc))}
	stream := &ref{Matched: 3, Related: 1, Wire: sumOf([]byte("0123456789"))}
	mux := http.NewServeMux()
	mux.HandleFunc("/good/query", func(w http.ResponseWriter, _ *http.Request) { fmt.Fprint(w, doc) })
	mux.HandleFunc("/truncated/query", func(w http.ResponseWriter, _ *http.Request) { fmt.Fprint(w, doc[:len(doc)-20]) })
	mux.HandleFunc("/wrong-matched/query", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, strings.Replace(doc, `"matched":3`, `"matched":4`, 1))
	})
	mux.HandleFunc("/refused/query", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, `{"error":"shed"}`, http.StatusServiceUnavailable)
	})
	streamed := func(trailer bool) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Trailer", "X-S2s-Stream-Complete, X-S2s-Stream-Errors")
			w.Header().Set("X-S2s-Matched", "3")
			w.Header().Set("X-S2s-Related", "1")
			fmt.Fprint(w, "0123456789")
			w.(http.Flusher).Flush()
			if trailer {
				w.Header().Set("X-S2s-Stream-Complete", "true")
				w.Header().Set("X-S2s-Stream-Errors", "0")
			}
		}
	}
	mux.HandleFunc("/good/query/stream", streamed(true))
	mux.HandleFunc("/no-trailer/query/stream", streamed(false))
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := newClient()
	defer c.close()

	for _, tc := range []struct {
		prefix string
		kind   opKind
		want   string
	}{
		{"/good", opQuery, ""},
		{"/truncated", opQuery, "errors"}, // cut before "body": no longer an envelope
		{"/wrong-matched", opQuery, "matched"},
		{"/refused", opQuery, "status"},
		{"/good", opStream, ""},
		{"/no-trailer", opStream, "incomplete"},
	} {
		s, err := prepare(srv.URL+tc.prefix, op{Kind: tc.kind, Queries: []string{"q"}, Format: "json"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.refs = []*ref{good}
		if tc.kind == opStream {
			s.refs = []*ref{stream}
		}
		if _, why := s.verdict(c.send(s, "")); why != tc.want {
			t.Errorf("%s%s: failed on %q, want %q", tc.prefix, s.route(), why, tc.want)
		}
	}
	// A body cut inside the document keeps its envelope head and fails on length.
	short := observed{Status: 200, Complete: true, Matched: 3, Related: 1, Body: sumOf([]byte(doc[:len(doc)-5]))}
	if why := short.check(good); why != "length" {
		t.Errorf("truncated body failed on %q, want length", why)
	}
	flipped := observed{Status: 200, Complete: true, Matched: 3, Related: 1, Body: sumOf([]byte(strings.Replace(doc, "012", "210", 1)))}
	if why := flipped.check(good); why != "checksum" {
		t.Errorf("altered body failed on %q, want checksum", why)
	}
}

// TestSmoke runs every workload for a second, untraced and traced, and
// requires that no operation fails.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			h := header{Failures: map[string]int{}}
			res, err := runWorkload(w, runConfig{Seed: 3, Window: time.Second, SetUps: 1, Traced: traced, OutDir: t.TempDir(), MaxOps: 4, Header: &h})
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Errorf("%s (traced %v): %d of %d operations failed: %v", w.Name, traced, res.Failed, res.Attempted, h.Failures)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s (traced %v): metric %s missing or in the wrong unit", w.Name, traced, d.Name)
				}
			}
		}
	}
}

// TestCompare: the same runs compare ok, a throughput drop beyond the
// bound is worse, runs that scatter beyond the bound are unresolved, and
// a rise in failed operations fails the comparison on its own.
func TestCompare(t *testing.T) {
	write := func(qps []float64, failed int) string {
		path := t.TempDir() + "/runs.jsonl"
		for _, v := range qps {
			r := run{Header: header{Workload: "paper_mix"}, result: result{Attempted: 100, Failed: failed, Metrics: map[string]metric{}}}
			for _, d := range endToEnd {
				r.Metrics[d.Name] = metric{Value: 10, Unit: d.Unit}
			}
			r.Metrics["qps"] = metric{Value: v, Unit: "1/s"}
			if err := appendLine(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write([]float64{100, 101, 99, 100}, 0)
	for _, c := range []struct {
		name    string
		path    string
		row     string
		wantErr bool
	}{
		{"same", write([]float64{100, 100, 101, 99}, 0), "ok", false},
		{"slower", write([]float64{70, 71, 69, 70}, 0), "worse", true},
		{"scattered", write([]float64{60, 100, 140, 100}, 0), "unresolved", false},
		{"failing", write([]float64{100, 101, 99, 100}, 1), "failed_share", true},
	} {
		var out strings.Builder
		err := compareFiles(&out, base, c.path)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, want error %v\n%s", c.name, err, c.wantErr, out.String())
		}
		if !strings.Contains(out.String(), c.row) {
			t.Errorf("%s: no %q row in\n%s", c.name, c.row, out.String())
		}
	}
}
