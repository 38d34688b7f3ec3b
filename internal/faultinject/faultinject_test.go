package faultinject

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/datasource"
	"repro/internal/extract"
	"repro/internal/reldb"
	"repro/internal/webl"
	"repro/internal/xmlpath"
)

func TestKeySelectsBackendAddress(t *testing.T) {
	cases := []struct {
		def  datasource.Definition
		want string
	}{
		{datasource.Definition{ID: "w1", Kind: datasource.KindWeb, URL: "http://a/p"}, "http://a/p"},
		{datasource.Definition{ID: "x1", Kind: datasource.KindXML, Path: "cat.xml"}, "cat.xml"},
		{datasource.Definition{ID: "t1", Kind: datasource.KindText, Path: "notes.txt"}, "notes.txt"},
		{datasource.Definition{ID: "d1", Kind: datasource.KindDatabase, DSN: "mem://db"}, "mem://db"},
		{datasource.Definition{ID: "u1"}, "u1"},
	}
	for _, c := range cases {
		if got := Key(c.def); got != c.want {
			t.Errorf("Key(%s) = %q, want %q", c.def.ID, got, c.want)
		}
	}
}

func TestFailFirstThenRecover(t *testing.T) {
	in := New(1, Plan{"src": {FailFirst: 3}})
	for i := 1; i <= 5; i++ {
		_, err := in.apply(context.Background(), "src")
		if i <= 3 && err == nil {
			t.Fatalf("call %d: want injected failure, got nil", i)
		}
		if i > 3 && err != nil {
			t.Fatalf("call %d: want recovery, got %v", i, err)
		}
		if i <= 3 && extract.IsPermanent(err) {
			t.Fatalf("call %d: FailFirst must be transient, got permanent %v", i, err)
		}
	}
	if got := in.Calls("src"); got != 5 {
		t.Fatalf("Calls = %d, want 5", got)
	}
}

func TestFlappingCycle(t *testing.T) {
	in := New(1, Plan{"src": {FlapFail: 2, FlapOK: 3}})
	var pattern []bool
	for i := 0; i < 10; i++ {
		_, err := in.apply(context.Background(), "src")
		pattern = append(pattern, err != nil)
	}
	want := []bool{true, true, false, false, false, true, true, false, false, false}
	for i := range want {
		if pattern[i] != want[i] {
			t.Fatalf("call %d: failed=%v, want %v (pattern %v)", i+1, pattern[i], want[i], pattern)
		}
	}
}

func TestPermanentFaultIsMarkedPermanent(t *testing.T) {
	in := New(1, Plan{"src": {Permanent: true}})
	_, err := in.apply(context.Background(), "src")
	if err == nil || !extract.IsPermanent(err) {
		t.Fatalf("want permanent injected error, got %v", err)
	}
}

func TestHangHonorsContext(t *testing.T) {
	// A canceled context must end the hang immediately: the real sleep
	// returns ctx.Err without waiting, so no wall-clock read is needed to
	// prove the hang respects cancellation.
	in := New(1, Plan{"src": {Hang: true}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := in.apply(ctx, "src")
	if err == nil {
		t.Fatal("want hang error, got nil")
	}
	if !strings.Contains(err.Error(), "injected hang") {
		t.Fatalf("want injected hang error, got %v", err)
	}
}

func TestHangWaitsFullBoundWithoutCancel(t *testing.T) {
	// Through the sleep seam: an uncancelled hang must wait the maxHang
	// bound, then surface as a deadline error — asserted deterministically
	// by recording the requested sleep instead of reading the clock.
	in := New(1, Plan{"src": {Hang: true}})
	var slept []time.Duration
	in.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	_, err := in.apply(context.Background(), "src")
	if err == nil || !strings.Contains(err.Error(), "injected hang elapsed") {
		t.Fatalf("want hang-elapsed error, got %v", err)
	}
	if len(slept) != 1 || slept[0] != maxHang {
		t.Fatalf("hang slept %v, want one sleep of %v", slept, maxHang)
	}
}

func TestLatencyIsDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64) []time.Duration {
		in := New(seed, Plan{"src": {JitterLatency: time.Hour}})
		var out []time.Duration
		for i := 0; i < 8; i++ {
			out = append(out, in.decide("src").delay)
		}
		return out
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := draw(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter sequences")
	}
}

func TestAddLatencyDelays(t *testing.T) {
	// The injected sleep records the delay the injector asked for, so the
	// assertion is exact and wall-clock-free.
	in := New(1, Plan{"src": {AddLatency: 30 * time.Millisecond}})
	var slept time.Duration
	in.sleep = func(ctx context.Context, d time.Duration) error {
		slept += d
		return nil
	}
	if _, err := in.apply(context.Background(), "src"); err != nil {
		t.Fatal(err)
	}
	if slept != 30*time.Millisecond {
		t.Fatalf("injector slept %v, want 30ms", slept)
	}
}

// ctxKey marks a caller's context, so a test can see that a wrapped
// backend hands the inner one that same context.
type ctxKey struct{}

func TestWrapBackendsPagesFailThenRecover(t *testing.T) {
	var seen []any
	inner := extract.Backends{Pages: func(ctx context.Context, url string) (string, error) {
		seen = append(seen, ctx.Value(ctxKey{}))
		return webl.MapFetcher{"http://a/p": "<html>ok</html>"}.Fetch(url)
	}}
	in := New(1, Plan{"http://a/p": {FailFirst: 1}})
	wrapped := in.WrapBackends(inner).Pages
	ctx := context.WithValue(context.Background(), ctxKey{}, "rule")
	if _, err := wrapped(ctx, "http://a/p"); err == nil {
		t.Fatal("first fetch should fail")
	}
	html, err := wrapped(ctx, "http://a/p")
	if err != nil {
		t.Fatalf("second fetch: %v", err)
	}
	if html != "<html>ok</html>" {
		t.Fatalf("unexpected page %q", html)
	}
	if len(seen) != 1 || seen[0] != "rule" {
		t.Fatalf("inner backend saw contexts %v, want the caller's one", seen)
	}
}

func TestWrapBackendsCorruptsPages(t *testing.T) {
	c := datasource.NewCatalog()
	c.AddPage("http://a/p", "<html><body>hello</body></html>")
	in := New(1, Plan{"http://a/p": {Corrupt: true}})
	html, err := in.WrapBackends(extract.FromCatalog(c)).Pages(context.Background(), "http://a/p")
	if err != nil {
		t.Fatal(err)
	}
	if html == "<html><body>hello</body></html>" {
		t.Fatal("page was not corrupted")
	}
	if !strings.Contains(html, "<corrupted") {
		t.Fatalf("corrupted page missing marker: %q", html)
	}
}

func TestWrapBackendsDocCorruption(t *testing.T) {
	const page = "<catalog><watch><brand>Seiko</brand></watch></catalog>"
	c := datasource.NewCatalog()
	c.XML.MustAdd("cat.xml", page)
	c.XML.MustAdd("other.xml", page)
	c.Text.MustAdd("prices.txt", "brand=Seiko price=129.99")
	in := New(1, Plan{"cat.xml": {Corrupt: true}, "prices.txt": {Corrupt: true}})
	b := in.WrapBackends(extract.FromCatalog(c))
	brand := xmlpath.MustCompile("//brand")
	ctx := context.Background()

	root, err := b.XML(ctx, "cat.xml")
	if err != nil {
		t.Fatal(err)
	}
	if got := brand.SelectStrings(root); len(got) != 0 {
		t.Fatalf("corrupted XML document still yields records: %v", got)
	}
	content, err := b.Text(ctx, "prices.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(content, "<corrupted") || strings.Contains(content, "129.99") {
		t.Fatalf("text document not truncated: %q", content)
	}
	// Unplanned path passes through untouched.
	root, err = b.XML(ctx, "other.xml")
	if err != nil {
		t.Fatal(err)
	}
	if got := brand.SelectStrings(root); len(got) != 1 || got[0] != "Seiko" {
		t.Fatalf("unplanned target mangled: %v", got)
	}
	if in.Calls("cat.xml") != 1 || in.Calls("prices.txt") != 1 {
		t.Errorf("calls = %d, %d; want one operation per document read", in.Calls("cat.xml"), in.Calls("prices.txt"))
	}
}

// TestWrapBackendsFaultsEndWithCallerContext plans a Hang and an
// AddLatency fault on an XML, a text and a DB target and reads each
// under a context that has already passed its deadline. The sleep seam
// returns the context's error if it has one and reports a sleep under a
// live context, so a wrapper that applied its plan under any context
// but the caller's would be caught without waiting out the fault.
func TestWrapBackendsFaultsEndWithCallerContext(t *testing.T) {
	c := datasource.NewCatalog()
	c.XML.MustAdd("cat.xml", "<catalog/>")
	c.Text.MustAdd("prices.txt", "price=1")
	c.AddDB("mem://db", reldb.New())
	for _, fc := range []struct {
		name  string
		fault Fault
	}{{"hang", Fault{Hang: true}}, {"latency", Fault{AddLatency: time.Hour}}} {
		fault := fc.fault
		in := New(1, Plan{"cat.xml": fault, "prices.txt": fault, "mem://db": fault})
		in.sleep = func(ctx context.Context, d time.Duration) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			t.Errorf("%s: slept %v under a context that had not ended", fc.name, d)
			return nil
		}
		b := in.WrapBackends(extract.FromCatalog(c))
		ctx, cancel := context.WithTimeout(context.Background(), 0)
		reads := []struct {
			kind string
			read func() error
		}{
			{"xml", func() error { _, err := b.XML(ctx, "cat.xml"); return err }},
			{"text", func() error { _, err := b.Text(ctx, "prices.txt"); return err }},
			{"db", func() error { _, err := b.DB(ctx, "mem://db"); return err }},
		}
		for _, r := range reads {
			if err := r.read(); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("%s on %s: err = %v, want one wrapping context.DeadlineExceeded", fc.name, r.kind, err)
			}
		}
		cancel()
	}
}

func TestRoundTripperTransientIs503WithRetryAfter(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "payload")
	}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")

	in := New(1, Plan{host: {FailFirst: 1}})
	client := &http.Client{Transport: in.RoundTripper(http.DefaultTransport)}

	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After")
	}

	resp, err = client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "payload" {
		t.Fatalf("recovered call: status %d body %q", resp.StatusCode, body)
	}
}

func TestRoundTripperPermanentIs500(t *testing.T) {
	in := New(1, Plan{"example.invalid": {Permanent: true}})
	rt := in.RoundTripper(http.DefaultTransport)
	req, _ := http.NewRequest(http.MethodGet, "http://example.invalid/q", nil)
	resp, err := rt.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
}

func TestRoundTripperCorruptsBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "<html><body>clean payload body</body></html>")
	}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")

	in := New(1, Plan{host: {Corrupt: true}})
	client := &http.Client{Transport: in.RoundTripper(nil)}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "<corrupted") {
		t.Fatalf("body not corrupted: %q", body)
	}
}

func TestSameSeedSamePlanIsReproducible(t *testing.T) {
	run := func() []bool {
		in := New(7, Plan{
			"a": {FailFirst: 2},
			"b": {FlapFail: 1, FlapOK: 1},
		})
		var outcomes []bool
		for i := 0; i < 6; i++ {
			_, errA := in.apply(context.Background(), "a")
			_, errB := in.apply(context.Background(), "b")
			outcomes = append(outcomes, errA != nil, errB != nil)
		}
		return outcomes
	}
	first, second := run(), run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("outcome %d diverged between identical runs", i)
		}
	}
}
