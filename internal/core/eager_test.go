package core_test

// eager_test.go pins the eager path's contract: on a world whose
// queries the planner proves merge-free (the flat paper ontology — no
// relations, no class keys), QueryToStream — eager for JSON and XML,
// materialized for the rest — produces byte-identical output to QueryTo
// for every query and format; an eager run whose writer fails leaves no
// goroutine behind; a source held back delays only the instances that
// canonically follow it; and the multi-query batch pipeline answers
// exactly like N sequential single queries.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/instance"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/workload"
	"repro/internal/xmlpath"
)

func buildFlatWorld(t *testing.T, opts extract.Options) *core.Middleware {
	t.Helper()
	spec := workload.Spec{
		DBSources: 2, XMLSources: 2, WebSources: 2, TextSources: 2,
		RecordsPerSource: 12,
		Seed:             21,
		FlatOntology:     true,
	}
	world := workload.MustGenerate(spec)
	mw, err := core.New(core.Config{
		Ontology: world.Ontology,
		Backends: extract.FromCatalog(world.Catalog),
		Extract:  opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := world.Apply(mw); err != nil {
		t.Fatal(err)
	}
	return mw
}

// TestFlatWorldProvesMergeFree guards the fixture itself: every
// equivalence query must prove merge-free on the flat world, otherwise
// the eager tests below would silently exercise the materialized path.
func TestFlatWorldProvesMergeFree(t *testing.T) {
	ctx := context.Background()
	mw := buildFlatWorld(t, extract.Options{})
	for _, q := range equivalenceQueries {
		_, mergeFree, err := mw.PlanMergeFree(ctx, q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if !mergeFree {
			t.Errorf("%q: not proved merge-free on the flat world", q)
		}
	}
	if n := mw.Metrics().Counter(obs.MetricPlannerMergeFree, obs.Labels{"outcome": obs.OutcomeMergeFreeProved}).Value(); n == 0 {
		t.Error("s2s_planner_mergefree_total{outcome=proved} = 0, want > 0")
	}
}

// TestEagerStreamingEquivalence is the byte-equivalence suite on the
// flat world: JSON and XML answers stream eagerly, the other formats
// materialize, and all must match QueryTo byte for byte.
func TestEagerStreamingEquivalence(t *testing.T) {
	checkStreamBytesMatchQueryTo(t, buildFlatWorld)
}

// TestEagerResultMatchesBarrier compares the structured result — counts
// and error lists — returned alongside the eager bytes with the
// materialized one.
func TestEagerResultMatchesBarrier(t *testing.T) {
	checkStreamResultMatchesQueryTo(t, buildFlatWorld)
}

// failAfterFirstWrite accepts one chunk, then fails every write.
type failAfterFirstWrite struct{ writes int }

var errWriterGone = errors.New("writer gone")

func (w *failAfterFirstWrite) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > 1 {
		return 0, errWriterGone
	}
	return len(p), nil
}

// TestEagerWriterFailureLeavesNoGoroutines fails the writer of an eager
// query after its first chunk: QueryToStream must return that error, and
// the extraction run must be over — every source goroutine returned and
// the deadline budget's cancel ran — which shows as the goroutine count
// settling back to where it started.
func TestEagerWriterFailureLeavesNoGoroutines(t *testing.T) {
	mw := buildFlatWorld(t, extract.Options{QueryBudget: time.Minute})
	ctx := context.Background()
	// Warm the caches (and any lazily started runtime goroutines) first.
	if _, _, err := mw.QueryToStream(ctx, io.Discard, "SELECT product", instance.FormatJSON); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	w := &failAfterFirstWrite{}
	_, _, err := mw.QueryToStream(ctx, w, "SELECT product", instance.FormatJSON)
	if !errors.Is(err, errWriterGone) {
		t.Fatalf("QueryToStream error = %v, want the writer's error", err)
	}
	if w.writes < 2 {
		t.Fatalf("writer saw %d writes; the failure never triggered", w.writes)
	}
	if report := leakcheck.Settle(before); report != "" {
		t.Fatalf("after the failed eager query: %s", report)
	}
}

// TestQueryBatchMatchesSequential runs the equivalence suite as one
// batch and as N sequential queries on identically built worlds; every
// per-query result must serialize byte-identically, and a bad query in
// the batch must fail alone.
func TestQueryBatchMatchesSequential(t *testing.T) {
	ctx := context.Background()
	seq := buildEquivalenceWorld(t, extract.Options{})
	batch := buildEquivalenceWorld(t, extract.Options{})

	results, errs := batch.QueryBatchTo(ctx, equivalenceQueries, instance.FormatJSON, nil, nil)
	for i, q := range equivalenceQueries {
		if errs[i] != nil {
			t.Fatalf("batch %q: %v", q, errs[i])
		}
		want, err := queryString(ctx, seq, q, instance.FormatJSON)
		if err != nil {
			t.Fatalf("sequential %q: %v", q, err)
		}
		var got strings.Builder
		if err := batch.Generator().Serialize(&got, results[i], instance.FormatJSON); err != nil {
			t.Fatalf("serializing batch result %q: %v", q, err)
		}
		if got.String() != want {
			t.Errorf("%q: batch result diverges from sequential\nwant:\n%s\ngot:\n%s", q, clip(want), clip(got.String()))
		}
	}

	queries := []string{"SELECT product", "SELECT nonsense FROM", "SELECT provider"}
	results, errs = batch.QueryBatchTo(ctx, queries, instance.FormatJSON, nil, nil)
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("good queries failed: %v / %v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Error("malformed query in batch did not fail")
	}
	if results[0] == nil || results[2] == nil || results[1] != nil {
		t.Errorf("result slots = [%v %v %v], want [set nil set]",
			results[0] != nil, results[1] != nil, results[2] != nil)
	}
}

// TestQueryBatchToSinksEveryResult checks the serializing variant: each
// member's sink sees its result exactly once, in query order, and is
// serialized under that query's own span; an error from a sink becomes
// that query's error while its siblings still answer; and done runs for
// every member, in order, right after the member is answered.
func TestQueryBatchToSinksEveryResult(t *testing.T) {
	ctx := context.Background()
	mw := buildEquivalenceWorld(t, extract.Options{})
	queries := []string{"SELECT product", "SELECT provider", "SELECT watch"}
	var seen, finished []int
	bodies := make([]bytes.Buffer, len(queries))
	_, errs := mw.QueryBatchTo(ctx, queries, instance.FormatJSON, func(i int) *core.Sink {
		return &core.Sink{W: &bodies[i], Begin: func(res *instance.Result) error {
			seen = append(seen, i)
			if len(finished) != i {
				t.Errorf("sink %d began after done ran for %v", i, finished)
			}
			if res == nil {
				t.Errorf("sink %d: nil result", i)
			}
			if i == 1 {
				return context.Canceled
			}
			return nil
		}}
	}, func(i int, res *instance.Result, err error) {
		finished = append(finished, i)
		if len(seen) != i+1 {
			t.Errorf("done %d ran with sinks %v begun", i, seen)
		}
	})
	if len(seen) != 3 || seen[0] != 0 || seen[1] != 1 || seen[2] != 2 {
		t.Errorf("sink order = %v, want [0 1 2]", seen)
	}
	if len(finished) != 3 || finished[0] != 0 || finished[1] != 1 || finished[2] != 2 {
		t.Errorf("done order = %v, want [0 1 2]", finished)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Errorf("unexpected errors: %v / %v", errs[0], errs[2])
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "canceled") {
		t.Errorf("sink error not propagated: %v", errs[1])
	}

	// The sink gets no context, so read the parentage from the batch's
	// trace: each answered member's serialize span hangs off its own
	// query span.
	batch := mw.Tracer().Last(1)[0]
	if batch.Name != "batch" {
		t.Fatalf("last trace is %q, want the batch", batch.Name)
	}
	querySpan := map[string]string{} // query span ID -> query text
	serializeParents := map[string]int{}
	batch.Walk(func(s *obs.Span) {
		switch s.Name {
		case "query":
			querySpan[s.ID] = s.Attrs["query"]
		case "serialize":
			serializeParents[s.ParentID]++
		}
	})
	for id, q := range querySpan {
		want := 1
		if q == queries[1] {
			want = 0 // its sink failed before serialization began
		}
		if serializeParents[id] != want {
			t.Errorf("%q: %d serialize spans under its query span, want %d", q, serializeParents[id], want)
		}
	}
	if len(querySpan) != len(queries) {
		t.Errorf("batch trace has %d query spans, want %d", len(querySpan), len(queries))
	}
	for _, i := range []int{0, 2} {
		want, err := queryString(ctx, mw, queries[i], instance.FormatJSON)
		if err != nil {
			t.Fatal(err)
		}
		if bodies[i].String() != want {
			t.Errorf("%q: sink body diverges from QueryTo", queries[i])
		}
	}
	if bodies[1].Len() != 0 {
		t.Errorf("failed sink received %d bytes", bodies[1].Len())
	}
}

// gatedXML holds every read of one XML document until release closes;
// entered closes when the first such read arrives.
type gatedXML struct {
	extract.Backend[*xmlpath.Node]
	path    string
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (g *gatedXML) Get(ctx context.Context, path string) (*xmlpath.Node, error) {
	if path == g.path {
		g.once.Do(func() { close(g.entered) })
		<-g.release
	}
	return g.Backend(ctx, path)
}

// notifyWriter records what reached the wire and signals every write.
type notifyWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	wrote chan struct{}
}

func (w *notifyWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.buf.Write(p)
	w.mu.Unlock()
	select {
	case w.wrote <- struct{}{}:
	default:
	}
	return len(p), nil
}

func (w *notifyWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// gatedEagerQuery runs "SELECT product" as JSON through QueryToStream
// on a three-source flat world (xml_000, xml_001, xml_002: canonical
// order is their ID order) whose XML backend holds the document at
// blockedPath. It returns the reference bytes from QueryTo on an
// ungated copy of the world, the gate, the writer, and a channel that
// yields QueryToStream's error once the query returns.
func gatedEagerQuery(t *testing.T, blockedPath string) (want string, mw *core.Middleware, gate *gatedXML, w *notifyWriter, done <-chan error) {
	t.Helper()
	ctx := context.Background()
	spec := workload.Spec{XMLSources: 3, RecordsPerSource: 12, Seed: 21, FlatOntology: true}
	build := func(xml extract.Backend[*xmlpath.Node]) *core.Middleware {
		world := workload.MustGenerate(spec)
		backends := extract.FromCatalog(world.Catalog)
		if xml != nil {
			backends.XML = xml
		}
		mw, err := core.New(core.Config{Ontology: world.Ontology, Backends: backends})
		if err != nil {
			t.Fatal(err)
		}
		if err := world.Apply(mw); err != nil {
			t.Fatal(err)
		}
		return mw
	}
	want, err := queryString(ctx, build(nil), "SELECT product", instance.FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	gate = &gatedXML{
		Backend: extract.FromCatalog(workload.MustGenerate(spec).Catalog).XML,
		path:    blockedPath,
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	mw = build(gate.Get)
	w = &notifyWriter{wrote: make(chan struct{}, 1)}
	errs := make(chan error, 1)
	go func() {
		_, _, err := mw.QueryToStream(ctx, w, "SELECT product", instance.FormatJSON)
		errs <- err
	}()
	t.Cleanup(func() {
		select {
		case <-gate.release:
		default:
			close(gate.release)
		}
	})
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the gated document was never read")
	}
	return want, mw, gate, w, errs
}

// finishGatedQuery releases the gate and checks that the query then
// completes with exactly QueryTo's bytes.
func finishGatedQuery(t *testing.T, want string, mw *core.Middleware, gate *gatedXML, w *notifyWriter, done <-chan error) {
	t.Helper()
	close(gate.release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("QueryToStream did not return after the release")
	}
	if got := w.String(); got != want {
		t.Errorf("QueryToStream diverges from QueryTo\nQueryTo:\n%s\nQueryToStream:\n%s", clip(want), clip(got))
	}
	if !lastQueryWasEager(mw) {
		t.Error("the query did not take the eager path")
	}
}

// TestEagerEmitsAheadOfBlockedSource holds the canonically last
// source's document: while it is held, the writer must already have
// received the head and the first source's instances, as a prefix of
// QueryTo's bytes, and nothing of the held source.
func TestEagerEmitsAheadOfBlockedSource(t *testing.T) {
	want, mw, gate, w, done := gatedEagerQuery(t, "catalog-002.xml")
	// Each source contributes 12 instances, numbered in canonical order.
	firstSourceDone := `"watch_12"`
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	for !strings.Contains(w.String(), firstSourceDone) {
		select {
		case <-w.wrote:
		case <-timeout.C:
			t.Fatalf("the first source's instances never reached the writer while the last source was held; got:\n%s", clip(w.String()))
		}
	}
	got := w.String()
	if !strings.HasPrefix(want, got) {
		t.Fatalf("bytes written ahead of the held source are not a prefix of QueryTo's:\n%s", clip(got))
	}
	if strings.Contains(got, `"watch_25"`) {
		t.Errorf("the held source's instances were written before its document was read")
	}
	finishGatedQuery(t, want, mw, gate, w, done)
}

// TestEagerBlockedFirstSourceKeepsOrder holds the canonically first
// source's document until both later sources finished extracting: no
// byte may reach the writer ahead of the first source, and once it is
// released the stashed sources follow it in canonical order, so the
// bytes equal QueryTo's.
func TestEagerBlockedFirstSourceKeepsOrder(t *testing.T) {
	want, mw, gate, w, done := gatedEagerQuery(t, "catalog-000.xml")
	deadline := time.Now().Add(10 * time.Second)
	for _, id := range []string{"xml_001", "xml_002"} {
		for mw.Metrics().Counter(obs.MetricSourceExtractTotal, obs.Labels{"source": id, "outcome": "ok"}).Value() == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s never finished while xml_000 was held", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if got := w.String(); got != "" {
		t.Fatalf("bytes reached the writer ahead of the held first source:\n%s", clip(got))
	}
	finishGatedQuery(t, want, mw, gate, w, done)
}
