package repro

// streaming_docs_test.go holds the two repo-level guarantees of the
// chunked query path: the bounded-memory claim E18 measures (peak
// buffered bytes stay flat while source rows grow 10x), and the
// doc-drift checks that keep docs/STREAMING.md in lockstep with the
// knobs, wire protocol, and observability names the code exports —
// the same regime docs/OBSERVABILITY.md lives under.

import (
	"context"
	"fmt"
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/workload"
)

const streamingDocPath = "docs/STREAMING.md"

func buildStreamingMW(t *testing.T, records int) *core.Middleware {
	t.Helper()
	world := workload.MustGenerate(workload.Spec{
		DBSources: 1, XMLSources: 1, TextSources: 1,
		RecordsPerSource: records, Seed: 18,
	})
	mw, err := core.NewWithCatalog(world.Ontology, world.Catalog, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := world.Apply(mw); err != nil {
		t.Fatal(err)
	}
	return mw
}

// TestStreamingBoundedMemory is the acceptance check behind E18: when
// source rows grow 10x, QueryToStream's peak buffered output
// (ChunkStats.HighWater — the most bytes ever held before a flush)
// must stay flat, within 1.5x. Total bytes must still grow with the
// rows, proving the flat high-water mark is buffering discipline and
// not a smaller answer.
func TestStreamingBoundedMemory(t *testing.T) {
	ctx := context.Background()
	run := func(records int) instance.ChunkStats {
		mw := buildStreamingMW(t, records)
		_, stats, err := mw.QueryToStream(ctx, io.Discard, "SELECT product", instance.FormatJSON)
		if err != nil {
			t.Fatalf("records=%d: %v", records, err)
		}
		return stats
	}
	base := run(100)
	big := run(1000)

	if big.Bytes < base.Bytes*5 {
		t.Fatalf("10x rows produced %d bytes vs %d at 1x; output did not grow, flatness proves nothing",
			big.Bytes, base.Bytes)
	}
	if limit := base.HighWater * 3 / 2; big.HighWater > limit {
		t.Errorf("high-water mark grew with input: %d bytes at 10x rows, %d at 1x (limit 1.5x = %d)",
			big.HighWater, base.HighWater, limit)
	}
	if base.HighWater == 0 || big.Chunks <= base.Chunks {
		t.Errorf("chunk stats implausible: base high-water %d, chunks %d -> %d",
			base.HighWater, base.Chunks, big.Chunks)
	}
}

// TestStreamingDocCoversKnobs keeps docs/STREAMING.md in lockstep with
// the configuration surface: the chunk flush threshold and the CLI flag
// — and every extract.Options field the doc names must exist, so a
// deleted knob cannot linger in the text.
func TestStreamingDocCoversKnobs(t *testing.T) {
	doc := readStreamingDoc(t)
	for _, want := range []string{
		fmt.Sprintf("%d KiB", instance.DefaultChunkSize/1024),
		"`s2s-query -stream`",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("%s does not mention %s", streamingDocPath, want)
		}
	}
	opts := reflect.TypeOf(extract.Options{})
	for _, m := range regexp.MustCompile("`extract\\.Options\\.(\\w+)`").FindAllStringSubmatch(doc, -1) {
		if _, ok := opts.FieldByName(m[1]); !ok {
			t.Errorf("%s names %s, which is not a field of extract.Options", streamingDocPath, m[0])
		}
	}
	if strings.Contains(doc, "s2s-server -stream") {
		t.Errorf("%s still documents the removed s2s-server -stream flag", streamingDocPath)
	}
}

// TestStreamingDocCoversWireProtocol pins the documented HTTP surface
// to the exported header and trailer names: a rename in the transport
// without a doc update fails here, and so does documenting a header
// the server no longer sends.
func TestStreamingDocCoversWireProtocol(t *testing.T) {
	doc := readStreamingDoc(t)
	for _, want := range []string{
		"/query/stream",
		transport.StreamMatchedHeader,
		transport.StreamRelatedHeader,
		transport.StreamCompleteTrailer,
		transport.StreamErrorsTrailer,
		transport.StreamErrorTrailer,
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("%s does not mention %s", streamingDocPath, want)
		}
	}
}

// TestStreamingDocCoversStagesAndSignals checks the documented pipeline
// stages and observability hooks: the four stages of the eager path,
// the extraction entry that feeds its sink, and the span attribute that
// marks an eager query.
func TestStreamingDocCoversStagesAndSignals(t *testing.T) {
	doc := readStreamingDoc(t)
	for _, want := range []string{
		"extract", "assemble", "serialize", "flush",
		"`ExtractQueryEach`",
		"`eager=true`",
		"backpressure",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("%s does not mention %s", streamingDocPath, want)
		}
	}
}

// TestStreamingDocCoversBarrierFree pins the barrier-free section: the
// mode header and its values, the two entry points and the selector
// between the two ways, the proof counter, and the batch endpoint's
// wire names must all be documented — and the documented fallback
// matrix must match instance.EagerFormat.
func TestStreamingDocCoversBarrierFree(t *testing.T) {
	doc := readStreamingDoc(t)
	for _, want := range []string{
		transport.StreamModeHeader,
		transport.StreamModeEager,
		transport.StreamModeBarrier,
		"`QueryTo`", "`QueryToStream`", "`Middleware.EagerStream`",
		obs.MetricPlannerMergeFree,
		"/query/batch",
		transport.BatchContentType,
		"BenchmarkE21FirstInstance",
		"first_instance_ns",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("%s does not mention %s", streamingDocPath, want)
		}
	}
	for _, row := range []string{
		"| JSON | eager | barrier |",
		"| XML | eager | barrier |",
	} {
		if !strings.Contains(doc, row) {
			t.Errorf("%s fallback matrix missing row %q", streamingDocPath, row)
		}
	}
	if instance.EagerFormat(instance.FormatOWL) || instance.EagerFormat(instance.FormatText) ||
		!instance.EagerFormat(instance.FormatJSON) || !instance.EagerFormat(instance.FormatXML) {
		t.Error("instance.EagerFormat diverged from the documented fallback matrix")
	}
}

func readStreamingDoc(t *testing.T) string {
	t.Helper()
	raw, err := os.ReadFile(streamingDocPath)
	if err != nil {
		t.Fatalf("read %s: %v", streamingDocPath, err)
	}
	return string(raw)
}
