package extract

// stream.go is the windowed form of the extraction run: the same engine
// as ExtractQuery (planRun + execute), with each completed source's
// fragments cut into record-scoped batches and sent down a channel
// instead of appended to a ResultSet. Only the eager query path consumes
// it — a merge-free query in an instance-incremental format — because
// only there can a window be assembled, serialized, and put on the wire
// before the slowest source finishes. A source's fragments are complete
// before they are windowed, so for every other query the channel
// hand-off would release nothing early and the materialized path is
// used (see docs/STREAMING.md).

import (
	"context"
	"sort"
	"strconv"

	"repro/internal/obs"
)

// DefaultStreamBatchRecords is the record-window size of a streaming
// fragment batch when Options.StreamBatchRecords is 0.
const DefaultStreamBatchRecords = 64

// Batch is one record window of one source's extracted fragments.
type Batch struct {
	// SourceID is the contributing data source.
	SourceID string
	// Seq numbers the source's batches from 0. Per-source diagnostics
	// that would repeat identically in every window (unmapped-attribute
	// errors) are emitted by consumers only for Seq 0.
	Seq int
	// Records is how many of the source's records this window covers.
	Records int
	// Fragments carry the window's values, sorted by attribute ID.
	// Every fragment of the source appears in every window — the
	// instance generator's lineage partition depends on the full
	// attribute sequence — with Values sliced to the window's records
	// (capacity-capped aliases of the extracted values, not copies); a
	// fragment whose records are exhausted carries an empty Values.
	Fragments []Fragment
	// Last marks the source's final window. Every source that ran emits
	// at least one batch: a source with no extractable records still
	// sends a single empty Last batch so consumers observe it complete
	// (and can surface its Seq-0 diagnostics).
	Last bool
}

// Stream is a windowed extraction run in progress.
type Stream struct {
	// Batches delivers fragment batches as sources complete. The channel
	// is unbuffered: a slow consumer exerts backpressure on extraction
	// instead of letting fragments pile up. Batches of one source arrive
	// in Seq order; batches of different sources interleave in
	// completion order.
	Batches <-chan Batch

	// Sources lists the IDs of every planned source in sorted order —
	// the canonical emission order. The eager consumer
	// (instance.GenerateEager) emits the lowest unemitted source's
	// windows directly and buffers later sources against this list.
	Sources []string

	done chan struct{}
	tail *ResultSet
}

// Tail returns everything that is only known once every source has
// finished — errors, missing attributes, and stats — as a ResultSet
// whose Fragments are empty (they went out as batches). It blocks until
// the producer finishes, which requires Batches to have been drained
// (the channel is unbuffered) — call it only after the Batches channel
// closed.
func (s *Stream) Tail() *ResultSet {
	<-s.done
	return s.tail
}

// Drain discards whatever the run has yet to deliver and returns once
// the producer goroutine has exited (its span ended, its deadline budget
// released). A consumer that stops reading Batches early must call it:
// the channel is unbuffered, so an abandoned producer would block on its
// next send forever.
func (s *Stream) Drain() {
	for range s.Batches {
	}
	<-s.done
}

// ExtractQueryStream is ExtractQuery in windowed form: the same
// schema's source plans fan out, and each source emits record-scoped
// fragment batches on the returned Stream instead of into a
// materialized ResultSet. The extract span records one "stream_batch"
// event per emitted batch and the s2s_stream_batches_total counter
// counts them per source. The caller must consume Batches to the end or
// call Drain.
func (m *Manager) ExtractQueryStream(ctx context.Context, s *Schema) (*Stream, error) {
	ctx, r, err := m.planRun(ctx, s, nil, nil)
	if err != nil {
		return nil, err
	}
	batchRecords := m.opts.StreamBatchRecords
	if batchRecords <= 0 {
		batchRecords = DefaultStreamBatchRecords
	}
	ch := make(chan Batch)
	st := &Stream{Batches: ch, done: make(chan struct{}), tail: r.rs}
	st.Sources = make([]string, len(r.plans))
	for i := range r.plans {
		st.Sources[i] = r.plans[i].Source.ID
	}
	sort.Strings(st.Sources)

	// Batches of semi-join wave-two sources simply arrive after wave one
	// completes, which the consumer's by-source buffering tolerates.
	go func() {
		defer close(st.done)
		defer r.end()
		r.execute(ctx, func(sourceID string, frags []Fragment) {
			m.sendBatches(ctx, ch, r.espan, r.metrics, sourceID, frags, batchRecords)
		})
		close(ch)
	}()
	return st, nil
}

// sendBatches windows one source's fragments into record-scoped batches
// and sends them in Seq order. Within one source the materializing
// path's global (attribute, source) fragment sort reduces to an
// attribute sort, so sorting here keeps windowed assembly and the
// materializing path byte-identical. Values are aliased, never copied.
// Sends abort when ctx is done (the consumer has given up).
func (m *Manager) sendBatches(ctx context.Context, ch chan<- Batch, espan *obs.Span, metrics *obs.Registry, sourceID string, frags []Fragment, batchRecords int) {
	sort.SliceStable(frags, func(i, j int) bool { return frags[i].AttributeID < frags[j].AttributeID })
	records := 0
	for _, f := range frags {
		if len(f.Values) > records {
			records = len(f.Values)
		}
	}
	batches := 1
	if records > batchRecords {
		batches = (records + batchRecords - 1) / batchRecords
	}
	counter := metrics.Counter(obs.MetricStreamBatches, obs.Labels{"source": sourceID})
	for seq := 0; seq < batches; seq++ {
		lo := seq * batchRecords
		hi := lo + batchRecords
		if hi > records {
			hi = records
		}
		b := Batch{SourceID: sourceID, Seq: seq, Records: hi - lo, Last: seq == batches-1}
		if len(frags) > 0 {
			b.Fragments = make([]Fragment, len(frags))
			for i, f := range frags {
				wlo, whi := lo, hi
				if wlo > len(f.Values) {
					wlo = len(f.Values)
				}
				if whi > len(f.Values) {
					whi = len(f.Values)
				}
				f.Values = f.Values[wlo:whi:whi]
				b.Fragments[i] = f
			}
		}
		select {
		case ch <- b:
		case <-ctx.Done():
			return
		}
		counter.Inc()
		espan.AddEvent("stream_batch", map[string]string{
			"source":    sourceID,
			"seq":       strconv.Itoa(seq),
			"records":   strconv.Itoa(b.Records),
			"fragments": strconv.Itoa(len(b.Fragments)),
		})
	}
}
