package instance

// mux.go is the wire format of the multi-query batch endpoint
// (POST /query/batch): N logical result documents multiplexed over one
// chunked HTTP response body. The format is line-framed so a client can
// demultiplex incrementally:
//
//	=n <count>\n            batch header: how many queries follow
//	=b <i>\n                query i's body begins
//	=c <i> <size>\n<bytes>  one chunk of query i's body, size raw bytes
//	=t <i> k=v k=v ...\n    query i's trailer (values query-escaped)
//
// Frames are tagged with the query index, so the demultiplexer accepts
// any interleaving; the server writes each query's frames contiguously
// in query order. Body bytes inside =c frames are the exact bytes the
// single-query endpoint would produce for the same query and format —
// the batch equivalence suite in internal/core pins that.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// MuxWriter multiplexes the batch response. Frame writes are serialized
// by a mutex so per-query streams could be fed concurrently; the
// middleware writes them sequentially, which keeps the wire layout
// deterministic.
type MuxWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// NewMuxWriter returns a MuxWriter framing onto w.
func NewMuxWriter(w io.Writer) *MuxWriter {
	return &MuxWriter{w: w}
}

// Header writes the batch header frame announcing n queries.
func (m *MuxWriter) Header(n int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, err := fmt.Fprintf(m.w, "=n %d\n", n)
	return err
}

// Begin writes query i's begin frame.
func (m *MuxWriter) Begin(i int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, err := fmt.Fprintf(m.w, "=b %d\n", i)
	return err
}

// Stream returns the io.Writer for query i's body; every Write becomes
// one chunk frame. Hand it to the chunked serializer so each serialized
// chunk maps to one frame on the wire.
func (m *MuxWriter) Stream(i int) io.Writer {
	return muxStream{m: m, i: i}
}

// Trailer writes query i's trailer frame. Keys are emitted in sorted
// order and values are query-escaped, so any string (error messages
// included) survives the line framing.
func (m *MuxWriter) Trailer(i int, kv map[string]string) error {
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	fmt.Fprintf(&sb, "=t %d", i)
	for _, k := range keys {
		sb.WriteByte(' ')
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(url.QueryEscape(kv[k]))
	}
	sb.WriteByte('\n')
	m.mu.Lock()
	defer m.mu.Unlock()
	_, err := io.WriteString(m.w, sb.String())
	return err
}

type muxStream struct {
	m *MuxWriter
	i int
}

func (s muxStream) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	if _, err := fmt.Fprintf(s.m.w, "=c %d %d\n", s.i, len(p)); err != nil {
		return 0, err
	}
	return s.m.w.Write(p)
}

// maxFrameLine bounds one frame line of a batch response. The longest
// legitimate line is a trailer echoing an error about a request of up
// to 1 MiB, which query-escaping can triple; a longer line is refused
// instead of read into memory whole.
const maxFrameLine = 4 << 20

// readFrameLine reads one frame line, newline included, refusing it
// once it passes maxFrameLine bytes. At EOF it returns what it read
// with io.EOF, as bufio.Reader.ReadString does.
func readFrameLine(br *bufio.Reader) (string, error) {
	var line []byte
	for {
		frag, err := br.ReadSlice('\n')
		if len(line)+len(frag) > maxFrameLine {
			return "", fmt.Errorf("instance: batch frame line exceeds %d bytes", maxFrameLine)
		}
		line = append(line, frag...)
		if err != bufio.ErrBufferFull {
			return string(line), err
		}
	}
}

// DemuxedResult is one query's reassembled slice of the batch response.
type DemuxedResult struct {
	// Body is the query's complete serialized result document — the
	// concatenation of its chunk frames.
	Body []byte
	// Trailer carries the query's trailer fields, values unescaped.
	Trailer map[string]string
	// Began reports whether a begin frame arrived for the query; a
	// query that failed before serialization has a trailer but no body.
	Began bool
}

// DemuxBatch reads a complete batch response of at most n queries from r
// and reassembles the per-query results, indexed as the queries were
// submitted. The stream comes off the network, so nothing it declares is
// trusted: a frame index outside [0, n) is an error, a frame line
// longer than maxFrameLine is refused, and a chunk's declared size
// allocates nothing ahead of the bytes that actually arrive.
func DemuxBatch(r io.Reader, n int) ([]DemuxedResult, error) {
	br := bufio.NewReader(r)
	var results []DemuxedResult
	at := func(i int) (*DemuxedResult, error) {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("instance: batch frame index %d out of range [0, %d)", i, n)
		}
		for i >= len(results) {
			results = append(results, DemuxedResult{})
		}
		return &results[i], nil
	}
	for {
		line, err := readFrameLine(br)
		if err == io.EOF && line == "" {
			return results, nil
		}
		if err != nil {
			return results, fmt.Errorf("instance: reading batch frame: %w", err)
		}
		line = strings.TrimSuffix(line, "\n")
		fields := strings.Split(line, " ")
		if len(fields) < 2 {
			return results, fmt.Errorf("instance: malformed batch frame %q", line)
		}
		idx, err := strconv.Atoi(fields[1])
		if err != nil {
			return results, fmt.Errorf("instance: malformed batch frame index %q", line)
		}
		switch fields[0] {
		case "=n":
			if _, err := at(idx - 1); idx > 0 && err != nil {
				return results, err
			}
		case "=b":
			res, err := at(idx)
			if err != nil {
				return results, err
			}
			res.Began = true
		case "=c":
			if len(fields) != 3 {
				return results, fmt.Errorf("instance: malformed chunk frame %q", line)
			}
			size, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil || size < 0 {
				return results, fmt.Errorf("instance: malformed chunk size %q", line)
			}
			res, err := at(idx)
			if err != nil {
				return results, err
			}
			body := bytes.NewBuffer(res.Body)
			_, err = io.CopyN(body, br, size)
			res.Body = body.Bytes()
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			if err != nil {
				return results, fmt.Errorf("instance: reading %d-byte chunk: %w", size, err)
			}
		case "=t":
			res, err := at(idx)
			if err != nil {
				return results, err
			}
			if res.Trailer == nil {
				res.Trailer = make(map[string]string, len(fields)-2)
			}
			for _, kv := range fields[2:] {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return results, fmt.Errorf("instance: malformed trailer field %q", kv)
				}
				uv, err := url.QueryUnescape(v)
				if err != nil {
					return results, fmt.Errorf("instance: malformed trailer value %q: %w", kv, err)
				}
				res.Trailer[k] = uv
			}
		default:
			return results, fmt.Errorf("instance: unknown batch frame %q", line)
		}
	}
}
