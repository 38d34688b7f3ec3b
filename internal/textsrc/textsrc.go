// Package textsrc implements the middleware's unstructured plain-text data
// source substrate (paper §2.1: "unstructured (e.g. Web pages and plain
// text files)"). Documents are stored by ID and queried with regular
// expression extraction rules, compiled once by the caller with
// rxscan.Compile and run with ExtractCompiled. A rule of the delimited
// shape every generated text rule has — a literal, a captured class run,
// an optional literal, as in `price=([0-9.]+)` — runs as a literal scan
// with no regexp automaton; any other rule runs through package regexp
// with the same matches.
package textsrc

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/rxscan"
)

// Store holds plain-text documents by ID. Store is safe for concurrent use.
type Store struct {
	mu    sync.RWMutex
	files map[string]string
}

// New returns an empty store.
func New() *Store {
	return &Store{files: make(map[string]string)}
}

// Add stores a document, replacing any previous content under the same ID.
func (s *Store) Add(id, content string) error {
	if id == "" {
		return fmt.Errorf("textsrc: document ID is empty")
	}
	s.mu.Lock()
	s.files[id] = content
	s.mu.Unlock()
	return nil
}

// MustAdd is Add but panics on error; for static fixtures.
func (s *Store) MustAdd(id, content string) {
	if err := s.Add(id, content); err != nil {
		panic(err)
	}
}

// Get returns a document's content.
func (s *Store) Get(id string) (string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	content, ok := s.files[id]
	if !ok {
		return "", fmt.Errorf("textsrc: no document %q", id)
	}
	return content, nil
}

// IDs returns all document IDs in sorted order.
func (s *Store) IDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.files))
	for id := range s.files {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ExtractCompiled runs a compiled regular expression rule over document
// content and returns one value per match: the first capture group when
// the pattern has groups, the whole match otherwise. Each value is a
// substring of content.
func ExtractCompiled(content string, re *rxscan.Regexp) []string {
	g := 0
	if re.NumSubexp() > 0 {
		g = 1
	}
	out := []string{}
	re.Each(content, func(loc []int) {
		if loc[2*g] < 0 {
			out = append(out, "")
			return
		}
		out = append(out, content[loc[2*g]:loc[2*g+1]])
	})
	return out
}
