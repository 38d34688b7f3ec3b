// Package textsrc implements the middleware's unstructured plain-text data
// source substrate (paper §2.1: "unstructured (e.g. Web pages and plain
// text files)"). Documents are stored by ID and queried with regular
// expression extraction rules, compiled once by the caller and run with
// ExtractCompiled.
package textsrc

import (
	"fmt"
	"regexp"
	"sort"
	"sync"
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
// the pattern has groups, the whole match otherwise.
func ExtractCompiled(content string, re *regexp.Regexp) []string {
	matches := re.FindAllStringSubmatch(content, -1)
	out := make([]string, 0, len(matches))
	for _, m := range matches {
		if len(m) > 1 {
			out = append(out, m[1])
		} else {
			out = append(out, m[0])
		}
	}
	return out
}
