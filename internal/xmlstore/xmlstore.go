// Package xmlstore implements the middleware's semi-structured data source
// substrate: a store of named XML documents queried with xmlpath extraction
// rules (paper §2.1 lists XML as the canonical semi-structured B2B format).
// The store serves parsed documents; the extraction layer runs compiled
// xmlpath rules over them.
package xmlstore

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/xmlpath"
)

// Store holds parsed XML documents by ID. The zero value is not usable;
// construct with New. Store is safe for concurrent use.
type Store struct {
	mu   sync.RWMutex
	docs map[string]*xmlpath.Node
}

// New returns an empty store.
func New() *Store {
	return &Store{docs: make(map[string]*xmlpath.Node)}
}

// Add parses and stores a document under the given ID, replacing any
// previous document with that ID.
func (s *Store) Add(id, doc string) error {
	if id == "" {
		return fmt.Errorf("xmlstore: document ID is empty")
	}
	root, err := xmlpath.ParseString(doc)
	if err != nil {
		return fmt.Errorf("xmlstore: document %q: %w", id, err)
	}
	s.mu.Lock()
	s.docs[id] = root
	s.mu.Unlock()
	return nil
}

// MustAdd is Add but panics on error; for static fixtures.
func (s *Store) MustAdd(id, doc string) {
	if err := s.Add(id, doc); err != nil {
		panic(err)
	}
}

// Get returns the parsed document root.
func (s *Store) Get(id string) (*xmlpath.Node, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	root, ok := s.docs[id]
	if !ok {
		return nil, fmt.Errorf("xmlstore: no document %q", id)
	}
	return root, nil
}

// IDs returns all document IDs in sorted order.
func (s *Store) IDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.docs))
	for id := range s.docs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
