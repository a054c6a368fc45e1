package sla

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Repository persists established SLAs "for subsequent reference" (§3.1:
// "the AQoS establishes a final SLA document and saves it in the SLA
// repository"). Implementations must be safe for concurrent use.
//
// Ownership: Put takes ownership of d — the caller must not read or
// modify d after the call — so a repository may store it without
// copying. Get and List hand out copies the caller owns.
type Repository interface {
	// Put stores (or replaces) a document, taking ownership of d.
	Put(d *Document) error
	// Get returns a copy of the document with the given ID.
	Get(id ID) (*Document, error)
	// Delete removes the document with the given ID.
	Delete(id ID) error
	// List returns copies of all documents matching the filter (nil
	// matches all), ordered by ID.
	List(filter func(*Document) bool) ([]*Document, error)
}

// ErrNotFound is returned by repositories for unknown IDs.
var ErrNotFound = errors.New("sla: document not found")

// MemoryRepository is an in-memory Repository.
type MemoryRepository struct {
	mu   sync.RWMutex
	docs map[ID]*Document
}

// NewMemoryRepository returns an empty in-memory repository.
func NewMemoryRepository() *MemoryRepository {
	return &MemoryRepository{docs: make(map[ID]*Document)}
}

// Put implements Repository. It stores d itself, not a copy.
func (r *MemoryRepository) Put(d *Document) error {
	if d.ID == "" {
		return errors.New("sla: cannot store document with empty ID")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.docs[d.ID] = d
	return nil
}

// Get implements Repository.
func (r *MemoryRepository) Get(id ID) (*Document, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.docs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return d.Clone(), nil
}

// Delete implements Repository.
func (r *MemoryRepository) Delete(id ID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.docs[id]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	delete(r.docs, id)
	return nil
}

// List implements Repository.
func (r *MemoryRepository) List(filter func(*Document) bool) ([]*Document, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Document, 0, len(r.docs))
	for _, d := range r.docs {
		if filter == nil || filter(d) {
			out = append(out, d.Clone())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

var _ Repository = (*MemoryRepository)(nil)
