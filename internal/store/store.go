// Package store defines the pluggable checkpoint store behind the
// distributed session tier (docs/deployment.md). A Store holds opaque
// versioned checkpoint blobs keyed by session ID; the simulation server
// spills evicted sessions into it, rehydrates them on the next touch,
// and — with write-through enabled — persists every explicit checkpoint,
// making the store (not any one server process) the authority for a
// session's state. Any node sharing a store can therefore serve any
// session, which is what lets the router move sessions between replicas.
//
// Two backends ship today: Dir (a directory, typically a shared volume
// in the docker-compose deployment) and Mem (an in-memory fake for
// tests). The interface is deliberately small — Put/Get/Delete/List over
// versioned keys — so an S3- or Redis-backed implementation needs no
// changes elsewhere.
//
// Versioning implements last-writer-wins with a monotonicity check: a
// Put whose version is not strictly newer than the stored one fails with
// ErrStale instead of clobbering newer state. Two nodes that briefly
// both hold a session (a ring change mid-flight) converge on the copy
// that checkpointed last.
package store

import (
	"errors"
	"time"
)

// ErrNotFound reports that the store holds no blob under the ID.
var ErrNotFound = errors.New("store: session not found")

// ErrStale reports a Put whose version is not newer than the stored
// one: another writer (typically another node, after a ring change)
// already persisted a later checkpoint, and last-writer-wins keeps it.
var ErrStale = errors.New("store: version not newer than stored")

// Entry is one stored session blob in a List.
type Entry struct {
	// ID is the session ID the blob is stored under.
	ID string
	// Version is the blob's version counter (Put-monotonic per ID).
	Version uint64
}

// Store is a versioned checkpoint blob store. Implementations must be
// safe for concurrent use; blobs are opaque bytes the store never
// inspects. The server stores a sim checkpoint stream sealed with a
// checksum and verifies the seal on every read before decoding anything
// (internal/server/store.go): the stream's own checks do not cover its
// body, so corruption does not reliably surface at restore time.
type Store interface {
	// Put stores data under id at the given version. It fails with
	// ErrStale when the store already holds version >= the given one.
	Put(id string, version uint64, data []byte) error
	// Get returns the newest stored blob and its version, or
	// ErrNotFound.
	Get(id string) (data []byte, version uint64, err error)
	// Version returns the newest stored version without reading the
	// blob (0, ErrNotFound when absent). Cheap relative to Get for
	// blob-on-disk backends.
	Version(id string) (uint64, error)
	// Delete removes every stored version of id. Deleting an absent ID
	// is not an error.
	Delete(id string) error
	// List enumerates the stored sessions (newest version per ID). An
	// empty or never-written store lists zero entries without error —
	// the cold-start case.
	List() ([]Entry, error)
}

// Sweeper is optionally implemented by backends that can expire blobs
// by age (the Dir backend's spill-TTL garbage collection). The session
// store calls it opportunistically when the backend supports it.
type Sweeper interface {
	// Sweep deletes blobs idle longer than olderThan, returning how
	// many were removed.
	Sweep(olderThan time.Duration) int
}
