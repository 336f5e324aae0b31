package server

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"riscvsim/internal/store"
	"riscvsim/sim"
)

// session is one interactive simulation (web client tab).
type session struct {
	id      string
	mu      sync.Mutex
	machine *sim.Machine
	// gone (guarded by mu) marks a session retired from the store: a
	// handler that looked it up before eviction but locked it after must
	// not mutate the orphaned machine (the spill already captured it) —
	// it re-fetches through the store, rehydrating the spilled copy.
	gone bool
	// version (guarded by mu) is the session's checkpoint-store version
	// counter: the newest version this node knows to be persisted. The
	// next Put writes version+1, so the store's last-writer-wins check
	// can order writes from different nodes (docs/deployment.md).
	version uint64

	// lastUsed is guarded by the owning store's mutex, not session.mu.
	lastUsed time.Time
}

// sessionStore is the interactive session table: an LRU-ordered map with
// a capacity bound and an idle TTL. When the store is full the least
// recently used session is evicted (new users always get a slot); idle
// sessions past the TTL are swept opportunistically on every operation,
// so no janitor goroutine is needed.
//
// With a checkpoint-store backend configured (internal/store; a local
// directory, a shared volume, or the in-memory fake), eviction is no
// longer lossy: the evicted session's machine is checkpointed into the
// backend, and the next touch of its ID transparently rehydrates it
// (also across server restarts, and — when the backend is shared — on a
// different server replica). Without one, evictions drop live sessions
// and are counted as lost.
//
// writeThrough additionally persists every explicit checkpoint into the
// backend, making the backend the authority for the session's state:
// that is the distributed tier's failover contract (a replica dying
// loses at most the work since the last checkpoint). In write-through
// mode rehydration leaves the blob in place — another node may need it —
// where the single-node spill semantics move it (memory <-> store).
//
// Locking: st.mu guards only the in-memory table. Serialization, store
// I/O and machine reconstruction all run outside it (eviction removes
// the session from the table under the lock, then spills it after
// release), so one session's store work never stalls the others. The
// window between removal and the blob appearing can surface as a
// transient miss — the same outcome an eviction always had before
// spilling existed.
type sessionStore struct {
	mu           sync.Mutex
	max          int
	ttl          time.Duration // 0 = no idle expiry
	backend      store.Store   // nil = spilling disabled
	writeThrough bool
	spillTTL     time.Duration // age at which stored blobs are GC'd (0 = never)
	byID         map[string]*list.Element
	lru          *list.List // front = most recent, back = least recent
	nextID       uint64
	now          func() time.Time     // injectable clock for tests
	debugf       func(string, ...any) // debug-level logger (may be nil)
	// programs resolves the source a stored checkpoint embeds, so a
	// rehydrated session shares the Program of the live ones (nil: every
	// restore assembles).
	programs *programCache
	lastGC   time.Time

	// Lifecycle counters, guarded by mu (served by /api/v1/metrics).
	spilled    uint64
	rehydrated uint64
	lost       uint64
}

func newSessionStore(max int, ttl time.Duration, backend store.Store, spillTTL time.Duration, writeThrough bool, debugf func(string, ...any)) *sessionStore {
	st := &sessionStore{
		max:          max,
		ttl:          ttl,
		backend:      backend,
		writeThrough: writeThrough && backend != nil,
		spillTTL:     spillTTL,
		byID:         make(map[string]*list.Element),
		lru:          list.New(),
		now:          time.Now,
		debugf:       debugf,
	}
	if backend != nil {
		// Resume ID allocation past any checkpoints a previous process
		// left behind, so fresh IDs never collide with stored sessions.
		if entries, err := backend.List(); err == nil {
			for _, e := range entries {
				if !validSessionID(e.ID) {
					continue
				}
				if n, err := strconv.ParseUint(e.ID[1:], 10, 64); err == nil && n > st.nextID {
					st.nextID = n
				}
			}
		}
		st.lastGC = st.now()
		st.gcBackend()
	}
	return st
}

// storeGCInterval bounds how often the opportunistic stored-blob age
// sweep runs.
const storeGCInterval = time.Hour

// validSessionID guards store lookups against malformed IDs: IDs are
// always of the s%08d form (locally generated or router-assigned).
func validSessionID(id string) bool {
	if len(id) != 9 || id[0] != 's' {
		return false
	}
	for i := 1; i < len(id); i++ {
		if id[i] < '0' || id[i] > '9' {
			return false
		}
	}
	return true
}

func (st *sessionStore) logf(format string, args ...any) {
	if st.debugf != nil {
		st.debugf(format, args...)
	}
}

// gcBackend expires stored checkpoints older than spillTTL (backends
// that support age sweeps) so abandoned sessions cannot grow the store
// without bound. Runs at startup and then at most once per
// storeGCInterval, amortized over Add calls; it touches only immutable
// fields, so it needs no lock.
func (st *sessionStore) gcBackend() {
	if st.backend == nil || st.spillTTL <= 0 {
		return
	}
	sweeper, ok := st.backend.(store.Sweeper)
	if !ok {
		return
	}
	if n := sweeper.Sweep(st.spillTTL); n > 0 {
		st.logf("store GC: removed %d blobs (idle > %v)", n, st.spillTTL)
	}
}

// Add stores a new session, evicting the least recently used one if the
// store is at capacity, and returns its ID.
func (st *sessionStore) Add(m *sim.Machine) string {
	st.mu.Lock()
	now := st.now()
	expired := st.sweepLocked(now)
	runGC := st.backend != nil && st.spillTTL > 0 && now.Sub(st.lastGC) > storeGCInterval
	if runGC {
		st.lastGC = now
	}
	evicted := st.makeRoomLocked()
	st.nextID++
	id := fmt.Sprintf("s%08d", st.nextID)
	sess := &session{id: id, machine: m, lastUsed: now}
	st.byID[id] = st.lru.PushFront(sess)
	st.mu.Unlock()

	st.retire(expired, "idle TTL")
	st.retire(evicted, "LRU capacity")
	if runGC {
		st.gcBackend()
	}
	return id
}

// AddWithID stores a new session under a caller-assigned ID (the
// router's consistent-hash deployment assigns IDs so a session's owner
// is computable before it exists; docs/deployment.md). It fails when
// the ID is already live on this node. If the backend already holds a
// blob under the ID, the session adopts its version so later writes
// stay monotonic.
func (st *sessionStore) AddWithID(id string, m *sim.Machine) bool {
	var version uint64
	if st.backend != nil {
		if v, err := st.backend.Version(id); err == nil {
			version = v
		}
	}
	st.mu.Lock()
	now := st.now()
	expired := st.sweepLocked(now)
	if _, exists := st.byID[id]; exists {
		st.mu.Unlock()
		st.retire(expired, "idle TTL")
		return false
	}
	evicted := st.makeRoomLocked()
	sess := &session{id: id, machine: m, lastUsed: now, version: version}
	st.byID[id] = st.lru.PushFront(sess)
	st.mu.Unlock()

	st.retire(expired, "idle TTL")
	st.retire(evicted, "LRU capacity")
	return true
}

// Get looks up a session and marks it most recently used. A session that
// was spilled into the backend (eviction, a previous server process, or
// another replica sharing the store) is transparently rehydrated.
func (st *sessionStore) Get(id string) (*session, bool) {
	st.mu.Lock()
	now := st.now()
	expired := st.sweepLocked(now)
	if el, ok := st.byID[id]; ok {
		sess := el.Value.(*session)
		sess.lastUsed = now
		st.lru.MoveToFront(el)
		st.mu.Unlock()
		st.retire(expired, "idle TTL")
		st.fence(sess)
		return sess, true
	}
	st.mu.Unlock()
	st.retire(expired, "idle TTL")
	return st.rehydrate(id)
}

// fence converges an in-memory session on the store when another node
// has persisted a strictly newer version — the split-brain case where a
// health flap briefly gave two replicas the same session. Without it, a
// replica that fell behind keeps serving (and advancing) stale state it
// rehydrated before the other node's durable checkpoint landed, which
// is client-visible loss of acked progress. Only write-through mode
// fences: there the store is the session's authority by contract, and
// every touch pays one backend.Version probe for it (a map lookup on
// Mem, a readdir on Dir). Equal versions — the common case, the local
// copy simply advanced past its own last checkpoint — pass untouched.
// Transient probe/read/restore failures skip the fence; the next touch
// retries. Un-checkpointed local progress is discarded on adoption,
// which is exactly the tier's durability boundary ("a replica losing a
// session loses at most the work since the last checkpoint").
func (st *sessionStore) fence(sess *session) {
	if !st.writeThrough {
		return
	}
	v, err := st.backend.Version(sess.id)
	if err != nil {
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if v <= sess.version || sess.gone {
		return
	}
	data, v2, err := st.backend.Get(sess.id)
	if err != nil || v2 <= sess.version {
		return
	}
	m, err := st.programs.restoreSession(data)
	if err != nil {
		return
	}
	st.logf("session %s: local copy stale (v%d < store v%d), converging on store state at cycle %d",
		sess.id, sess.version, v2, m.Cycle())
	sess.machine = m
	sess.version = v2
}

// rehydrate restores a stored session from the backend under its
// original ID. Store I/O and machine reconstruction run without the
// store lock; only the table re-insertion takes it.
func (st *sessionStore) rehydrate(id string) (*session, bool) {
	if st.backend == nil || !validSessionID(id) {
		return nil, false
	}
	data, version, err := st.backend.Get(id)
	if err != nil {
		return nil, false
	}
	m, err := st.programs.restoreSession(data)
	if err != nil {
		// A bad read may be transient (a torn page, an NFS hiccup, an
		// injected chaos fault) — re-read once before concluding the blob
		// itself is corrupt. Only a reproducible failure deletes it:
		// deleting on a transient fault would turn a recoverable read
		// error into the loss of an acknowledged checkpoint.
		data2, version2, err2 := st.backend.Get(id)
		if err2 == nil {
			m, err = st.programs.restoreSession(data2)
			version = version2
		}
		if err != nil {
			st.logf("session %s: stored checkpoint unusable: %v", id, err)
			st.backend.Delete(id)
			return nil, false
		}
	}

	st.mu.Lock()
	// A concurrent request may have rehydrated the session already; the
	// in-memory copy wins (it may have advanced past our snapshot).
	if el, ok := st.byID[id]; ok {
		sess := el.Value.(*session)
		sess.lastUsed = st.now()
		st.lru.MoveToFront(el)
		st.mu.Unlock()
		return sess, true
	}
	evicted := st.makeRoomLocked()
	sess := &session{id: id, machine: m, lastUsed: st.now(), version: version}
	el := st.lru.PushFront(sess)
	st.byID[id] = el
	st.rehydrated++
	st.mu.Unlock()

	if !st.writeThrough {
		// Single-node spill semantics: the blob moves between memory
		// and store. In write-through mode the store is the authority
		// and the blob stays — another replica may rehydrate it too,
		// with the version check ordering the eventual writes.
		st.backend.Delete(id)
	}
	st.retire(evicted, "LRU capacity")
	st.logf("session %s: rehydrated from store at cycle %d (v%d)", id, m.Cycle(), version)
	return sess, true
}

// WriteThrough persists a just-taken checkpoint of the session into the
// backend at the next version. The caller holds sess.mu (the checkpoint
// handler does), which also guards the version counter. A stale write —
// another node persisted a newer version meanwhile — is not an error:
// last-writer-wins keeps the newer state, and this node's copy will be
// superseded on the next ring-consistent touch.
//
// It reports whether the checkpoint is durably in the store — the
// Durable flag of the checkpoint response, which is what the failover
// contract (and the chaos harness's checkpoint-loss invariant) keys on.
// A stale or failed write returns false: the client's copy of the bytes
// is its only guarantee then.
func (st *sessionStore) WriteThrough(sess *session, data []byte) bool {
	if !st.writeThrough {
		return false
	}
	version := sess.version + 1
	err := st.backend.Put(sess.id, version, data)
	switch {
	case err == nil:
		sess.version = version
		st.mu.Lock()
		st.spilled++
		st.mu.Unlock()
		st.logf("session %s: checkpoint written through at cycle %d (v%d, %d bytes)",
			sess.id, sess.machine.Cycle(), version, len(data))
		return true
	case errors.Is(err, store.ErrStale):
		st.logf("session %s: write-through superseded by a newer store version: %v", sess.id, err)
		// This copy of the session is stale: another node persisted a
		// newer version (a health flap briefly gave two replicas the
		// session). Adopting only the version NUMBER here would be a
		// durability bug — our next checkpoint would carry this node's
		// older machine state under a newer version, silently rolling
		// the store's cycle back past state another client call already
		// got a durable ack for. Converge on the store's copy instead:
		// replace the machine with the newer state. If the read or the
		// restore fails (transient), keep our version unchanged so
		// subsequent writes keep failing stale (acks stay non-durable)
		// and adoption is retried — stale state must never win.
		if data, v, gerr := st.backend.Get(sess.id); gerr == nil && v > sess.version {
			if m, rerr := st.programs.restoreSession(data); rerr == nil {
				sess.machine = m
				sess.version = v
				st.logf("session %s: converged on store v%d at cycle %d", sess.id, v, m.Cycle())
			}
		}
		return false
	default:
		st.logf("session %s: write-through failed: %v", sess.id, err)
		return false
	}
}

// Remove deletes a session (and any stored copy); it reports whether
// the session existed in memory or in the backend.
func (st *sessionStore) Remove(id string) bool {
	st.mu.Lock()
	el, ok := st.byID[id]
	if ok {
		st.lru.Remove(el)
		delete(st.byID, id)
	}
	st.mu.Unlock()
	if st.backend != nil && validSessionID(id) {
		if _, err := st.backend.Version(id); err == nil {
			st.backend.Delete(id)
			ok = true
		}
	}
	return ok
}

// Len returns the number of live in-memory sessions, sweeping expired
// ones first so an idle server's metrics don't report (or retain) dead
// sessions.
func (st *sessionStore) Len() int {
	st.mu.Lock()
	expired := st.sweepLocked(st.now())
	n := len(st.byID)
	st.mu.Unlock()
	st.retire(expired, "idle TTL")
	return n
}

// Sweep removes idle-expired sessions and returns how many were dropped
// from memory.
func (st *sessionStore) Sweep() int {
	st.mu.Lock()
	expired := st.sweepLocked(st.now())
	st.mu.Unlock()
	st.retire(expired, "idle TTL")
	return len(expired)
}

// SpillAll retires every live session (spilling each into the backend
// when one is configured) and returns how many were processed. It is
// the graceful-shutdown path: a restarted server with the same backend
// rehydrates all of them on their next touch.
func (st *sessionStore) SpillAll() int {
	st.mu.Lock()
	var all []*session
	for el := st.lru.Front(); el != nil; el = el.Next() {
		all = append(all, el.Value.(*session))
	}
	st.lru.Init()
	st.byID = make(map[string]*list.Element)
	st.mu.Unlock()
	st.retire(all, "shutdown")
	return len(all)
}

// Counters returns the lifecycle counters (spilled, rehydrated, lost).
func (st *sessionStore) Counters() (spilled, rehydrated, lost uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.spilled, st.rehydrated, st.lost
}

// sweepLocked removes sessions idle past the TTL from the table,
// walking from the LRU end (the list is recency-ordered, so it stops at
// the first live one). The removed sessions are returned for the caller
// to retire once the store lock is released.
func (st *sessionStore) sweepLocked(now time.Time) []*session {
	if st.ttl <= 0 {
		return nil
	}
	var expired []*session
	for el := st.lru.Back(); el != nil; {
		sess := el.Value.(*session)
		if now.Sub(sess.lastUsed) < st.ttl {
			break
		}
		prev := el.Prev()
		st.lru.Remove(el)
		delete(st.byID, sess.id)
		expired = append(expired, sess)
		el = prev
	}
	return expired
}

// makeRoomLocked removes least-recently-used sessions from the table
// until an Add fits, returning them for retirement outside the lock.
func (st *sessionStore) makeRoomLocked() []*session {
	var evicted []*session
	for len(st.byID) >= st.max {
		el := st.lru.Back()
		if el == nil {
			break
		}
		st.lru.Remove(el)
		sess := el.Value.(*session)
		delete(st.byID, sess.id)
		evicted = append(evicted, sess)
	}
	return evicted
}

// retire spills each removed session into the backend (or counts it
// lost when spilling is unavailable). It runs WITHOUT the store lock:
// the only locks taken are each session's own mutex (so a handler
// mid-step finishes before serialization and the spill captures its
// result) and a brief store-lock acquisition for the counters. sess.mu
// and st.mu are never held together here, so no ordering cycle exists
// with the handlers' store-then-session order.
func (st *sessionStore) retire(retired []*session, cause string) {
	for _, sess := range retired {
		st.retireOne(sess, cause)
	}
}

func (st *sessionStore) retireOne(sess *session, cause string) {
	if st.backend == nil {
		sess.mu.Lock()
		sess.gone = true
		sess.mu.Unlock()
		st.mu.Lock()
		st.lost++
		st.mu.Unlock()
		st.logf("session %s: evicted (%s) and lost — no checkpoint store", sess.id, cause)
		return
	}
	sess.mu.Lock()
	var buf bytes.Buffer
	err := sess.machine.Checkpoint(&buf)
	cycle := sess.machine.Cycle()
	version := sess.version + 1
	if err == nil {
		err = st.backend.Put(sess.id, version, buf.Bytes())
		if err == nil {
			sess.version = version
		}
	}
	sess.gone = true
	sess.mu.Unlock()
	if errors.Is(err, store.ErrStale) {
		// Another node already persisted a newer version: nothing was
		// lost, the authority simply lives elsewhere now.
		st.logf("session %s: eviction spill superseded by a newer store version (%s)", sess.id, cause)
		return
	}
	st.mu.Lock()
	if err != nil {
		st.lost++
	} else {
		st.spilled++
	}
	st.mu.Unlock()
	if err != nil {
		st.logf("session %s: evicted (%s) and lost — spill failed: %v", sess.id, cause, err)
		return
	}
	st.logf("session %s: spilled to store at cycle %d (%s, v%d, %d bytes)", sess.id, cycle, cause, version, buf.Len())
}
