package server

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
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

// sessionStore is the interactive session table: an lru (lru.go) with a
// capacity bound, each session charged 1 against it, and an idle TTL.
// When the store is full the least recently used session is evicted (new
// users always get a slot); idle sessions past the TTL are swept
// opportunistically on every operation, so no janitor goroutine is
// needed.
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
// One door: every blob reaches the backend through save and comes back
// through load, and nothing else in the server calls backend.Put or
// backend.Get (TestArchitectureRules allows one call site each). A blob is
// the bare checkpoint stream, whose CRC-32C trailer the restore checks
// before a decoder sees a byte, so what to do about a bad read — re-read
// once, drop the blob only when the failure repeats — is decided in one
// place (docs/robustness.md).
//
// Locking: st.mu guards only the in-memory table, and table is the only
// way onto it. Serialization, store I/O and machine reconstruction all
// run outside it (eviction removes the session from the table under the
// lock, then spills it after release), so one session's store work never
// stalls the others, and sess.mu and st.mu are never held together. The
// window between removal and the blob appearing can surface as a
// transient miss — the same outcome an eviction always had before
// spilling existed.
type sessionStore struct {
	mu           sync.Mutex
	ttl          time.Duration // 0 = no idle expiry
	backend      store.Store   // nil = spilling disabled
	writeThrough bool
	spillTTL     time.Duration // age at which stored blobs are GC'd (0 = never)
	sessions     *lru[string, *session]
	nextID       uint64
	now          func() time.Time     // injectable clock for tests
	debugf       func(string, ...any) // debug-level logger (may be nil)
	// programs resolves the source a stored checkpoint embeds, so a
	// rehydrated session shares the Program of the live ones (nil: every
	// restore assembles).
	programs *programCache
	lastGC   time.Time

	// Lifecycle counters (served by /api/v1/metrics).
	spilled, rehydrated, lost atomic.Uint64
}

func newSessionStore(max int, ttl time.Duration, backend store.Store, spillTTL time.Duration, writeThrough bool, debugf func(string, ...any)) *sessionStore {
	st := &sessionStore{
		ttl:          ttl,
		backend:      backend,
		writeThrough: writeThrough && backend != nil,
		spillTTL:     spillTTL,
		sessions:     newLRU[string, *session](max),
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
// storeGCInterval; it touches only immutable fields, so it needs no lock.
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

// table is the one way onto the in-memory table. Under st.mu it sweeps
// the idle-expired sessions and runs fn (nil: sweep only), which returns
// the sessions it evicted; with the lock released it spills what both
// removed and runs the stored-blob GC when that is due. It returns how
// many sessions the sweep removed.
func (st *sessionStore) table(tm *phaseTimer, fn func(now time.Time) (evicted []*session)) int {
	st.mu.Lock()
	now := st.now()
	expired := st.sweepLocked(now)
	var evicted []*session
	if fn != nil {
		evicted = fn(now)
	}
	gc := now.Sub(st.lastGC) > storeGCInterval
	if gc {
		st.lastGC = now
	}
	st.mu.Unlock()

	st.retire(tm, expired, "idle TTL")
	st.retire(tm, evicted, "LRU capacity")
	if gc {
		st.gcBackend()
	}
	return len(expired)
}

// touchLocked returns the live session under id, marked most recently
// used, or nil.
func (st *sessionStore) touchLocked(id string, now time.Time) *session {
	sess, ok := st.sessions.get(id)
	if !ok {
		return nil
	}
	sess.lastUsed = now
	return sess
}

// insert is the one way a session enters the table: under a fresh ID
// (id ""), a router-assigned one, or the one its blob was stored under,
// evicting the least recently used sessions if the table is full. A live
// session already holding the ID wins — it may have advanced past the
// caller's machine — and is returned with fresh false.
func (st *sessionStore) insert(tm *phaseTimer, id string, m *sim.Machine, version uint64) (sess *session, fresh bool) {
	st.table(tm, func(now time.Time) []*session {
		if id == "" {
			st.nextID++
			id = fmt.Sprintf("s%08d", st.nextID)
		} else if sess = st.touchLocked(id, now); sess != nil {
			return nil
		}
		sess = &session{id: id, machine: m, lastUsed: now, version: version}
		fresh = true
		return st.sessions.add(id, sess, 1)
	})
	return sess, fresh
}

// Add stores a new session and returns its ID.
func (st *sessionStore) Add(tm *phaseTimer, m *sim.Machine) string {
	sess, _ := st.insert(tm, "", m, 0)
	return sess.id
}

// AddWithID stores a new session under a caller-assigned ID (the
// router's consistent-hash deployment assigns IDs so a session's owner
// is computable before it exists; docs/deployment.md). It fails when
// the ID is already live on this node. If the backend already holds a
// blob under the ID, the session adopts its version so later writes
// stay monotonic.
func (st *sessionStore) AddWithID(tm *phaseTimer, id string, m *sim.Machine) bool {
	var version uint64
	if st.backend != nil {
		if v, err := st.backend.Version(id); err == nil {
			version = v
		}
	}
	_, fresh := st.insert(tm, id, m, version)
	return fresh
}

// Get looks up a session and marks it most recently used. A session that
// was spilled into the backend (eviction, a previous server process, or
// another replica sharing the store) is transparently rehydrated.
func (st *sessionStore) Get(tm *phaseTimer, id string) (*session, bool) {
	var sess *session
	st.table(tm, func(now time.Time) []*session {
		sess = st.touchLocked(id, now)
		return nil
	})
	if sess == nil {
		return st.rehydrate(tm, id)
	}
	st.fence(tm, sess)
	return sess, true
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
// copy simply advanced past its own last checkpoint — pass untouched,
// and a failed probe skips the fence; the next touch retries.
func (st *sessionStore) fence(tm *phaseTimer, sess *session) {
	if !st.writeThrough {
		return
	}
	v, err := st.backend.Version(sess.id)
	if err != nil {
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if v > sess.version && !sess.gone {
		st.converge(tm, sess)
	}
}

// converge replaces a live session's machine with the store's copy when
// that copy is strictly newer. The caller holds sess.mu. Un-checkpointed
// local progress is discarded, which is exactly the tier's durability
// boundary ("a replica losing a session loses at most the work since the
// last checkpoint"). When the store's copy cannot be loaded the session
// keeps its machine AND its version: adopting only the version number
// would let this node's older state be written under a newer version,
// rolling the store back past a checkpoint another call was told is
// durable. With the version unchanged its writes keep failing stale and
// the next touch converges again — stale state must never win.
func (st *sessionStore) converge(tm *phaseTimer, sess *session) {
	m, v, ok := st.load(tm, sess.id)
	if !ok || v <= sess.version {
		return
	}
	st.logf("session %s: local copy stale (v%d < store v%d), converged on store state at cycle %d",
		sess.id, sess.version, v, m.Cycle())
	sess.machine, sess.version = m, v
}

// rehydrate restores a stored session from the backend under its
// original ID.
func (st *sessionStore) rehydrate(tm *phaseTimer, id string) (*session, bool) {
	if st.backend == nil || !validSessionID(id) {
		return nil, false
	}
	m, version, ok := st.load(tm, id)
	if !ok {
		return nil, false
	}
	sess, fresh := st.insert(tm, id, m, version)
	if !fresh {
		return sess, true // a concurrent request rehydrated it first
	}
	st.rehydrated.Add(1)
	if !st.writeThrough {
		// Single-node spill semantics: the blob moves between memory
		// and store. In write-through mode the store is the authority
		// and the blob stays — another replica may rehydrate it too,
		// with the version check ordering the eventual writes.
		st.backend.Delete(id)
	}
	st.logf("session %s: rehydrated from store at cycle %d (v%d)", id, m.Cycle(), version)
	return sess, true
}

// load is the one read door: Get and restore the machine (the restore
// checks the stream's CRC before it decodes), booked to the request's
// store-get phase. A blob that fails to restore may have been read badly (a torn page, an NFS hiccup, an injected
// chaos fault) or be bad in the store, and one more read tells the two
// apart: a transient fault yields the original machine, and only the
// same version failing twice is dropped, so that it cannot wedge the ID.
// Dropping on the first failure would turn a recoverable read error into
// the loss of an acknowledged checkpoint. A failed Get is a miss and
// deletes nothing.
func (st *sessionStore) load(tm *phaseTimer, id string) (*sim.Machine, uint64, bool) {
	defer tm.begin(phaseStoreGet).end()
	var failed uint64 // the version the first read could not use
	for read := 1; read <= 2; read++ {
		blob, version, err := st.backend.Get(id)
		if err != nil {
			return nil, 0, false
		}
		m, err := st.programs.restoreSession(blob)
		if err == nil {
			return m, version, true
		}
		st.logf("session %s: stored checkpoint v%d unusable on read %d: %v", id, version, read, err)
		if read == 2 && version == failed {
			st.backend.Delete(id)
		}
		failed = version
	}
	return nil, 0, false
}

// save is the one write door: it Puts the checkpoint stream blob at the
// session's next version, booked to the request's store-put phase. The
// caller holds sess.mu, which also guards the version counter. It reports
// whether the checkpoint is durably in the store.
//
// A stale write — another node persisted a newer version meanwhile — is
// not an error: last-writer-wins keeps the newer state, and a session
// that stays live converges on it. A session being retired has nothing
// to converge, and nothing was lost: the authority lives elsewhere now.
// Any other failure loses a retiring session and leaves a live one with
// a checkpoint only its client holds.
func (st *sessionStore) save(tm *phaseTimer, sess *session, blob []byte, cause string) bool {
	writing := tm.begin(phaseStorePut)
	version := sess.version + 1
	err := st.backend.Put(sess.id, version, blob)
	writing.end()
	switch {
	case err == nil:
		sess.version = version
		st.spilled.Add(1)
		st.logf("session %s: checkpoint stored at cycle %d (%s, v%d, %d bytes)", sess.id, sess.machine.Cycle(), cause, version, len(blob))
		return true
	case errors.Is(err, store.ErrStale):
		st.logf("session %s: write superseded by a newer store version (%s): %v", sess.id, cause, err)
		if !sess.gone {
			st.converge(tm, sess)
		}
	case sess.gone:
		st.lost.Add(1)
		st.logf("session %s: evicted (%s) and lost — spill failed: %v", sess.id, cause, err)
	default:
		st.logf("session %s: %s failed: %v", sess.id, cause, err)
	}
	return false
}

// WriteThrough persists the just-taken checkpoint blob (write-through
// mode only). The caller holds sess.mu. The result is the Durable flag of
// the checkpoint response, which is what the failover contract (and the
// chaos harness's checkpoint-loss invariant) keys on: after a stale or
// failed write the client's copy of the bytes is its only guarantee.
func (st *sessionStore) WriteThrough(tm *phaseTimer, sess *session, blob []byte) bool {
	return st.writeThrough && st.save(tm, sess, blob, "write-through")
}

// Remove deletes a session (and any stored copy); it reports whether
// the session existed in memory or in the backend.
func (st *sessionStore) Remove(id string) bool {
	st.mu.Lock()
	ok := st.sessions.remove(id)
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
func (st *sessionStore) Len() (n int) {
	st.table(nil, func(time.Time) []*session {
		n = st.sessions.len()
		return nil
	})
	return n
}

// Sweep removes idle-expired sessions and returns how many were dropped
// from memory.
func (st *sessionStore) Sweep() int { return st.table(nil, nil) }

// SpillAll retires every live session (spilling each into the backend
// when one is configured) and returns how many were processed. It is
// the graceful-shutdown path: a restarted server with the same backend
// rehydrates all of them on their next touch.
func (st *sessionStore) SpillAll() int {
	st.mu.Lock()
	all := st.dropOldestLocked(func(*session) bool { return true })
	st.mu.Unlock()
	slices.Reverse(all) // most recently used first
	st.retire(nil, all, "shutdown")
	return len(all)
}

// Counters returns the lifecycle counters (spilled, rehydrated, lost).
func (st *sessionStore) Counters() (spilled, rehydrated, lost uint64) {
	return st.spilled.Load(), st.rehydrated.Load(), st.lost.Load()
}

// sweepLocked removes sessions idle past the TTL from the table,
// walking from the LRU end (the table is recency-ordered, so it stops at
// the first live one). The removed sessions are returned for the caller
// to retire once the store lock is released.
func (st *sessionStore) sweepLocked(now time.Time) []*session {
	if st.ttl <= 0 {
		return nil
	}
	return st.dropOldestLocked(func(sess *session) bool { return now.Sub(sess.lastUsed) >= st.ttl })
}

// dropOldestLocked removes sessions from the table's least recently used
// end for as long as drop says so, returning them oldest first.
func (st *sessionStore) dropOldestLocked(drop func(*session) bool) []*session {
	var dropped []*session
	for {
		id, sess, ok := st.sessions.oldest()
		if !ok || !drop(sess) {
			return dropped
		}
		st.sessions.remove(id)
		dropped = append(dropped, sess)
	}
}

// retire spills each session removed from the table into the backend,
// or counts it lost when there is none. It runs WITHOUT the store lock:
// the only lock taken is each session's own mutex, so a handler mid-step
// finishes before serialization and the spill captures its result.
func (st *sessionStore) retire(tm *phaseTimer, retired []*session, cause string) {
	for _, sess := range retired {
		st.retireOne(tm, sess, cause)
	}
}

func (st *sessionStore) retireOne(tm *phaseTimer, sess *session, cause string) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.gone = true
	if st.backend == nil {
		st.lost.Add(1)
		st.logf("session %s: evicted (%s) and lost — no checkpoint store", sess.id, cause)
		return
	}
	var buf bytes.Buffer
	if err := sess.machine.Checkpoint(&buf); err != nil {
		st.lost.Add(1)
		st.logf("session %s: evicted (%s) and lost — checkpoint failed: %v", sess.id, cause, err)
		return
	}
	st.save(tm, sess, buf.Bytes(), cause)
}
