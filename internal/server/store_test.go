package server

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"riscvsim/internal/store"
	"riscvsim/sim"
)

func testMachine(t testing.TB) *sim.Machine {
	t.Helper()
	m, err := sim.NewFromAsm(sim.DefaultConfig(), "li a0, 1\n", "")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// dirStore opens a directory-backed checkpoint store for tests.
func dirStore(t testing.TB, path string) *store.Dir {
	t.Helper()
	d, err := store.NewDir(path)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestStoreEvictsLeastRecentlyUsed(t *testing.T) {
	st := newSessionStore(3, 0, nil, 0, false, nil)
	a := st.Add(nil, testMachine(t))
	b := st.Add(nil, testMachine(t))
	c := st.Add(nil, testMachine(t))

	// Touch a so b becomes the least recently used.
	if _, ok := st.Get(nil, a); !ok {
		t.Fatal("a missing")
	}
	d := st.Add(nil, testMachine(t)) // evicts b, not a

	if _, ok := st.Get(nil, b); ok {
		t.Error("b should have been evicted (least recently used)")
	}
	for _, id := range []string{a, c, d} {
		if _, ok := st.Get(nil, id); !ok {
			t.Errorf("%s should have survived", id)
		}
	}
	if st.Len() != 3 {
		t.Errorf("len = %d, want 3", st.Len())
	}
}

func TestStoreEvictionOrderIsRecency(t *testing.T) {
	st := newSessionStore(2, 0, nil, 0, false, nil)
	ids := []string{st.Add(nil, testMachine(t)), st.Add(nil, testMachine(t))}
	for i := 0; i < 4; i++ {
		ids = append(ids, st.Add(nil, testMachine(t)))
	}
	// Only the last two can remain; every earlier one must be gone.
	for _, id := range ids[:len(ids)-2] {
		if _, ok := st.Get(nil, id); ok {
			t.Errorf("%s should have been evicted", id)
		}
	}
	for _, id := range ids[len(ids)-2:] {
		if _, ok := st.Get(nil, id); !ok {
			t.Errorf("%s should remain", id)
		}
	}
}

func TestStoreIdleTTLSweep(t *testing.T) {
	now := time.Unix(1000, 0)
	st := newSessionStore(10, time.Minute, nil, 0, false, nil)
	st.now = func() time.Time { return now }

	old := st.Add(nil, testMachine(t))
	now = now.Add(30 * time.Second)
	fresh := st.Add(nil, testMachine(t))

	// 40 more seconds: old is 70s idle (expired), fresh 40s (alive).
	now = now.Add(40 * time.Second)
	if n := st.sweep(); n != 1 {
		t.Errorf("sweep removed %d, want 1", n)
	}
	if _, ok := st.Get(nil, old); ok {
		t.Error("idle session survived its TTL")
	}
	if _, ok := st.Get(nil, fresh); !ok {
		t.Error("live session swept")
	}

	// Touching refreshes the TTL.
	now = now.Add(50 * time.Second)
	if _, ok := st.Get(nil, fresh); !ok {
		t.Fatal("fresh expired too early")
	}
	now = now.Add(50 * time.Second) // 50s since touch, alive
	if _, ok := st.Get(nil, fresh); !ok {
		t.Error("touched session must survive a full TTL from the touch")
	}
}

func TestStoreSweepsOpportunistically(t *testing.T) {
	now := time.Unix(1000, 0)
	st := newSessionStore(10, time.Minute, nil, 0, false, nil)
	st.now = func() time.Time { return now }
	old := st.Add(nil, testMachine(t))
	now = now.Add(2 * time.Minute)
	// A plain Add must sweep the expired session as a side effect.
	st.Add(nil, testMachine(t))
	if st.Len() != 1 {
		t.Errorf("len = %d, want 1 (expired session not swept on Add)", st.Len())
	}
	if _, ok := st.Get(nil, old); ok {
		t.Error("expired session still reachable")
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	st := newSessionStore(16, time.Minute, nil, 0, false, nil)
	var wg sync.WaitGroup
	ids := make([]string, 8)
	for i := range ids {
		ids[i] = st.Add(nil, testMachine(t))
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0:
					st.Add(nil, testMachine(t))
				case 1:
					st.Get(nil, ids[(g+i)%len(ids)])
				case 2:
					st.Remove(fmt.Sprintf("s%08d", i))
				default:
					st.sweep()
				}
			}
		}(g)
	}
	wg.Wait()
	if st.Len() > 16 {
		t.Errorf("store overflowed its cap: %d", st.Len())
	}
}

// steppedMachine builds a machine advanced n cycles (a non-trivial
// state to checkpoint).
func steppedMachine(t testing.TB, n uint64) *sim.Machine {
	t.Helper()
	m, err := sim.NewFromAsm(sim.DefaultConfig(), "loop: addi t0, t0, 1\nbeq x0, x0, loop\n", "")
	if err != nil {
		t.Fatal(err)
	}
	m.StepN(n)
	return m
}

// TestRehydrateCorruptedBlob pins the corrupted/truncated-store path:
// a blob that does not restore must surface as a miss, never a panic, and
// the poisoned blob is dropped so it cannot wedge the ID forever.
func TestRehydrateCorruptedBlob(t *testing.T) {
	backend := store.NewMem()
	st := newSessionStore(4, 0, backend, 0, false, nil)
	id := st.Add(nil, steppedMachine(t, 50))
	if n := st.SpillAll(); n != 1 {
		t.Fatalf("spilled %d, want 1", n)
	}
	// Truncate the stored checkpoint mid-stream.
	if !backend.Corrupt(id, 40) {
		t.Fatal("no blob to corrupt")
	}
	if _, ok := st.Get(nil, id); ok {
		t.Fatal("corrupted blob rehydrated")
	}
	if backend.Len() != 0 {
		t.Error("poisoned blob not dropped after failed rehydration")
	}
	// Garbage that is not even a checkpoint header behaves the same.
	backend.Put(id, 99, []byte("not a checkpoint"))
	if _, ok := st.Get(nil, id); ok {
		t.Fatal("garbage blob rehydrated")
	}
	if backend.Len() != 0 {
		t.Error("garbage blob not dropped after failed rehydration")
	}
}

// TestConcurrentRehydrationLastWriterWins pins the two-node convergence
// rule: when two session stores sharing one backend both rehydrate the
// same session (a ring change mid-flight), the eviction that persists
// last wins, and the earlier writer's stale spill is refused by the
// version check instead of clobbering newer state.
func TestConcurrentRehydrationLastWriterWins(t *testing.T) {
	backend := store.NewMem()
	seedStore := newSessionStore(4, 0, backend, 0, true, nil)
	id := seedStore.Add(nil, steppedMachine(t, 10))
	seedStore.SpillAll() // v1 in the store

	nodeA := newSessionStore(4, 0, backend, 0, true, nil)
	nodeB := newSessionStore(4, 0, backend, 0, true, nil)
	sessA, ok := nodeA.Get(nil, id)
	if !ok {
		t.Fatal("node A rehydration failed")
	}
	sessB, ok := nodeB.Get(nil, id)
	if !ok {
		t.Fatal("node B rehydration failed")
	}
	// Node B advances further and spills first: v2 holds B's state.
	sessB.machine.StepN(100)
	wantHash := sessB.machine.StateHash()
	nodeB.SpillAll()
	// Node A's later spill of older state must be refused (ErrStale
	// internally), not clobber B's newer checkpoint.
	sessA.machine.StepN(5)
	nodeA.SpillAll()

	if v, err := backend.Version(id); err != nil || v != 2 {
		t.Fatalf("store version = %d, %v; want 2 (node B's write)", v, err)
	}
	fresh := newSessionStore(4, 0, backend, 0, true, nil)
	sess, ok := fresh.Get(nil, id)
	if !ok {
		t.Fatal("rehydration after the race failed")
	}
	if got := sess.machine.StateHash(); got != wantHash {
		t.Errorf("survivor state hash %#x, want node B's %#x (last writer must win)", got, wantHash)
	}
}

// TestWriteThroughKeepsBlobOnRehydrate pins the authority flip: with
// write-through on, rehydration leaves the blob in the store (another
// node may need it); without, the blob moves (legacy spill semantics).
func TestWriteThroughKeepsBlobOnRehydrate(t *testing.T) {
	for _, wt := range []bool{true, false} {
		backend := store.NewMem()
		st := newSessionStore(4, 0, backend, 0, wt, nil)
		id := st.Add(nil, steppedMachine(t, 5))
		st.SpillAll()
		if _, ok := st.Get(nil, id); !ok {
			t.Fatalf("writeThrough=%v: rehydration failed", wt)
		}
		if kept := backend.Len() == 1; kept != wt {
			t.Errorf("writeThrough=%v: blob kept=%v, want %v", wt, kept, wt)
		}
	}
}

// TestWriteThroughVersionsAreMonotonic pins the WriteThrough counter:
// repeated checkpoints bump the store version, and a session rehydrated
// (or created via AddWithID) on another node adopts the stored version
// so its next write stays monotonic.
func TestWriteThroughVersionsAreMonotonic(t *testing.T) {
	backend := store.NewMem()
	st := newSessionStore(4, 0, backend, 0, true, nil)
	id := st.Add(nil, steppedMachine(t, 5))
	sess, _ := st.Get(nil, id)
	for want := uint64(1); want <= 3; want++ {
		sess.mu.Lock()
		st.WriteThrough(nil, sess, checkpointBytes(t, sess.machine))
		sess.mu.Unlock()
		if v, _ := backend.Version(id); v != want {
			t.Fatalf("after write-through %d: version %d", want, v)
		}
	}
	// A second node creating the same ID (router-driven checkpoint
	// handoff) adopts version 3 and writes 4, not 1.
	other := newSessionStore(4, 0, backend, 0, true, nil)
	if !other.AddWithID(nil, id, steppedMachine(t, 5)) {
		t.Fatal("AddWithID failed")
	}
	sess2, _ := other.Get(nil, id)
	sess2.mu.Lock()
	other.WriteThrough(nil, sess2, checkpointBytes(t, sess2.machine))
	sess2.mu.Unlock()
	if v, _ := backend.Version(id); v != 4 {
		t.Fatalf("handoff write-through version = %d, want 4", v)
	}
}

func checkpointBytes(t testing.TB, m *sim.Machine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAddWithIDRejectsLiveDuplicate pins the session_exists condition
// the router's create-retry dispatches on.
func TestAddWithIDRejectsLiveDuplicate(t *testing.T) {
	st := newSessionStore(4, 0, store.NewMem(), 0, true, nil)
	if !st.AddWithID(nil, "s12345678", testMachine(t)) {
		t.Fatal("first AddWithID failed")
	}
	if st.AddWithID(nil, "s12345678", testMachine(t)) {
		t.Fatal("duplicate AddWithID succeeded")
	}
}

// TestColdStartEmptyStore pins the cold-start path: a fresh node over
// an empty shared store serves misses cleanly and allocates IDs from 1.
func TestColdStartEmptyStore(t *testing.T) {
	st := newSessionStore(4, 0, store.NewMem(), 0, true, nil)
	if _, ok := st.Get(nil, "s00000007"); ok {
		t.Fatal("empty store produced a session")
	}
	if id := st.Add(nil, testMachine(t)); id != "s00000001" {
		t.Errorf("first ID = %s, want s00000001", id)
	}
}

// TestNextIDResumesPastStoredSessions pins ID allocation across
// restarts: a node joining over a populated store must not reissue IDs
// that stored sessions already use.
func TestNextIDResumesPastStoredSessions(t *testing.T) {
	backend := store.NewMem()
	backend.Put("s00000041", 3, []byte("blob"))
	st := newSessionStore(4, 0, backend, 0, true, nil)
	if id := st.Add(nil, testMachine(t)); id != "s00000042" {
		t.Errorf("first ID = %s, want s00000042", id)
	}
}

// TestSpillFailureCountsLost pins the failure accounting when the
// backend cannot accept the spill.
func TestSpillFailureCountsLost(t *testing.T) {
	backend := store.NewMem()
	backend.FailPuts = fmt.Errorf("volume full")
	st := newSessionStore(4, 0, backend, 0, false, nil)
	st.Add(nil, testMachine(t))
	st.SpillAll()
	if _, _, lost := st.Counters(); lost != 1 {
		t.Errorf("lost = %d, want 1", lost)
	}
}
