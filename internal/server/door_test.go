package server

// Tests of the session store's one door to its backend: whatever a read
// delivers, load hands out the machine that was stored or none at all.

import (
	"testing"

	"riscvsim/internal/store"
)

// badReads is a store whose next bad Gets deliver the blob corrupted and
// whose later ones deliver it clean; the stored blob stays intact, as it
// does under chaos.FaultStore.
type badReads struct {
	*store.Mem
	bad     int
	corrupt func(blob []byte) []byte
}

func (b *badReads) Get(id string) ([]byte, uint64, error) {
	blob, version, err := b.Mem.Get(id)
	if err == nil && b.bad > 0 {
		b.bad--
		blob = b.corrupt(blob)
	}
	return blob, version, err
}

// TestLoadNeverAdoptsACorruptBlob reads one stored checkpoint through
// each of the three paths that reach the backend — rehydration, the
// write-through fence and the convergence after a stale write — with
// every byte of it flipped (^= 0x41, the flip chaos.FaultStore injects)
// and with the read torn at every length. A fault on the first read only
// must yield the machine that was stored; a fault on both must leave the
// node with what it had (nothing, or its own older machine) and the blob
// dropped. No corruption may ever produce a third machine: before the
// checkpoint format carried a CRC, 806 of the 4,842 flips decoded without
// error into one.
func TestLoadNeverAdoptsACorruptBlob(t *testing.T) {
	const id = "s00000001"
	stored := steppedMachine(t, 1500)
	storedHash := stored.StateHash()
	blob := checkpointBytes(t, stored)
	// What a node that fell behind holds: an older state of the session.
	local := steppedMachine(t, 10)
	localHash := local.StateHash()
	localStream := checkpointBytes(t, local)

	served := func(sess *session) uint64 {
		sess.mu.Lock()
		defer sess.mu.Unlock()
		return sess.machine.StateHash()
	}
	paths := []struct {
		name         string
		writeThrough bool
		// touch reads the blob through the path and returns the hash of the
		// machine the node serves afterwards (0: none, a miss).
		touch func(t *testing.T, st *sessionStore) uint64
		// fallback is what touch returns when the blob cannot be read.
		fallback uint64
	}{
		{"rehydrate", false, func(t *testing.T, st *sessionStore) uint64 {
			sess, ok := st.Get(nil, id)
			if !ok {
				return 0
			}
			return served(sess)
		}, 0},
		{"fence", true, func(t *testing.T, st *sessionStore) uint64 {
			st.insert(nil, id, local, 0)
			sess, _ := st.Get(nil, id)
			return served(sess)
		}, localHash},
		{"stale write", true, func(t *testing.T, st *sessionStore) uint64 {
			sess, _ := st.insert(nil, id, local, 0)
			sess.mu.Lock()
			durable := st.WriteThrough(nil, sess, localStream)
			sess.mu.Unlock()
			if durable {
				t.Fatal("stale write reported durable")
			}
			return served(sess)
		}, localHash},
	}

	for _, p := range paths {
		for _, faults := range []struct {
			name     string
			badReads int
			want     uint64
		}{
			{"transient", 1, storedHash},
			{"reproducible", 2, p.fallback},
		} {
			t.Run(p.name+"/"+faults.name, func(t *testing.T) {
				t.Parallel() // every corruption gets a store of its own
				wrong := 0
				// Corruption i < len(blob) flips byte i; the rest tear the
				// read at length i-len(blob), the empty read included.
				for i := 0; i < 2*len(blob); i++ {
					mem := store.NewMem()
					mem.Put(id, 2, blob)
					backend := &badReads{Mem: mem, bad: faults.badReads, corrupt: func(b []byte) []byte {
						if i < len(b) {
							b[i] ^= 0x41
							return b
						}
						return b[:i-len(b)]
					}}
					st := newSessionStore(4, 0, backend, 0, p.writeThrough, nil)
					got := p.touch(t, st)
					if got != faults.want {
						if wrong++; wrong <= 3 {
							t.Errorf("corruption %d of %d: node serves machine %016x, want %016x (stored %016x, local %016x)",
								i, 2*len(blob), got, faults.want, storedHash, localHash)
						}
					}
					// A reproducible fault drops the blob; a transient one
					// must not (spill mode moves it on a good rehydration).
					if kept, want := mem.Len() == 1, faults.badReads == 1 && p.writeThrough; kept != want {
						t.Fatalf("corruption %d: blob kept=%v, want %v", i, kept, want)
					}
				}
				if wrong > 0 {
					t.Errorf("%d of %d corrupted reads left the node with the wrong machine", wrong, 2*len(blob))
				}
			})
		}
	}
}
