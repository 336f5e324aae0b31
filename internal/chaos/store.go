package chaos

import (
	"fmt"
	"sync"
	"time"

	"riscvsim/internal/store"
)

// ErrInjected is the root of every fault the FaultStore injects, so
// tests can tell injected failures from real backend failures.
var ErrInjected = fmt.Errorf("chaos: injected fault")

// FaultStore wraps a store.Store with plan-driven faults on the
// durability boundary: Put/Get errors, latency spikes, transiently
// corrupted reads (bit flip or torn read — the underlying blob stays
// intact), and the DropAckedPuts injected bug. It also records every
// successful Put so the runner can check version monotonicity after
// the fact.
type FaultStore struct {
	backend store.Store
	plan    *Plan

	mu         sync.Mutex
	history    map[string][]uint64 // successful Put versions, in order
	dropped    map[string]uint64   // highest version silently dropped per ID
	getFaulted map[string]bool     // last Get for this ID was faulted
	violations []string
}

// NewFaultStore wraps backend under plan's fault decisions.
func NewFaultStore(backend store.Store, plan *Plan) *FaultStore {
	return &FaultStore{
		backend:    backend,
		plan:       plan,
		history:    make(map[string][]uint64),
		dropped:    make(map[string]uint64),
		getFaulted: make(map[string]bool),
	}
}

// Put implements store.Store with injected write faults.
func (f *FaultStore) Put(id string, version uint64, data []byte) error {
	cfg := f.plan.Config()
	if f.plan.Decide("store.put.latency", cfg.StoreLatency) {
		time.Sleep(cfg.LatencySpike)
	}
	if f.plan.Decide("store.put.err", cfg.StorePutErr) {
		return fmt.Errorf("%w: store write failed", ErrInjected)
	}
	if cfg.DropAckedPuts && f.plan.Decide("store.put.drop", cfg.DropAckedPutsRate) {
		// The injected bug: ack the write, persist nothing. The caller
		// marks the checkpoint durable; the invariant checker must
		// catch the loss when a failover needs this blob.
		f.mu.Lock()
		if version > f.dropped[id] {
			f.dropped[id] = version
		}
		f.mu.Unlock()
		return nil
	}
	err := f.backend.Put(id, version, data)
	if err == nil {
		f.mu.Lock()
		hist := f.history[id]
		if n := len(hist); n > 0 && version <= hist[n-1] {
			f.violations = append(f.violations, fmt.Sprintf(
				"store version regression: %s accepted Put v%d after v%d", id, version, hist[n-1]))
		}
		f.history[id] = append(hist, version)
		f.mu.Unlock()
	}
	return err
}

// Get implements store.Store with injected read faults. Faults on the
// read path are guaranteed transient: after a faulted Get, the next
// Get of the same ID passes clean. That matches the faults being
// modeled (a torn page, an NFS hiccup) and matters for correctness of
// the harness itself — the server deletes a blob only after TWO
// consecutive bad reads (a reproducible corruption), so a fault store
// that could fault twice in a row would make the server destroy a
// durable checkpoint over what was supposed to be a transient glitch,
// and the campaign would report a loss the tier never caused.
func (f *FaultStore) Get(id string) ([]byte, uint64, error) {
	cfg := f.plan.Config()
	if f.plan.Decide("store.get.latency", cfg.StoreLatency) {
		time.Sleep(cfg.LatencySpike)
	}
	f.mu.Lock()
	skip := f.getFaulted[id]
	if skip {
		delete(f.getFaulted, id)
	}
	f.mu.Unlock()
	if !skip && f.plan.Decide("store.get.err", cfg.StoreGetErr) {
		f.markGetFaulted(id)
		return nil, 0, fmt.Errorf("%w: store read failed", ErrInjected)
	}
	data, version, err := f.backend.Get(id)
	if err != nil {
		return nil, 0, err
	}
	if fire, v := f.plan.DecideValue("store.get.corrupt", cfg.StoreCorrupt); !skip && fire && len(data) > 0 {
		f.markGetFaulted(id)
		bad := make([]byte, len(data))
		copy(bad, data)
		// Alternate deterministically between a torn (truncated) read
		// and a bit flip, both positioned by the same roll.
		pos := int(v*float64(1<<20)) % len(data)
		if pos < 0 {
			pos = 0
		}
		if int(v*float64(1<<24))%2 == 0 && pos > 0 {
			bad = bad[:pos] // torn read
		} else {
			bad[pos] ^= 0x41 // bit flips
		}
		return bad, version, nil
	}
	return data, version, nil
}

// markGetFaulted records that id's last Get was faulted, so the next
// one passes clean.
func (f *FaultStore) markGetFaulted(id string) {
	f.mu.Lock()
	f.getFaulted[id] = true
	f.mu.Unlock()
}

// Version implements store.Store (no faults: it is the cheap existence
// probe the write-through resync path depends on).
func (f *FaultStore) Version(id string) (uint64, error) { return f.backend.Version(id) }

// Delete implements store.Store.
func (f *FaultStore) Delete(id string) error { return f.backend.Delete(id) }

// List implements store.Store.
func (f *FaultStore) List() ([]store.Entry, error) { return f.backend.List() }

// Violations returns store-level invariant violations observed so far
// (version regressions accepted by the backend).
func (f *FaultStore) Violations() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.violations...)
}
