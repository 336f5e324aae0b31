// Package chaos is the deterministic fault-injection harness for the
// distributed session tier (docs/robustness.md). One Plan, derived from
// a single int64 seed through internal/seeds, decides every injected
// fault — store write/read errors, latency spikes, torn blobs,
// connection drops, slow replicas, replica kills — as a pure function
// of (seed, fault site, per-site occurrence counter). Re-running with
// the same seed replays the same fault decisions at the same sites in
// the same order, which is what makes a failing chaos schedule a
// one-line reproducer (`chaostest -chaos-seed N`).
//
// The harness has three layers:
//
//   - FaultStore wraps a store.Store with injected faults on the
//     Put/Get path (the durability boundary).
//   - Cluster spawns in-process replicas behind the real router, with a
//     chaos middleware on each replica's HTTP path (the network
//     boundary) and kill/revive control (the process boundary).
//   - Runner drives a seed-derived schedule of client operations
//     through the router and checks the tier's invariants: acked
//     durable checkpoints are never lost, rehydrated sessions are
//     bit-exact (StateHash), store versions only move forward, and
//     every client-visible outcome is typed.
//
// Minimize shrinks a failing schedule to its shortest failing prefix.
package chaos

import (
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"riscvsim/internal/seeds"
)

// Config selects fault classes and their rates. All probabilities are
// in [0,1] per opportunity; zero disables the class. The zero Config
// injects nothing (a plain correctness run).
type Config struct {
	// Seed derives every fault decision and the op schedule.
	Seed int64

	// StorePutErr fails store Puts with an injected error (the
	// checkpoint is then acked non-durable).
	StorePutErr float64
	// StoreGetErr fails store Gets (rehydration/failover reads).
	StoreGetErr float64
	// StoreCorrupt returns a transiently corrupted copy of a blob on
	// Get — a bit flip or a torn (truncated) read. The underlying blob
	// is intact; a re-read sees good bytes.
	StoreCorrupt float64
	// StoreLatency delays a store operation by LatencySpike.
	StoreLatency float64
	// LatencySpike is the injected store delay (default 20ms).
	LatencySpike time.Duration

	// NetDrop kills a replica connection before the request is read —
	// the router sees a mid-connection failure.
	NetDrop float64
	// NetTorn serves a response but closes the connection mid-body.
	NetTorn float64
	// NetSlow delays a replica response by SlowResponse.
	NetSlow float64
	// SlowResponse is the injected response delay (default 50ms).
	SlowResponse time.Duration

	// DropAckedPuts is the harness's self-test bug: store Puts succeed
	// from the caller's point of view but write nothing. Acked durable
	// checkpoints are silently lost — exactly the invariant the runner
	// checks — so a chaos campaign over a tier with this bug MUST fail.
	// CI runs one campaign with it on to prove the harness catches it.
	DropAckedPuts bool
	// DropAckedPutsRate is the drop probability when DropAckedPuts is
	// set (default 0.5).
	DropAckedPutsRate float64

	// Replicas is the cluster size (default 3).
	Replicas int
	// StoreDir backs the shared store with a directory (durability
	// path); empty keeps it in memory (fast path for campaigns).
	StoreDir string

	// MaxInFlight/MaxQueue/QueueTimeout/RequestTimeout configure each
	// replica's admission control and deadline (0 = server defaults /
	// disabled), so overload drills run through the same harness.
	MaxInFlight    int
	MaxQueue       int
	QueueTimeout   time.Duration
	RequestTimeout time.Duration
}

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.LatencySpike <= 0 {
		c.LatencySpike = 20 * time.Millisecond
	}
	if c.SlowResponse <= 0 {
		c.SlowResponse = 50 * time.Millisecond
	}
	if c.DropAckedPutsRate <= 0 {
		c.DropAckedPutsRate = 0.5
	}
	return c
}

// DefaultFaults is the standard chaos mix: every fault class on at
// rates that keep schedules mostly-progressing (the tier should absorb
// faults, not drown in them).
func DefaultFaults(seed int64) Config {
	return Config{
		Seed:         seed,
		StorePutErr:  0.05,
		StoreGetErr:  0.05,
		StoreCorrupt: 0.05,
		StoreLatency: 0.05,
		NetDrop:      0.05,
		NetTorn:      0.05,
		NetSlow:      0.05,
	}
}

// Plan turns a Config into deterministic per-site fault decisions. A
// site is a stable string naming one injection point ("store.put.err",
// "net.sim2.drop", ...); each site has its own occurrence counter, and
// decision k at site s is a pure function of (seed, s, k) — concurrent
// timing cannot reorder a site's decision stream, only interleave
// different sites.
type Plan struct {
	cfg     Config
	enabled atomic.Bool

	mu       sync.Mutex
	counters map[string]*atomic.Uint64
}

// NewPlan builds the plan for a config (faults start enabled).
func NewPlan(cfg Config) *Plan {
	p := &Plan{cfg: cfg.withDefaults(), counters: make(map[string]*atomic.Uint64)}
	p.enabled.Store(true)
	return p
}

// Config returns the plan's (defaulted) configuration.
func (p *Plan) Config() Config { return p.cfg }

// Disable turns all fault injection off — the runner's settle/verify
// phase runs fault-free so invariant violations can't hide behind
// still-failing infrastructure.
func (p *Plan) Disable() { p.enabled.Store(false) }

// counter returns site's occurrence counter, creating it on first use.
func (p *Plan) counter(site string) *atomic.Uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.counters[site]
	if !ok {
		c = new(atomic.Uint64)
		p.counters[site] = c
	}
	return c
}

// roll draws site's next deterministic uniform value in [0,1). Each
// call consumes one position in the site's stream.
func (p *Plan) roll(site string) float64 {
	n := p.counter(site).Add(1) - 1
	h := fnv.New64a()
	h.Write([]byte(site))
	mixed := uint64(seeds.Mix(p.cfg.Seed ^ int64(h.Sum64()) + int64(n)))
	return float64(mixed>>11) / float64(1<<53)
}

// Decide reports whether the fault at site fires, given its configured
// probability. Disabled plans never fire and consume no stream
// positions (the fault-free verify phase must not perturb replay).
func (p *Plan) Decide(site string, prob float64) bool {
	if prob <= 0 || !p.enabled.Load() {
		return false
	}
	return p.roll(site) < prob
}

// DecideValue fires like Decide but also returns the site's roll —
// used to derive secondary deterministic choices (corruption offset,
// torn-read length) from the same stream position.
func (p *Plan) DecideValue(site string, prob float64) (bool, float64) {
	if prob <= 0 || !p.enabled.Load() {
		return false, 0
	}
	v := p.roll(site)
	return v < prob, v
}
