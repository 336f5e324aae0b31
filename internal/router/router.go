// Package router implements the distributed tier's front door: a
// consistent-hash HTTP router that spreads interactive sessions over a
// static set of simserver replicas (docs/deployment.md).
//
// Placement uses rendezvous (highest-random-weight) hashing: every
// replica scores every session ID and the healthy replica with the top
// score owns the session. Removing a replica only remaps the sessions
// it owned; adding one back only steals the sessions it scores highest
// on — no global reshuffle, no ring state to persist.
//
// The router assigns session IDs itself (api.SessionIDHeader) so a
// session's owner is computable from its ID before the session exists;
// replicas must run with -assigned-ids. Failover leans on the shared
// checkpoint store: when an owner dies, the next request routes to the
// new rendezvous owner, which rehydrates the session from the store's
// last write-through checkpoint. State past that checkpoint is gone —
// such sessions surface api.CodeSessionMoved so clients know to restore
// or restart.
package router

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"riscvsim/internal/api"
)

// Replica names one simserver backend.
type Replica struct {
	Name string // stable identity in the hash ring (NOT the URL: re-IPing a node must not remap its sessions)
	URL  string // base URL, e.g. http://sim1:8042
}

// ParseReplicas parses the -replicas flag: comma-separated name=url
// pairs. A bare URL gets its host as the name.
func ParseReplicas(s string) ([]Replica, error) {
	var out []Replica
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		rep := Replica{URL: part}
		if i := strings.Index(part, "="); i >= 0 && !strings.Contains(part[:i], "/") {
			rep.Name, rep.URL = part[:i], part[i+1:]
		}
		u, err := url.Parse(rep.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("replica %q: not a base URL (want http://host:port)", part)
		}
		if rep.Name == "" {
			rep.Name = u.Host
		}
		out = append(out, rep)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no replicas configured")
	}
	seen := make(map[string]bool, len(out))
	for _, r := range out {
		if seen[r.Name] {
			return nil, fmt.Errorf("duplicate replica name %q", r.Name)
		}
		seen[r.Name] = true
	}
	return out, nil
}

// Options configures a Router. The retry and breaker policy is fixed
// (the constants in breaker.go; a tripped breaker cools down for 2 ×
// HealthInterval), and buffered request bodies are bounded by
// api.MaxBodyBytes, the replicas' own limit.
type Options struct {
	Replicas []Replica

	// HealthInterval spaces the background health probes (default 1s).
	HealthInterval time.Duration
	// HealthTimeout bounds one probe (default 500ms).
	HealthTimeout time.Duration
	// RetryBackoff is the base of the jittered exponential retry
	// backoff (default 100ms, capped at maxBackoff).
	RetryBackoff time.Duration
	// RequestTimeout bounds each forwarded request end-to-end (0 = no
	// deadline). Streaming endpoints (session/stream, session/trace) are
	// exempt — they pace themselves and end on client disconnect.
	RequestTimeout time.Duration
	// Debug enables routing-decision logging.
	Debug bool
}

type replica struct {
	name    string
	baseURL string
	healthy atomic.Bool
	br      *breaker
}

// available reports whether the replica may receive traffic: the health
// probe says it is up AND its circuit breaker admits the request (a
// half-open breaker admits it as a trial).
func (r *replica) available() bool {
	return r.healthy.Load() && r.br.allow()
}

type sessionRecord struct {
	owner string // replica name that last served the session
	epoch uint64 // ring epoch at that time
}

// Router forwards /api/v1/* to the replica that owns each session.
type Router struct {
	opts     Options
	replicas []*replica
	client   *http.Client

	// epoch counts ring-membership changes (health transitions). A
	// session record stamped with an old epoch means the ring changed
	// under the session — the disambiguator between "session expired"
	// and "session moved" when a replica reports unknown_session.
	epoch atomic.Uint64
	rr    atomic.Uint64 // round-robin cursor for session-less endpoints

	mu       sync.Mutex
	sessions map[string]sessionRecord

	rebalanceMu sync.Mutex // one migration sweep at a time

	budget *retryBudget

	// Robustness counters (served by /admin/metrics).
	forwards      atomic.Uint64 // requests entering the API handler (route)
	retries       atomic.Uint64 // re-forwards actually performed
	retriesDenied atomic.Uint64 // retries refused by the empty budget
	shedRelayed   atomic.Uint64 // 429 over_capacity responses relayed
	deadlineHits  atomic.Uint64 // requests cut by RequestTimeout
	inFlight      atomic.Int64  // currently forwarding
	forwardNanos  atomic.Uint64 // wall time inside the API handler
	upstreamNanos atomic.Uint64 // of which: waiting on replicas and backing off

	mux    *http.ServeMux
	stop   chan struct{}
	stopWG sync.WaitGroup
	debugf func(string, ...any)
}

// New builds a router, synchronously probes every replica once (so
// routing works immediately), and starts the background health loop.
// Call Close to stop it.
func New(opts Options) (*Router, error) {
	if len(opts.Replicas) == 0 {
		return nil, fmt.Errorf("router: no replicas")
	}
	if opts.HealthInterval <= 0 {
		opts.HealthInterval = time.Second
	}
	if opts.HealthTimeout <= 0 {
		opts.HealthTimeout = 500 * time.Millisecond
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 100 * time.Millisecond
	}
	debugf := func(string, ...any) {}
	if opts.Debug {
		debugf = log.Printf
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	// Replicas gzip when the client asked for it; relay those bytes
	// untouched instead of inflating them at the router.
	tr.DisableCompression = true
	rt := &Router{
		opts:     opts,
		client:   &http.Client{Transport: tr},
		sessions: make(map[string]sessionRecord),
		mux:      http.NewServeMux(),
		stop:     make(chan struct{}),
		debugf:   debugf,
	}
	rt.budget = newRetryBudget()
	for _, r := range opts.Replicas {
		rt.replicas = append(rt.replicas, &replica{
			name:    r.Name,
			baseURL: strings.TrimRight(r.URL, "/"),
			br:      newBreaker(2 * opts.HealthInterval),
		})
	}
	// The URL space is the server's own table; anything else is forwarded
	// statelessly so the replicas keep answering their own 404 and 405.
	for _, row := range api.Routes {
		rt.mux.HandleFunc(row.Pattern(), rt.route(row))
	}
	rt.mux.HandleFunc(api.V1Prefix+"/", rt.route(api.Route{}))
	rt.mux.HandleFunc("GET /admin/ring", rt.handleRing)
	rt.mux.HandleFunc("GET /admin/owner", rt.handleOwner)
	rt.mux.HandleFunc("GET /admin/metrics", rt.handleMetrics)
	rt.probeAll()
	rt.stopWG.Add(1)
	go rt.healthLoop()
	return rt, nil
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the health loop.
func (rt *Router) Close() {
	close(rt.stop)
	rt.stopWG.Wait()
}

// rendezvousScore is the HRW weight of (session, replica): FNV-1a over
// the pair, NUL-separated so ("ab","c") and ("a","bc") differ.
func rendezvousScore(session, replicaName string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, session)
	h.Write([]byte{0})
	io.WriteString(h, replicaName)
	return h.Sum64()
}

// owner returns the available replica with the top rendezvous score for
// the session, or nil when every replica is down or breaker-excluded.
// The breaker participates in placement on purpose: a replica that
// keeps failing forwards loses its sessions to the next rendezvous
// choice exactly like a dead one, and wins them back through the
// half-open trial when it recovers.
func (rt *Router) owner(session string) *replica {
	var best *replica
	var bestScore uint64
	for _, r := range rt.replicas {
		if !r.available() {
			continue
		}
		s := rendezvousScore(session, r.name)
		if best == nil || s > bestScore || (s == bestScore && r.name < best.name) {
			best, bestScore = r, s
		}
	}
	return best
}

// nextHealthy round-robins over available replicas for session-less
// endpoints (simulate, batch, compile...).
func (rt *Router) nextHealthy() *replica {
	n := len(rt.replicas)
	start := int(rt.rr.Add(1))
	for i := 0; i < n; i++ {
		r := rt.replicas[(start+i)%n]
		if r.available() {
			return r
		}
	}
	return nil
}

func (rt *Router) byName(name string) *replica {
	for _, r := range rt.replicas {
		if r.name == name {
			return r
		}
	}
	return nil
}

// newSessionID draws a random ID of the servers' s%08d form.
func newSessionID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand does not fail on supported platforms
	}
	return fmt.Sprintf("s%08d", binary.LittleEndian.Uint64(b[:])%100_000_000)
}

// ---- health ----

func (rt *Router) healthLoop() {
	defer rt.stopWG.Done()
	t := time.NewTicker(rt.opts.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probeAll()
		}
	}
}

// probeAll probes every replica; any transition bumps the epoch, and a
// recovery triggers a migration sweep (sessions the recovered node now
// scores highest on move to it by checkpoint handoff).
func (rt *Router) probeAll() {
	changed, recovered := false, false
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, r := range rt.replicas {
		wg.Add(1)
		go func(r *replica) {
			defer wg.Done()
			up := rt.probe(r)
			if !up {
				// A failed probe trips the breaker too, so a node that
				// flaps back up re-earns traffic through the half-open
				// trial instead of getting the full load at once.
				r.br.trip()
			} else if !r.healthy.Load() {
				// Probe-confirmed recovery: half-open right away so the
				// rebalance sweep (and trial traffic) can reach the node
				// without waiting out the breaker cooldown.
				r.br.halfOpen()
			}
			if r.healthy.Swap(up) != up {
				mu.Lock()
				changed = true
				recovered = recovered || up
				mu.Unlock()
				rt.debugf("router: replica %s now %s", r.name, map[bool]string{true: "healthy", false: "down"}[up])
			}
		}(r)
	}
	wg.Wait()
	if changed {
		rt.epoch.Add(1)
	}
	if recovered {
		go rt.rebalance()
	}
}

func (rt *Router) probe(r *replica) bool {
	ctx, cancel := contextWithTimeout(rt.opts.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.baseURL+api.V1Prefix+"/health", nil)
	if err != nil {
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// markDown records a dial failure immediately instead of waiting for
// the next probe tick, so the retry path re-resolves owners against an
// up-to-date ring.
func (rt *Router) markDown(r *replica) {
	r.br.trip()
	if r.healthy.Swap(false) {
		rt.epoch.Add(1)
		rt.debugf("router: replica %s marked down (dial failure)", r.name)
	}
}
