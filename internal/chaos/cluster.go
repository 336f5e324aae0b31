package chaos

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"riscvsim/internal/api"
	"riscvsim/internal/router"
	"riscvsim/internal/server"
	"riscvsim/internal/store"
)

// Cluster is the chaos harness's in-process distributed tier: N
// replicas over one shared FaultStore behind the real router, like
// loadgen.SpawnCluster, plus the controls chaos needs — replicas can
// be killed abruptly and revived at the SAME address (a process
// restart, not a new node: the ring name and URL survive, in-memory
// sessions do not), and every replica's HTTP path runs through the
// plan's network-fault middleware.
type Cluster struct {
	// RouterURL is the base URL schedules target.
	RouterURL string
	// Store is the shared fault-injecting checkpoint store.
	Store *FaultStore

	plan     *Plan
	cfg      Config
	rt       *router.Router
	routerTS *httptest.Server

	mu       sync.Mutex
	replicas map[string]*chaosReplica
}

// chaosReplica is one replica slot: a stable name+address whose server
// process comes and goes.
type chaosReplica struct {
	name string
	addr string // host:port, fixed for the cluster's lifetime
	ts   *httptest.Server
}

// SpawnCluster builds the chaos tier under plan.
func SpawnCluster(plan *Plan) (*Cluster, error) {
	cfg := plan.Config()
	var backend store.Store = store.NewMem()
	if cfg.StoreDir != "" {
		d, err := store.NewDir(cfg.StoreDir)
		if err != nil {
			return nil, fmt.Errorf("chaos: cluster store: %w", err)
		}
		backend = d
	}
	c := &Cluster{
		Store:    NewFaultStore(backend, plan),
		plan:     plan,
		cfg:      cfg,
		replicas: make(map[string]*chaosReplica, cfg.Replicas),
	}
	var reps []router.Replica
	for i := 0; i < cfg.Replicas; i++ {
		name := fmt.Sprintf("sim%d", i+1)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("chaos: replica listener: %w", err)
		}
		r := &chaosReplica{name: name, addr: ln.Addr().String()}
		r.ts = c.startReplica(name, ln)
		c.replicas[name] = r
		reps = append(reps, router.Replica{Name: name, URL: "http://" + r.addr})
	}
	rt, err := router.New(router.Options{
		Replicas:       reps,
		HealthInterval: 100 * time.Millisecond,
		HealthTimeout:  2 * time.Second,
		RetryBackoff:   10 * time.Millisecond,
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	c.rt = rt
	c.routerTS = httptest.NewServer(rt.Handler())
	c.RouterURL = c.routerTS.URL
	return c, nil
}

// startReplica boots a fresh server process on ln — used at spawn and
// again on every revive (a revive is a restart: new server.Server, so
// in-memory sessions are gone and only the shared store survives).
func (c *Cluster) startReplica(name string, ln net.Listener) *httptest.Server {
	srv := server.New(server.Options{
		MaxSessions:      256,
		Store:            c.Store,
		AllowAssignedIDs: true,
		MaxInFlight:      c.cfg.MaxInFlight,
		MaxQueue:         c.cfg.MaxQueue,
		QueueTimeout:     c.cfg.QueueTimeout,
		RequestTimeout:   c.cfg.RequestTimeout,
	})
	ts := httptest.NewUnstartedServer(faultMiddleware(c.plan, name, srv.Handler()))
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	return ts
}

// Router exposes the underlying router for metrics assertions.
func (c *Cluster) Router() *router.Router { return c.rt }

// ReplicaNames lists the cluster's ring names (alive or not).
func (c *Cluster) ReplicaNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.replicas))
	for n := range c.replicas {
		names = append(names, n)
	}
	return names
}

// AliveCount returns how many replicas currently run.
func (c *Cluster) AliveCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, r := range c.replicas {
		if r.ts != nil {
			n++
		}
	}
	return n
}

// Kill terminates a replica's process abruptly: open client
// connections are severed mid-flight, in-memory sessions die. The
// address stays reserved for Revive. Killing a dead replica is a no-op
// (false).
func (c *Cluster) Kill(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.replicas[name]
	if !ok || r.ts == nil {
		return false
	}
	r.ts.CloseClientConnections()
	r.ts.Close()
	r.ts = nil
	return true
}

// Revive restarts a killed replica on its original address with a
// fresh server process sharing the cluster store — the in-process
// stand-in for "the container came back". False when the replica is
// already alive or the address cannot be rebound.
func (c *Cluster) Revive(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.replicas[name]
	if !ok || r.ts != nil {
		return false
	}
	// The old socket may linger briefly after an abrupt close; retry
	// the bind for a moment before giving up.
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		ln, err = net.Listen("tcp", r.addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		return false
	}
	r.ts = c.startReplica(name, ln)
	return true
}

// Close tears the cluster down.
func (c *Cluster) Close() {
	if c.routerTS != nil {
		c.routerTS.Close()
	}
	if c.rt != nil {
		c.rt.Close()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.replicas {
		if r.ts != nil {
			r.ts.Close()
			r.ts = nil
		}
	}
}

// faultMiddleware injects network faults on a replica's request path:
// connection drops before the handler runs, slow responses, and torn
// responses (headers plus a partial body, then a severed connection).
// Health probes and admin reads pass through clean — they are the
// router's eyes, and letting chaos consume their stream positions
// would also make fault replay depend on probe timing.
func faultMiddleware(plan *Plan, name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == api.V1Prefix+"/health" || strings.HasPrefix(r.URL.Path, "/admin/") {
			next.ServeHTTP(w, r)
			return
		}
		cfg := plan.Config()
		if plan.Decide("net."+name+".drop", cfg.NetDrop) {
			hijackClose(w)
			return
		}
		if plan.Decide("net."+name+".slow", cfg.NetSlow) {
			time.Sleep(cfg.SlowResponse)
		}
		if fire, v := plan.DecideValue("net."+name+".torn", cfg.NetTorn); fire {
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			tearResponse(w, rec, v)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// hijackClose severs the connection without writing anything — the
// client sees an unexpected EOF mid-request.
func hijackClose(w http.ResponseWriter) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		// No hijack support (HTTP/2 etc.): fall back to an empty 500,
		// still an abrupt failure from the caller's point of view.
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	conn, _, err := hj.Hijack()
	if err == nil {
		conn.Close()
	}
}

// tearResponse replays a recorded response but stops partway through
// the body and severs the connection, advertising the full length so
// the client cannot mistake the truncation for a complete message.
func tearResponse(w http.ResponseWriter, rec *httptest.ResponseRecorder, roll float64) {
	body := rec.Body.Bytes()
	cut := int(roll * float64(len(body)))
	if cut >= len(body) {
		cut = len(body) / 2
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	conn, buf, err := hj.Hijack()
	if err != nil {
		return
	}
	defer conn.Close()
	fmt.Fprintf(buf, "HTTP/1.1 %d %s\r\n", rec.Code, http.StatusText(rec.Code))
	for k, vs := range rec.Header() {
		if k == "Content-Length" {
			continue
		}
		for _, v := range vs {
			fmt.Fprintf(buf, "%s: %s\r\n", k, v)
		}
	}
	fmt.Fprintf(buf, "Content-Length: %d\r\n\r\n", len(body))
	buf.Write(body[:cut])
	buf.Flush()
}
