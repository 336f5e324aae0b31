// Multi-node load target (docs/deployment.md). An in-process Cluster
// mirrors the compose topology — N simserver replicas over one shared
// checkpoint store behind the consistent-hash router — so Run can drive
// the router path without containers; the benchmark's session_router
// workload measures it.
package loadgen

import (
	"fmt"
	"net/http/httptest"
	"time"

	"riscvsim/internal/router"
	"riscvsim/internal/server"
	"riscvsim/internal/store"
)

// Cluster is an in-process replica fleet behind a router.
type Cluster struct {
	// RouterURL is the base URL load generators target.
	RouterURL string

	replicas []*httptest.Server
	rt       *router.Router
	routerTS *httptest.Server
}

// SpawnCluster builds n in-process replicas (assigned IDs, and so
// write-through — the compose services' configuration) over one shared store and
// fronts them with the router. storeDir == "" keeps checkpoints in
// memory; otherwise they land in that directory like a compose volume.
func SpawnCluster(n int, storeDir string) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("loadgen: cluster needs at least one replica")
	}
	var backend store.Store = store.NewMem()
	if storeDir != "" {
		d, err := store.NewDir(storeDir)
		if err != nil {
			return nil, fmt.Errorf("loadgen: cluster store: %w", err)
		}
		backend = d
	}
	c := &Cluster{}
	var reps []router.Replica
	for i := 0; i < n; i++ {
		srv := server.New(server.Options{
			MaxSessions:      256,
			Store:            backend,
			AllowAssignedIDs: true,
		})
		name := fmt.Sprintf("sim%d", i+1)
		ts := httptest.NewServer(srv.Handler())
		c.replicas = append(c.replicas, ts)
		reps = append(reps, router.Replica{Name: name, URL: ts.URL})
	}
	rt, err := router.New(router.Options{
		Replicas:       reps,
		HealthInterval: 250 * time.Millisecond,
		HealthTimeout:  2 * time.Second,
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

// Close tears the cluster down.
func (c *Cluster) Close() {
	if c.routerTS != nil {
		c.routerTS.Close()
	}
	if c.rt != nil {
		c.rt.Close()
	}
	for _, ts := range c.replicas {
		ts.Close()
	}
}
