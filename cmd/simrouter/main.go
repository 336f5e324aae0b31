// Command simrouter fronts a set of simserver replicas with the
// consistent-hash session router (docs/deployment.md): /api/v1/* is
// forwarded to the replica that owns each session, session IDs are
// assigned by the router so ownership is computable up front, and dead
// replicas fail over onto the shared checkpoint store's last
// write-through checkpoint.
//
// Replicas must run with -assigned-ids and share a -spill-dir (or
// equivalent store volume) for failover to work: -assigned-ids with a
// store turns on write-through.
//
// The retry and breaker policy is fixed: at most 3 re-forwards per
// request after a dial failure, drawn from a retry budget of 10 tokens
// that every successful forward refills by 0.1; a replica's breaker trips
// after 3 consecutive failures and half-opens after 2 × -health-interval.
// Buffered request bodies are bounded at 4 MiB, the replicas' own limit.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	"riscvsim/internal/router"
)

func main() {
	var (
		addr     = flag.String("addr", ":8040", "listen address")
		replicas = flag.String("replicas", "",
			"comma-separated replica list, name=url pairs (sim1=http://sim1:8042,...); bare URLs take their host as the ring name")
		healthInterval = flag.Duration("health-interval", time.Second, "replica health probe spacing")
		healthTimeout  = flag.Duration("health-timeout", 500*time.Millisecond, "one health probe's budget")
		retryBackoff   = flag.Duration("retry-backoff", 100*time.Millisecond, "base of the jittered exponential backoff between re-forward attempts")
		requestTimeout = flag.Duration("request-timeout", 0, "end-to-end deadline per forwarded request, streaming endpoints exempt (0 = none)")
		debug          = flag.Bool("debug", false, "log routing decisions, health transitions and migrations")
	)
	flag.Parse()

	reps, err := router.ParseReplicas(*replicas)
	if err != nil {
		log.Fatalf("-replicas: %v", err)
	}
	rt, err := router.New(router.Options{
		Replicas:       reps,
		HealthInterval: *healthInterval,
		HealthTimeout:  *healthTimeout,
		RetryBackoff:   *retryBackoff,
		RequestTimeout: *requestTimeout,
		Debug:          *debug,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	fmt.Printf("session router listening on %s over %d replicas (admin: /admin/ring, /admin/owner, /admin/metrics)\n",
		*addr, len(reps))
	s := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Fatal(s.ListenAndServe())
}
