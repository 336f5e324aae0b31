// Command simserver runs the simulation server: the paper's `simserver`
// container, serving the JSON API that both the web client and the CLI
// consume (§III-D). TLS termination belongs to a front proxy (the paper
// uses nginx), so this binary speaks plain HTTP.
//
// Session lifetimes are fixed: a session idle for 15 minutes is evicted
// (spilled to -spill-dir when there is one), a spilled checkpoint older
// than 24 hours is garbage-collected, and a request body may be at most
// 4 MiB. With -assigned-ids and a spill directory, every explicit
// checkpoint is also written through to the store, so replicas sharing
// it can fail over (docs/deployment.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"riscvsim/internal/server"
	"riscvsim/internal/store"
)

func main() {
	var (
		addr        = flag.String("addr", ":8042", "listen address")
		maxSessions = flag.Int("max-sessions", 256, "interactive session cap (LRU eviction beyond it)")
		spillDir    = flag.String("spill-dir", "auto",
			"checkpoint evicted sessions into this directory and rehydrate them on the next touch; \"auto\" scopes a temp directory to -addr so instances don't share session namespaces (empty = evictions lose sessions)")
		assignedIDs  = flag.Bool("assigned-ids", false, "accept router-assigned session IDs via the "+"X-Riscvsim-Session-Id"+" header on create/restore, and write explicit checkpoints through to the spill store (required behind simrouter: replicas sharing -spill-dir can then fail over)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "on SIGINT/SIGTERM, wait up to this long for in-flight requests before spilling sessions")
		debug        = flag.Bool("debug", false, "debug-level logging (session spill/eviction events)")
		noGzip       = flag.Bool("no-gzip", false, "disable response compression")

		maxInFlight    = flag.Int("max-inflight", 0, "admission control: cap on concurrently executing simulation requests; beyond it requests queue briefly and are then shed with a typed 429 over_capacity (0 = unlimited)")
		maxQueue       = flag.Int("max-queue", 0, "admission control: how many requests may wait for an in-flight slot (0 = 2x max-inflight)")
		queueTimeout   = flag.Duration("queue-timeout", 0, "admission control: how long a queued request waits before being shed (0 = 1s)")
		requestTimeout = flag.Duration("request-timeout", 0, "per-request simulation deadline; a request outrunning it gets a typed deadline_exceeded (0 = none)")
	)
	flag.Parse()

	if *spillDir == "auto" {
		// Scope the default by listen address: two instances on one host
		// must not share a spill namespace (their s%08d session IDs would
		// collide and rehydrate each other's machines).
		safe := strings.NewReplacer(":", "_", "/", "_").Replace(*addr)
		*spillDir = filepath.Join(os.TempDir(), "riscvsim-spill-"+safe)
	}

	// The spill store is a directory backend. One that cannot be created
	// degrades to running without spilling, as a failing one does.
	var spill store.Store
	if *spillDir != "" {
		if d, err := store.NewDir(*spillDir); err != nil {
			log.Printf("spill directory unusable, spilling disabled: %v", err)
		} else {
			spill = d
		}
	}

	srv := server.New(server.Options{
		MaxSessions:      *maxSessions,
		DisableGzip:      *noGzip,
		Store:            spill,
		AllowAssignedIDs: *assignedIDs,
		MaxInFlight:      *maxInFlight,
		MaxQueue:         *maxQueue,
		QueueTimeout:     *queueTimeout,
		RequestTimeout:   *requestTimeout,
		Debug:            *debug,
	})

	fmt.Printf("simulation server listening on %s (gzip=%v, API /api/v1)\n",
		*addr, !*noGzip)
	s := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Graceful shutdown: drain in-flight requests first, THEN spill every
	// live session so the next process (same -spill-dir) resumes them
	// transparently. Spilling before the drain would race requests that
	// still hold session machines — the spilled checkpoint could miss the
	// work an in-flight step was doing (see TestShutdownDrainsBeforeSpill).
	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer close(done)
		<-sig
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		n, err := srv.Shutdown(ctx, s)
		if err != nil {
			fmt.Printf("drain ended early (%v); spilled %d live sessions to %s\n", err, n, *spillDir)
			return
		}
		fmt.Printf("drained; spilled %d live sessions to %s; shutting down\n", n, *spillDir)
	}()
	if err := s.ListenAndServe(); err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-done
}
