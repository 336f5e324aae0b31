package router

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"riscvsim/internal/api"
	"riscvsim/internal/client"
	"riscvsim/internal/server"
	"riscvsim/internal/store"
)

// waitGoroutines polls until the process goroutine count drops back to
// at most want, or the deadline passes — closing servers and transports
// reaps goroutines asynchronously.
func waitGoroutines(t *testing.T, want int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d running, want <= %d\n%s",
				runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestRouterForwarderDoesNotLeakGoroutines: a router that forwarded
// traffic — including failed forwards to a dead replica, retries, and
// the health-probe loop — must release every goroutine on Close. A
// leak here compounds per request in production.
func TestRouterForwarderDoesNotLeakGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	backend := store.NewMem()
	live := httptest.NewServer(server.New(server.Options{
		MaxSessions: 16, Store: backend, AllowAssignedIDs: true,
	}).Handler())
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // address now refuses connections: every forward to it fails

	rt, err := New(Options{
		Replicas: []Replica{
			{Name: "sim1", URL: live.URL},
			{Name: "sim2", URL: deadURL},
		},
		HealthInterval: 25 * time.Millisecond,
		HealthTimeout:  200 * time.Millisecond,
		RetryBackoff:   5 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	routerTS := httptest.NewServer(rt.Handler())

	cl := client.NewForURL(routerTS.URL, false)
	for i := 0; i < 10; i++ {
		// Mix of outcomes: stateless forwards, session traffic (some
		// owned by the dead replica → failover/retry paths), metrics.
		cl.Simulate(&api.SimulateRequest{Code: "addi t0, t0, 1\n", Steps: 100})
		if sess, err := cl.NewSession(&api.SessionNewRequest{
			SimulateRequest: api.SimulateRequest{Code: "loop: addi t0, t0, 1\nbeq x0, x0, loop\n"},
		}); err == nil {
			cl.Step(sess.SessionID, 50)
			cl.Checkpoint(sess.SessionID)
		}
		cl.Metrics()
	}

	routerTS.Close()
	rt.Close()
	live.Close()
	waitGoroutines(t, before, 5*time.Second)
}
