package server

import (
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"riscvsim/internal/api"
	"riscvsim/internal/store"
)

// waitGoroutines polls until the goroutine count drops to at most
// want, failing with full stacks on timeout.
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

// TestSessionStoreDoesNotLeakGoroutines: a server that churned
// sessions — creation, stepping, checkpointing with write-through,
// eviction-driven spills and rehydrations, admission-controlled
// requests — must hold no goroutines of its own once its HTTP server
// is gone. The session store is deliberately goroutine-free (spill and
// rehydrate run on request goroutines); this pins that property.
func TestSessionStoreDoesNotLeakGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	srv := New(Options{
		MaxSessions:      4, // small cap: session churn forces spill/evict cycles
		Store:            store.NewMem(),
		AllowAssignedIDs: true, // with a store: write-through
		MaxInFlight:      2,
		MaxQueue:         2,
		QueueTimeout:     100 * time.Millisecond,
	})
	ts := httptest.NewServer(srv.Handler())

	const prog = "loop: addi t0, t0, 1\nbeq x0, x0, loop\n"
	ids := make([]string, 0, 12)
	for i := 0; i < 12; i++ {
		resp, body := postJSON(t, ts.URL+"/api/v1/session/new", &api.SessionNewRequest{
			SimulateRequest: api.SimulateRequest{Code: prog},
		})
		if resp.StatusCode != 200 {
			t.Fatalf("session/new %d: status %d: %s", i, resp.StatusCode, body)
		}
		var sess api.SessionNewResponse
		if err := json.Unmarshal(body, &sess); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sess.SessionID)
		if resp, body := postJSON(t, ts.URL+"/api/v1/session/step",
			&api.SessionStepRequest{SessionID: sess.SessionID, Steps: 100}); resp.StatusCode != 200 {
			t.Fatalf("step %d: status %d: %s", i, resp.StatusCode, body)
		}
		if resp, body := postJSON(t, ts.URL+"/api/v1/session/checkpoint",
			&api.SessionCheckpointRequest{SessionID: sess.SessionID}); resp.StatusCode != 200 {
			t.Fatalf("checkpoint %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	// Touch every session again: with MaxSessions 4, most of these run
	// the spill → rehydrate cycle.
	for _, id := range ids {
		postJSON(t, ts.URL+"/api/v1/session/step", &api.SessionStepRequest{SessionID: id, Steps: 10})
	}

	ts.Close()
	waitGoroutines(t, before, 5*time.Second)
}
