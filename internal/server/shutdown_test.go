package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"riscvsim/internal/api"
	"riscvsim/internal/store"
)

// TestShutdownDrainsBeforeSpill is the regression test for the
// SIGTERM spill race: the old simserver handler spilled sessions while
// in-flight requests still held their machines, so a long step could
// race the spill and the persisted checkpoint missed the step's work.
// Server.Shutdown must drain the HTTP server first (the in-flight step
// completes and its response arrives intact) and only then spill, so
// the stored blob carries the post-step state.
func TestShutdownDrainsBeforeSpill(t *testing.T) {
	backend := store.NewMem()
	srv := New(Options{MaxSessions: 4, Store: backend})
	hs := &http.Server{Handler: srv.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// An infinite loop program: the step below runs its full budget.
	var newResp api.SessionNewResponse
	postJSONInto(t, base+"/api/v1/session/new",
		`{"code":"loop: beq x0, x0, loop\n"}`, &newResp)
	id := newResp.SessionID

	const steps = 1_000_000
	stepDone := make(chan uint64, 1)
	go func() {
		var resp api.SessionStateResponse
		postJSONInto(t, base+"/api/v1/session/step",
			fmt.Sprintf(`{"sessionId":%q,"steps":%d}`, id, steps), &resp)
		stepDone <- resp.State.Cycle
	}()

	// Let the step request reach the handler, then shut down while it
	// is still running. Shutdown must block until the step finishes.
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	spilled, err := srv.Shutdown(ctx, hs)
	if err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if spilled != 1 {
		t.Fatalf("spilled %d sessions, want 1", spilled)
	}
	select {
	case cycle := <-stepDone:
		if cycle < steps {
			t.Fatalf("in-flight step finished at cycle %d, want >= %d", cycle, steps)
		}
	default:
		t.Fatal("Shutdown returned while the in-flight step was still running")
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}

	// The spill captured the post-step state: a fresh node over the
	// same store rehydrates at the stepped cycle.
	fresh := newSessionStore(4, 0, backend, 0, false, nil)
	sess, ok := fresh.Get(nil, id)
	if !ok {
		t.Fatal("spilled session did not rehydrate")
	}
	if got := sess.machine.Cycle(); got < steps {
		t.Fatalf("rehydrated at cycle %d, want >= %d (spill raced the in-flight step)", got, steps)
	}
}

// postJSONInto issues a plain JSON POST with the default client and decodes
// the 200 response into out. It cannot use internal/client (import
// cycle), so it speaks raw HTTP.
func postJSONInto(t testing.TB, url, body string, out any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var env api.ErrorEnvelope
		json.NewDecoder(resp.Body).Decode(&env)
		t.Fatalf("POST %s: %d [%s] %s", url, resp.StatusCode, env.Err.Code, env.Err.Message)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("POST %s: decode: %v", url, err)
	}
}
