package server

// Tests of the checkpoint surface: /api/v1/session/{checkpoint,restore},
// transparent spill-to-disk on eviction with rehydration on the next
// touch (including across a server restart), checkpoint-forked batches,
// and the stable checkpoint error codes.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"riscvsim/internal/api"
	"riscvsim/internal/ckpt"
	"riscvsim/sim"
)

// spillProgram runs long enough that sessions are still live mid-run.
const spillProgram = `
	li   t0, 2000
loop:
	addi t0, t0, -1
	bne  t0, x0, loop
	ret
`

func newSpillServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func openSession(t *testing.T, url, code string) string {
	t.Helper()
	resp, body := postJSON(t, url+"/api/v1/session/new", &api.SessionNewRequest{
		SimulateRequest: api.SimulateRequest{Code: code},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session/new: status %d: %s", resp.StatusCode, body)
	}
	var sr api.SessionNewResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	return sr.SessionID
}

func stepSession(t *testing.T, url, id string, steps int64) (*api.SessionStateResponse, *http.Response, []byte) {
	t.Helper()
	resp, body := postJSON(t, url+"/api/v1/session/step", &api.SessionStepRequest{SessionID: id, Steps: steps})
	if resp.StatusCode != http.StatusOK {
		return nil, resp, body
	}
	var sr api.SessionStateResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	return &sr, resp, body
}

func TestSessionCheckpointRestoreEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	id := openSession(t, ts.URL, spillProgram)
	if st, _, body := stepSession(t, ts.URL, id, 500); st == nil {
		t.Fatalf("step: %s", body)
	}

	resp, body := postJSON(t, ts.URL+"/api/v1/session/checkpoint", &api.SessionCheckpointRequest{SessionID: id})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: status %d: %s", resp.StatusCode, body)
	}
	var cp api.SessionCheckpointResponse
	if err := json.Unmarshal(body, &cp); err != nil {
		t.Fatal(err)
	}
	if cp.Cycle != 500 || len(cp.Checkpoint) == 0 {
		t.Fatalf("checkpoint response: cycle=%d, %d bytes", cp.Cycle, len(cp.Checkpoint))
	}

	resp, body = postJSON(t, ts.URL+"/api/v1/session/restore", &api.SessionRestoreRequest{Checkpoint: cp.Checkpoint})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore: status %d: %s", resp.StatusCode, body)
	}
	var nr api.SessionNewResponse
	if err := json.Unmarshal(body, &nr); err != nil {
		t.Fatal(err)
	}
	if nr.SessionID == id {
		t.Error("restore must open a fresh session")
	}
	if nr.State.Cycle != 500 {
		t.Errorf("restored session at cycle %d, want 500", nr.State.Cycle)
	}

	// The original and the restored session stay in lockstep.
	s1, _, _ := stepSession(t, ts.URL, id, 250)
	s2, _, _ := stepSession(t, ts.URL, nr.SessionID, 250)
	j1, _ := json.Marshal(s1.State)
	j2, _ := json.Marshal(s2.State)
	if !bytes.Equal(j1, j2) {
		t.Error("restored session diverged from the original")
	}
}

func TestSessionSpillAndRehydrateOnEviction(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxSessions = 1
	opts.Store = dirStore(t, t.TempDir())
	srv, ts := newSpillServer(t, opts)

	a := openSession(t, ts.URL, spillProgram)
	if st, _, body := stepSession(t, ts.URL, a, 300); st == nil {
		t.Fatalf("step: %s", body)
	}

	// Opening a second session evicts (and spills) the first.
	b := openSession(t, ts.URL, spillProgram)
	if spilled, _, _ := srv.store.Counters(); spilled != 1 {
		t.Fatalf("sessions_spilled = %d, want 1", spilled)
	}

	// Touching the first session rehydrates it transparently, with its
	// cycle position intact (this in turn evicts and spills the second).
	st, _, body := stepSession(t, ts.URL, a, 100)
	if st == nil {
		t.Fatalf("step after eviction: %s", body)
	}
	if st.State.Cycle != 400 {
		t.Errorf("rehydrated session at cycle %d, want 400", st.State.Cycle)
	}
	spilled, rehydrated, lost := srv.store.Counters()
	if rehydrated != 1 || lost != 0 || spilled < 2 {
		t.Errorf("counters: spilled=%d rehydrated=%d lost=%d", spilled, rehydrated, lost)
	}
	// An eviction/rehydrate cycle must not demote the session's rewind
	// acceleration: interval snapshots are re-enabled on rehydration.
	if sess, ok := srv.store.Get(nil, a); !ok {
		t.Error("rehydrated session missing from store")
	} else if sess.machine.SnapshotInterval() == 0 {
		t.Error("rehydrated session lost interval snapshots; backward steps replay from cycle 0")
	}
	_ = b
}

func TestSessionSurvivesServerRestart(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.Store = dirStore(t, dir)

	srv1, ts1 := newSpillServer(t, opts)
	id := openSession(t, ts1.URL, spillProgram)
	if st, _, body := stepSession(t, ts1.URL, id, 700); st == nil {
		t.Fatalf("step: %s", body)
	}
	if n := srv1.SpillSessions(); n != 1 {
		t.Fatalf("SpillSessions = %d, want 1", n)
	}
	ts1.Close()

	// A fresh server process over the same spill directory picks the
	// session up exactly where it was.
	_, ts2 := newSpillServer(t, opts)
	st, _, body := stepSession(t, ts2.URL, id, 50)
	if st == nil {
		t.Fatalf("step after restart: %s", body)
	}
	if st.State.Cycle != 750 {
		t.Errorf("session resumed at cycle %d, want 750", st.State.Cycle)
	}
}

func TestRestartDoesNotReuseSpilledSessionIDs(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.Store = dirStore(t, dir)

	srv1, ts1 := newSpillServer(t, opts)
	id := openSession(t, ts1.URL, spillProgram)
	srv1.SpillSessions()
	ts1.Close()

	_, ts2 := newSpillServer(t, opts)
	id2 := openSession(t, ts2.URL, spillProgram)
	if id2 == id {
		t.Fatalf("restarted server reissued session ID %s over a spilled session", id)
	}
}

func TestEvictionWithoutSpillDirCountsLost(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxSessions = 1
	srv, ts := newSpillServer(t, opts)
	openSession(t, ts.URL, spillProgram)
	openSession(t, ts.URL, spillProgram) // evicts the first, unspillable
	if _, _, lost := srv.store.Counters(); lost != 1 {
		t.Errorf("sessions_lost = %d, want 1", lost)
	}
	var m api.Metrics
	resp, err := http.Get(ts.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.SessionsLost != 1 {
		t.Errorf("metrics sessions_lost = %d, want 1", m.SessionsLost)
	}
}

func TestBatchForksFromBaseCheckpoint(t *testing.T) {
	_, ts := newTestServer(t)

	// Build the warm prefix locally and snapshot it.
	m, err := sim.NewFromAsm(sim.DefaultConfig(), spillProgram, "")
	if err != nil {
		t.Fatal(err)
	}
	m.StepN(1000)
	if m.Halted() {
		t.Fatal("warm-up halted")
	}
	var base bytes.Buffer
	if err := m.Checkpoint(&base); err != nil {
		t.Fatal(err)
	}

	req := &api.BatchRequest{
		BaseCheckpoint: base.Bytes(),
		Requests: []api.SimulateRequest{
			{Steps: 10}, {Steps: 20}, {Steps: 0},
		},
	}
	resp, body := postJSON(t, ts.URL+"/api/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	var br api.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Succeeded != 3 {
		t.Fatalf("batch: %d/%d succeeded: %s", br.Succeeded, len(br.Results), body)
	}
	// Every fork starts at the checkpoint's cycle, not zero.
	if got := br.Results[0].Response.Cycles; got != 1010 {
		t.Errorf("fork 0 ended at cycle %d, want 1010", got)
	}
	if got := br.Results[1].Response.Cycles; got != 1020 {
		t.Errorf("fork 1 ended at cycle %d, want 1020", got)
	}
	if last := br.Results[2].Response; !last.Halted || last.Cycles <= 1000 {
		t.Errorf("fork 2 should run from cycle 1000 to completion, got halted=%v cycle=%d",
			last.Halted, last.Cycles)
	}
}

func TestCheckpointEndpointErrorCodes(t *testing.T) {
	_, ts := newTestServer(t)

	// A valid checkpoint to corrupt.
	m, err := sim.NewFromAsm(sim.DefaultConfig(), spillProgram, "")
	if err != nil {
		t.Fatal(err)
	}
	m.StepN(100)
	var buf bytes.Buffer
	if err := m.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	badMagic := append([]byte(nil), valid...)
	copy(badMagic, "XXXX")
	badVersion := append([]byte(nil), valid...)
	badVersion[4] = 99
	badCRC := append([]byte(nil), valid...)
	badCRC[20] ^= 0xFF

	cases := []struct {
		name     string
		ckpt     []byte
		wantCode string
		wantHTTP int
	}{
		{"bad magic", badMagic, api.CodeBadCheckpoint, http.StatusBadRequest},
		{"newer version", badVersion, api.CodeCheckpointVersion, http.StatusUnprocessableEntity},
		{"crc mismatch", badCRC, api.CodeBadCheckpoint, http.StatusBadRequest},
		{"truncated", valid[:len(valid)/3], api.CodeCheckpointTruncated, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/api/v1/session/restore",
				&api.SessionRestoreRequest{Checkpoint: tc.ckpt})
			if resp.StatusCode != tc.wantHTTP {
				t.Errorf("status %d, want %d: %s", resp.StatusCode, tc.wantHTTP, body)
			}
			if env := decodeErrorEnvelope(t, body); env.Code != tc.wantCode {
				t.Errorf("code %q, want %q", env.Code, tc.wantCode)
			}
		})
	}

	// The same codes surface through checkpoint-carrying batch entries.
	resp, body := postJSON(t, ts.URL+"/api/v1/batch", &api.BatchRequest{
		BaseCheckpoint: badMagic,
		Requests:       []api.SimulateRequest{{Steps: 1}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch transport: %d: %s", resp.StatusCode, body)
	}
	var br api.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Failed != 1 || br.Results[0].Error == nil || br.Results[0].Error.Code != api.CodeBadCheckpoint {
		t.Errorf("batch entry error: %+v", br.Results[0])
	}
}

func TestStoreTTLSweepSpills(t *testing.T) {
	st := newSessionStore(8, time.Minute, dirStore(t, t.TempDir()), 0, false, nil)
	m, err := sim.NewFromAsm(sim.DefaultConfig(), spillProgram, "")
	if err != nil {
		t.Fatal(err)
	}
	m.StepN(123)
	base := time.Now()
	st.now = func() time.Time { return base }
	id := st.Add(nil, m)
	// Idle past the TTL: the sweep spills rather than drops.
	st.now = func() time.Time { return base.Add(2 * time.Minute) }
	if n := st.Sweep(); n != 1 {
		t.Fatalf("swept %d, want 1", n)
	}
	if spilled, _, _ := st.Counters(); spilled != 1 {
		t.Fatalf("spilled = %d, want 1", spilled)
	}
	sess, ok := st.Get(nil, id)
	if !ok {
		t.Fatal("idle-expired session did not rehydrate")
	}
	if got := sess.machine.Cycle(); got != 123 {
		t.Errorf("rehydrated at cycle %d, want 123", got)
	}
}

// TestRetiredSessionIsMarkedGone pins the eviction race mechanism: a
// handler that looked a session up before eviction must observe gone
// after locking, re-fetch, and receive the rehydrated copy instead of
// mutating the orphaned machine (whose state the spill already holds).
func TestRetiredSessionIsMarkedGone(t *testing.T) {
	st := newSessionStore(1, 0, dirStore(t, t.TempDir()), 0, false, nil)
	m, err := sim.NewFromAsm(sim.DefaultConfig(), spillProgram, "")
	if err != nil {
		t.Fatal(err)
	}
	id := st.Add(nil, m)
	sess, ok := st.Get(nil, id)
	if !ok {
		t.Fatal("session missing")
	}

	// Another session arrives; capacity 1 evicts (and spills) ours while
	// the "handler" still holds its pointer.
	m2, err := sim.NewFromAsm(sim.DefaultConfig(), spillProgram, "")
	if err != nil {
		t.Fatal(err)
	}
	st.Add(nil, m2)

	sess.mu.Lock()
	gone := sess.gone
	sess.mu.Unlock()
	if !gone {
		t.Fatal("retired session not marked gone")
	}
	fresh, ok := st.Get(nil, id)
	if !ok {
		t.Fatal("spilled session did not rehydrate")
	}
	if fresh == sess {
		t.Fatal("Get returned the retired session object")
	}
	fresh.mu.Lock()
	defer fresh.mu.Unlock()
	if fresh.gone {
		t.Fatal("rehydrated session marked gone")
	}
}

// TestSpillDirGarbageCollection pins the unbounded-growth fix: spilled
// checkpoints older than SpillTTL are removed at store startup.
func TestSpillDirGarbageCollection(t *testing.T) {
	dir := t.TempDir()
	stale := dir + "/s00000001.v1.ckpt"
	freshFile := dir + "/s00000002.v1.ckpt"
	for _, p := range []string{stale, freshFile} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	newSessionStore(4, 0, dirStore(t, dir), 24*time.Hour, false, nil)
	if _, err := os.ReadFile(stale); err == nil {
		t.Error("stale spill file survived GC")
	}
	if _, err := os.ReadFile(freshFile); err != nil {
		t.Error("fresh spill file was GC'd")
	}
}

// errTruncSanity pins the sentinel mapping the handlers rely on.
func TestCheckpointErrorMapping(t *testing.T) {
	if api.CheckpointError(ckpt.ErrTruncated).Code != api.CodeCheckpointTruncated {
		t.Error("ErrTruncated mapping")
	}
	if api.CheckpointError(ckpt.ErrBadMagic).Code != api.CodeBadCheckpoint {
		t.Error("ErrBadMagic mapping")
	}
}
