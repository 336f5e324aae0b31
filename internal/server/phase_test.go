package server

// Tests of the request path's ledger: every route books one request and
// the phases it goes through, the run loop tells a deadline from a client
// that went away, and the gzip request path recycles its decompressor
// without mixing bodies.

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"riscvsim/internal/api"
	"riscvsim/internal/store"
	"riscvsim/internal/trace"
	"riscvsim/sim"
)

// spinProgram never halts.
const spinProgram = `
loop:
  addi t0, t0, 1
  j loop
`

// TestPhasesPerRoute drives each kind of route once and checks what it
// left in the ledger: exactly one request, time in every phase the route
// goes through, and the three legacy figures as views of the phases.
func TestPhasesPerRoute(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxInFlight = 1
	opts.QueueTimeout = 5 * time.Millisecond
	opts.Store = store.NewMem()
	opts.AllowAssignedIDs = true // with a store: write-through
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	v1 := ts.URL + api.V1Prefix

	post := func(path string, body any) func() *http.Response {
		return func() *http.Response {
			resp, _ := postJSON(t, v1+path, body)
			return resp
		}
	}
	get := func(path string) func() *http.Response {
		return func() *http.Response {
			resp, err := http.Get(v1 + path)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return resp
		}
	}
	sessionID := openSession(t, ts.URL, spillProgram)
	var ckpt api.SessionCheckpointResponse
	simulate := &api.SimulateRequest{Code: tinyProgram, IncludeState: true}
	type phases = []phase
	full := phases{phaseDecode, phaseBuild, phaseSimulate, phaseReport, phaseEncode}

	for _, tc := range []struct {
		name   string
		do     func() *http.Response
		status int
		want   phases
	}{
		// A source and a reply are cached the second time they are looked
		// up, so the third request is answered from its memoized reply,
		// looked up in the build phase, and another request on the same
		// source runs on the cached Program.
		{"simulate miss", post("/simulate", simulate), 200, full},
		{"simulate stored", post("/simulate", simulate), 200, full},
		{"simulate memoized", post("/simulate", simulate), 200, phases{phaseDecode, phaseBuild}},
		{"simulate hit", post("/simulate", &api.SimulateRequest{Code: tinyProgram, IncludeState: true, Steps: 1000}), 200, full},
		{"batch", post("/batch", &api.BatchRequest{Requests: []api.SimulateRequest{
			{Code: spillProgram}, {Code: spillProgram, Preset: "scalar"}, {Code: tinyProgram}, {Code: spillProgram},
		}}), 200, full},
		{"suite", post("/suite", &api.SuiteRequest{Filter: "matmul,bitmix"}), 200, full},
		{"session new", post("/session/new", &api.SessionNewRequest{SimulateRequest: api.SimulateRequest{Code: spillProgram}}),
			200, phases{phaseDecode, phaseBuild, phaseReport, phaseEncode}},
		{"session step", post("/session/step", &api.SessionStepRequest{SessionID: sessionID, Steps: 50}),
			200, phases{phaseDecode, phaseSimulate, phaseReport, phaseEncode}},
		{"session back", post("/session/step", &api.SessionStepRequest{SessionID: sessionID, Steps: -5}),
			200, phases{phaseDecode, phaseSimulate, phaseReport, phaseEncode}},
		{"session goto", post("/session/goto", &api.SessionGotoRequest{SessionID: sessionID, Cycle: 20}),
			200, phases{phaseDecode, phaseSimulate, phaseReport, phaseEncode}},
		{"session checkpoint", func() *http.Response {
			resp, body := postJSON(t, v1+"/session/checkpoint", &api.SessionCheckpointRequest{SessionID: sessionID})
			if err := json.Unmarshal(body, &ckpt); err != nil {
				t.Fatal(err)
			}
			return resp
		}, 200, phases{phaseDecode, phaseSimulate, phaseStorePut, phaseEncode}}, // written through
		{"session step rehydrating", func() *http.Response {
			srv.SpillSessions()
			return post("/session/step", &api.SessionStepRequest{SessionID: sessionID, Steps: 1})()
		}, 200, phases{phaseDecode, phaseStoreGet, phaseSimulate, phaseReport, phaseEncode}},
		{"session restore", func() *http.Response {
			return post("/session/restore", &api.SessionRestoreRequest{Checkpoint: ckpt.Checkpoint})()
		}, 200, phases{phaseDecode, phaseSimulate, phaseReport, phaseEncode}},
		{"session render", get("/session/render?session=" + sessionID), 200, phases{phaseSimulate, phaseReport, phaseEncode}},
		{"session log", get("/session/" + sessionID + "/log"), 200, phases{phaseReport, phaseEncode}},
		{"stream", post("/session/stream", &api.StreamRequest{SimulateRequest: *simulate, StepBurst: 1}), 200, full},
		{"trace", post("/session/trace", &api.TraceStreamRequest{SimulateRequest: api.SimulateRequest{Code: tinyProgram}}), 200, full},
		{"parseAsm", post("/parseAsm", &api.ParseAsmRequest{Code: tinyProgram}), 200, phases{phaseDecode, phaseBuild, phaseEncode}},
		{"instructionDescriptions", get("/instructionDescriptions"), 200, phases{phaseEncode}},
		{"metrics", get("/metrics"), 200, phases{phaseEncode}},
		{"bad JSON", func() *http.Response {
			resp, err := http.Post(v1+"/simulate", "application/json", strings.NewReader("{nope"))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp
		}, 400, phases{phaseDecode, phaseEncode}},
		{"shed", func() *http.Response {
			// The one slot is taken, so the request queues, times out
			// and is shed.
			release, aerr := srv.adm.acquire(context.Background())
			if aerr != nil {
				t.Fatal(aerr)
			}
			defer release()
			return post("/simulate", simulate)()
		}, 429, phases{phaseQueue, phaseEncode}},
	} {
		before := srv.Metrics()
		resp := tc.do()
		// The request is booked after its reply is written; give the
		// handler goroutine the moment it needs.
		var m api.Metrics
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
			if m = srv.Metrics(); m.Requests != before.Requests || time.Now().After(deadline) {
				break
			}
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if got := m.Requests - before.Requests; got != 1 {
			t.Errorf("%s: requests moved by %d, want 1", tc.name, got)
		}
		var moved [numPhases]uint64
		var sum uint64
		for p, name := range phaseNames {
			moved[p] = m.PhaseNanos[name] - before.PhaseNanos[name]
			sum += moved[p]
		}
		for _, p := range tc.want {
			if moved[p] == 0 {
				t.Errorf("%s: phase %s booked nothing: %v", tc.name, phaseNames[p], moved)
			}
		}
		for _, p := range (phases{phaseStoreGet, phaseStorePut}) {
			if moved[p] != 0 && !slices.Contains(tc.want, p) {
				t.Errorf("%s: booked %d ns to %s without going to the store", tc.name, moved[p], phaseNames[p])
			}
		}
		if total := m.TotalNanos - before.TotalNanos; sum > total {
			t.Errorf("%s: phases sum to %d ns, more than the request's total of %d ns: %v", tc.name, sum, total, moved)
		}
		if m.JSONNanos != m.PhaseNanos["decode"]+m.PhaseNanos["encode"] || m.SimNanos != m.PhaseNanos["simulate"] {
			t.Errorf("%s: legacy figures are not views of the phases: %+v", tc.name, m)
		}
	}

	// The wire names of the phases are pinned here, literally.
	ledger := srv.Metrics().PhaseNanos
	for _, name := range []string{"queue", "decode", "build", "simulate", "report", "encode", "store-get", "store-put"} {
		if _, ok := ledger[name]; !ok {
			t.Errorf("phaseNanos lacks its %q key", name)
		}
	}
	if len(ledger) != 8 {
		t.Errorf("phaseNanos has %d keys, want 8: %v", len(ledger), ledger)
	}

	before := srv.Metrics().Requests
	get("/health")()
	if got := srv.Metrics().Requests; got != before {
		t.Errorf("the liveness probe was counted as a request")
	}
	if m := srv.Metrics(); m.Shed != 1 || m.BatchSimulations != 4 || m.SuiteWorkloads != 2 || m.InFlight != 0 {
		t.Errorf("counters beside the ledger: %+v", m)
	}
}

// TestCappedStreamStopsWhenClientLeaves: past its event cap a stream
// finishes the run in one piece — up to 50M cycles, 250 deadlineChunks —
// and that tail must notice a client that has gone within a chunk, not
// run on holding the admission slot. The allowance is measured, not
// fixed: a traced chunk under the race detector takes seconds.
func TestCappedStreamStopsWhenClientLeaves(t *testing.T) {
	for _, tc := range []struct {
		path   string
		tracer sim.Tracer
	}{
		{"/session/stream", nil},
		{"/session/trace", &burstTracer{filter: trace.NoFilter}},
	} {
		srv, ts := newTestServer(t)
		m, aerr := srv.buildMachine(&api.SimulateRequest{Code: spinProgram})
		if aerr != nil {
			t.Fatal(aerr)
		}
		if tc.tracer != nil {
			m.SetTracer(tc.tracer)
		}
		start := time.Now()
		m.Run(deadlineChunk)
		allowance := time.Second + 10*time.Since(start)

		ctx, cancel := context.WithCancel(context.Background())
		// Both endpoints take these fields; two events reach either cap.
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+api.V1Prefix+tc.path,
			jsonBody(t, &api.StreamRequest{SimulateRequest: api.SimulateRequest{Code: spinProgram}, StepBurst: 8, MaxEvents: 2}))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
			t.Fatalf("%s: no first event: %v", tc.path, err)
		}
		cancel()
		resp.Body.Close()
		for deadline := time.Now().Add(allowance); srv.Metrics().InFlight != 0; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: the run still holds its slot %v after the client left", tc.path, allowance)
			}
		}
	}
}

// TestRunLoopTellsDeadlineFromCancel: only a context that ran out of time
// is a deadline — counted, and answered deadline_exceeded. A client that
// went away is neither. ResetMetrics clears the count with the rest.
func TestRunLoopTellsDeadlineFromCancel(t *testing.T) {
	srv := New(DefaultOptions())
	expired, cancelExpired := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancelExpired()
	<-expired.Done()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	live, cancelLive := context.WithCancel(context.Background())
	defer cancelLive()

	for _, tc := range []struct {
		name     string
		ctx      context.Context
		code     string
		ran      uint64
		deadline uint64
	}{
		{"no context", context.Background(), "", 1000, 0},
		{"live context", live, "", 1000, 0},
		{"client gone", canceled, api.CodeInternal, 0, 0},
		{"deadline", expired, api.CodeDeadlineExceeded, 0, 1},
	} {
		m, aerr := srv.buildMachine(&api.SimulateRequest{Code: spinProgram})
		if aerr != nil {
			t.Fatal(aerr)
		}
		srv.ResetMetrics()
		ran, aerr := srv.runMachine(tc.ctx, m, 1000)
		code := ""
		if aerr != nil {
			code = aerr.Code
		}
		if ran != tc.ran || code != tc.code {
			t.Errorf("%s: ran %d cycles with code %q, want %d with %q", tc.name, ran, code, tc.ran, tc.code)
		}
		if got := srv.Metrics().DeadlineExceeded; got != tc.deadline {
			t.Errorf("%s: deadlineExceeded = %d, want %d", tc.name, got, tc.deadline)
		}
	}
	srv.ResetMetrics()
	m := srv.Metrics()
	if m.DeadlineExceeded != 0 || m.Requests != 0 || m.TotalNanos != 0 {
		t.Errorf("ResetMetrics left counters behind: %+v", m)
	}
	for name, ns := range m.PhaseNanos {
		if ns != 0 {
			t.Errorf("ResetMetrics left %d ns in phase %s", ns, name)
		}
	}
}

// TestFanOutBooksMeanOfWorkers: workers that each spent the whole fan-out
// in one phase leave that time in the request's ledger once.
func TestFanOutBooksMeanOfWorkers(t *testing.T) {
	workers := make([]phaseTimer, 4)
	for i := range workers {
		workers[i].ns[phaseSimulate] = 3 * time.Second
		workers[i].ns[phaseBuild] = time.Second
	}
	var tm phaseTimer
	tm.join(workers)
	if tm.ns[phaseSimulate] != 3*time.Second || tm.ns[phaseBuild] != time.Second || tm.ns[phaseReport] != 0 {
		t.Errorf("joined ledger: %v", tm.ns)
	}
	var none *phaseTimer
	none.begin(phaseBuild).end() // outside a request there is nothing to book into
}

// TestPooledGzipRequestBodies puts the router's decompressor cases
// through the server's request path: the recycled reader hands every body
// back as itself — after a longer one, after one that broke off
// mid-stream, and after one that was not gzip at all.
func TestPooledGzipRequestBodies(t *testing.T) {
	_, ts := newTestServer(t)
	gz := func(s string) []byte {
		var buf bytes.Buffer
		w := gzip.NewWriter(&buf)
		w.Write([]byte(s))
		w.Close()
		return buf.Bytes()
	}
	send := func(body []byte) (int, string) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+api.V1Prefix+"/parseAsm", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Encoding", "gzip")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(out)
	}
	long := gz(`{"code":"` + strings.Repeat(`addi t0, t0, 1\n`, 400) + `"}`)
	short := gz(`{"code":"frobnicate"}`)
	expectShort := func(round int, after string) {
		t.Helper()
		if status, body := send(short); status != http.StatusOK || !strings.Contains(body, "frobnicate") || strings.Contains(body, "addi") {
			t.Fatalf("round %d: short body after %s: %d %s", round, after, status, body)
		}
	}
	for round := 0; round < 4; round++ {
		if status, body := send(long); status != http.StatusOK || !strings.Contains(body, `"ok":true`) {
			t.Fatalf("round %d: long body: %d %s", round, status, body)
		}
		expectShort(round, "a long one")
		if status, body := send(long[:len(long)/2]); status != http.StatusBadRequest || !strings.Contains(body, api.CodeBadJSON) {
			t.Fatalf("round %d: truncated gzip body: %d %s", round, status, body)
		}
		expectShort(round, "a truncated one")
		if status, _ := send([]byte("not gzip at all")); status != http.StatusBadRequest {
			t.Fatalf("round %d: a body that is not gzip answered %d", round, status)
		}
		expectShort(round, "one that was not gzip")
	}
}
