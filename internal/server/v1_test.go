package server

// Tests of the /api/v1 surface beyond the per-endpoint basics in
// server_test.go: routing, the error envelope's stable codes, and the
// batch and streaming endpoints.

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"riscvsim/internal/api"
	"riscvsim/sim"
)

func decodeErrorEnvelope(t *testing.T, body []byte) api.Error {
	t.Helper()
	var env api.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("body is not an error envelope: %v: %s", err, body)
	}
	if env.Err.Code == "" || env.Err.Message == "" {
		t.Fatalf("envelope incomplete: %s", body)
	}
	return env.Err
}

// TestServerMountsTheRouteTable: the server's URL space is api.Routes — the
// table the router places requests from — row for row, plus /health.
func TestServerMountsTheRouteTable(t *testing.T) {
	s := New(DefaultOptions())
	fill := strings.NewReplacer("{id}", "s00000001")
	for _, row := range api.Routes {
		req := httptest.NewRequest(row.Method, api.V1Prefix+fill.Replace(row.Path), nil)
		if _, pattern := s.mux.Handler(req); pattern != row.Pattern() {
			t.Errorf("%s resolves to %q in the server, want its own row", row.Pattern(), pattern)
		}
	}
	for _, path := range []string{"/nosuch", "/session/nosuch", "/simulate/extra"} {
		req := httptest.NewRequest(http.MethodPost, api.V1Prefix+path, nil)
		if _, pattern := s.mux.Handler(req); pattern != "" {
			t.Errorf("%s is served by %q, a route api.Routes does not list", path, pattern)
		}
	}
}

// TestV1Routing pins the URL space: v1 patterns are method-scoped, the
// pre-v1 flat paths are gone, and media-type parameters (older clients
// sent "codec=...") do not affect how a request is served.
func TestV1Routing(t *testing.T) {
	_, ts := newTestServer(t)
	body, err := json.Marshal(&api.SimulateRequest{Code: tinyProgram})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		method, path, contentType string
		want                      int
	}{
		{http.MethodPost, "/api/v1/simulate", "application/json", http.StatusOK},
		{http.MethodPost, "/api/v1/simulate", "application/json; codec=json", http.StatusOK},
		{http.MethodGet, "/api/v1/simulate", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/simulate", "application/json", http.StatusNotFound},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", c.contentType)
		req.Header.Set("Accept", c.contentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s (%q): status %d, want %d", c.method, c.path, c.contentType, resp.StatusCode, c.want)
		}
	}
}

// TestErrorEnvelopeCodes exercises one request per failure class and
// checks the stable code and HTTP status of each.
func TestErrorEnvelopeCodes(t *testing.T) {
	srv := New(DefaultOptions())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	badConfig := json.RawMessage(`{"robSize": -5}`)
	cases := []struct {
		name       string
		body       any
		rawBody    string
		wantCode   string
		wantStatus int
	}{
		{name: "bad json", rawBody: "{nope", wantCode: api.CodeBadJSON, wantStatus: 400},
		{name: "trailing data", rawBody: `{"code":"nop"} {"code":"nop"}`, wantCode: api.CodeBadJSON, wantStatus: 400},
		{name: "unknown preset", body: &api.SimulateRequest{Code: tinyProgram, Preset: "nope"},
			wantCode: api.CodeUnknownPreset, wantStatus: 422},
		{name: "bad config", body: &api.SimulateRequest{Code: tinyProgram, Config: &badConfig},
			wantCode: api.CodeBadConfig, wantStatus: 422},
		{name: "build failed", body: &api.SimulateRequest{Code: "frobnicate x1\n"},
			wantCode: api.CodeBuildFailed, wantStatus: 422},
		{name: "mem fill", body: &api.SimulateRequest{Code: tinyProgram,
			MemFills: []api.MemFill{{Label: "nope", Values: []int64{1}}}},
			wantCode: api.CodeMemFill, wantStatus: 422},
		{name: "body too large", body: &api.SimulateRequest{Code: strings.Repeat("nop\n", api.MaxBodyBytes/4)},
			wantCode: api.CodeBodyTooLarge, wantStatus: 413},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var resp *http.Response
			var body []byte
			if c.rawBody != "" {
				r, err := http.Post(ts.URL+"/api/v1/simulate", "application/json", strings.NewReader(c.rawBody))
				if err != nil {
					t.Fatal(err)
				}
				body, _ = io.ReadAll(r.Body)
				r.Body.Close()
				resp = r
			} else {
				resp, body = postJSON(t, ts.URL+"/api/v1/simulate", c.body)
			}
			if resp.StatusCode != c.wantStatus {
				t.Errorf("status = %d, want %d (%s)", resp.StatusCode, c.wantStatus, body)
			}
			if e := decodeErrorEnvelope(t, body); e.Code != c.wantCode {
				t.Errorf("code = %q, want %q (message %q)", e.Code, c.wantCode, e.Message)
			}
		})
	}
	// Unknown session → unknown_session 404.
	resp, body := postJSON(t, ts.URL+"/api/v1/session/step", &api.SessionStepRequest{SessionID: "sX", Steps: 1})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session status = %d, want 404", resp.StatusCode)
	}
	if e := decodeErrorEnvelope(t, body); e.Code != api.CodeUnknownSession {
		t.Errorf("code = %q, want %q", e.Code, api.CodeUnknownSession)
	}
}

// TestV1OnlyEndpointsHaveNoLegacyAlias: endpoints born with v1 must not
// leak onto the flat namespace.
func TestV1OnlyEndpointsHaveNoLegacyAlias(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/batch", "/session/stream"} {
		resp, _ := postJSON(t, ts.URL+path, &api.BatchRequest{})
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404 (v1-only)", path, resp.StatusCode)
		}
	}
}

// ---------------------------------------------------------------------------
// Batch
// ---------------------------------------------------------------------------

func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	reqs := make([]api.SimulateRequest, 5)
	for i := range reqs {
		reqs[i] = api.SimulateRequest{Code: tinyProgram}
	}
	resp, body := postJSON(t, ts.URL+"/api/v1/batch", &api.BatchRequest{Requests: reqs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br api.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 5 || br.Succeeded != 5 || br.Failed != 0 {
		t.Fatalf("batch response: %d results, %d ok, %d failed", len(br.Results), br.Succeeded, br.Failed)
	}
	if br.Workers < 1 || br.WallNanos == 0 {
		t.Errorf("fan-out accounting missing: workers=%d wall=%d", br.Workers, br.WallNanos)
	}
	for i, res := range br.Results {
		if res.Index != i {
			t.Errorf("result %d carries index %d (order must match requests)", i, res.Index)
		}
		if res.Response == nil || !res.Response.Halted || res.Response.Stats.Committed != 3 {
			t.Errorf("result %d wrong: %+v", i, res.Response)
		}
	}
}

func TestBatchPartialFailure(t *testing.T) {
	srv, ts := newTestServer(t)
	reqs := []api.SimulateRequest{
		{Code: tinyProgram},
		{Code: "frobnicate x1\n"}, // build failure
		{Code: tinyProgram},
	}
	resp, body := postJSON(t, ts.URL+"/api/v1/batch", &api.BatchRequest{Requests: reqs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("per-item failures must not fail the batch: status %d", resp.StatusCode)
	}
	var br api.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Succeeded != 2 || br.Failed != 1 {
		t.Fatalf("succeeded=%d failed=%d", br.Succeeded, br.Failed)
	}
	bad := br.Results[1]
	if bad.Error == nil || bad.Error.Code != api.CodeBuildFailed || bad.Response != nil {
		t.Errorf("failed item: %+v", bad)
	}
	m := srv.Metrics()
	if m.BatchRequests != 1 || m.BatchSimulations != 3 {
		t.Errorf("batch metrics: %d requests, %d sims", m.BatchRequests, m.BatchSimulations)
	}
}

func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/api/v1/batch", &api.BatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}
	if e := decodeErrorEnvelope(t, body); e.Code != api.CodeBadRequest {
		t.Errorf("empty batch code = %q", e.Code)
	}
	big := make([]api.SimulateRequest, maxBatchRequests+1)
	for i := range big {
		big[i] = api.SimulateRequest{Code: "nop"}
	}
	resp, body = postJSON(t, ts.URL+"/api/v1/batch", &api.BatchRequest{Requests: big})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d, want 413", resp.StatusCode)
	}
	if e := decodeErrorEnvelope(t, body); e.Code != api.CodeBatchTooLarge {
		t.Errorf("oversized batch code = %q", e.Code)
	}
}

// ---------------------------------------------------------------------------
// Streaming
// ---------------------------------------------------------------------------

func streamLines(t *testing.T, url string, req *api.StreamRequest) []api.StreamEvent {
	t.Helper()
	data, _ := json.Marshal(req)
	resp, err := http.Post(url+"/api/v1/session/stream", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != api.MediaTypeNDJSON {
		t.Errorf("stream Content-Type = %q, want %q", ct, api.MediaTypeNDJSON)
	}
	var events []api.StreamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		var ev api.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

func TestStreamEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	events := streamLines(t, ts.URL, &api.StreamRequest{
		SimulateRequest: api.SimulateRequest{Code: tinyProgram, IncludeState: true},
		StepBurst:       1,
	})
	if len(events) < 2 {
		t.Fatalf("only %d events", len(events))
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Errorf("event %d carries seq %d", i, ev.Seq)
		}
		if i > 0 && ev.Cycle < events[i-1].Cycle {
			t.Errorf("cycle went backwards: %d after %d", ev.Cycle, events[i-1].Cycle)
		}
		if ev.State == nil {
			t.Errorf("event %d missing requested state", i)
		}
	}
	final := events[len(events)-1]
	if !final.Done || !final.Halted || final.Stats == nil || final.Stats.Committed != 3 {
		t.Errorf("final event wrong: %+v", final)
	}
	for _, ev := range events[:len(events)-1] {
		if ev.Done || ev.Stats != nil {
			t.Errorf("intermediate event carries final fields: %+v", ev)
		}
	}
}

func TestStreamEventCap(t *testing.T) {
	_, ts := newTestServer(t)
	// A ~1200-cycle loop with burst 1 would emit ~1200 events; the cap
	// must bound it and still deliver the final event.
	prog := `
li t0, 0
li t1, 200
loop:
  addi t0, t0, 1
  bne t0, t1, loop
`
	events := streamLines(t, ts.URL, &api.StreamRequest{
		SimulateRequest: api.SimulateRequest{Code: prog},
		StepBurst:       1,
		MaxEvents:       5,
	})
	if len(events) > 5 {
		t.Errorf("%d events exceed the cap of 5", len(events))
	}
	final := events[len(events)-1]
	if !final.Done || !final.Halted {
		t.Errorf("capped stream must still finish the run: %+v", final)
	}
}

func TestStreamBadProgramReturnsEnvelope(t *testing.T) {
	_, ts := newTestServer(t)
	data, _ := json.Marshal(&api.StreamRequest{SimulateRequest: api.SimulateRequest{Code: "frobnicate\n"}})
	resp, err := http.Post(ts.URL+"/api/v1/session/stream", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("status %d, want 422", resp.StatusCode)
	}
	if e := decodeErrorEnvelope(t, body); e.Code != api.CodeBuildFailed {
		t.Errorf("code = %q", e.Code)
	}
}

// TestStreamThroughGzip drives the stream with gzip enabled end to end —
// the case that deadlocks if the middleware doesn't pass Flush through.
func TestStreamThroughGzip(t *testing.T) {
	_, ts := newTestServer(t)
	data, _ := json.Marshal(&api.StreamRequest{
		SimulateRequest: api.SimulateRequest{Code: tinyProgram},
		StepBurst:       1,
	})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/session/stream", bytes.NewReader(data))
	req.Header.Set("Accept-Encoding", "gzip")
	tr := &http.Transport{DisableCompression: true}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get("Content-Encoding") != "gzip" {
		t.Fatal("stream not gzip-compressed")
	}
	gr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(gr)
	n := 0
	var last api.StreamEvent
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad gzip NDJSON line: %v", err)
		}
		n++
	}
	if n < 2 || !last.Done {
		t.Errorf("gzip stream delivered %d events, done=%v", n, last.Done)
	}
}

// ---------------------------------------------------------------------------
// checkConfig through the codec layer
// ---------------------------------------------------------------------------

func TestCheckConfigThroughCodecLayer(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.ResetMetrics()

	valid, err := json.Marshal(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postRaw(t, ts.URL+"/api/v1/checkConfig", string(valid))
	var pr api.ParseAsmResponse
	if err := json.Unmarshal(body, &pr); err != nil || resp.StatusCode != 200 || !pr.OK {
		t.Fatalf("valid config rejected: %d %s", resp.StatusCode, body)
	}

	// Its decode time must now be visible in the JSON metric.
	if m := srv.Metrics(); m.JSONNanos == 0 {
		t.Errorf("checkConfig body parse invisible to metrics: %+v", m)
	}

	// Config diagnostics stay data (200 + OK:false), like /parseAsm.
	_, body = postRaw(t, ts.URL+"/api/v1/checkConfig", `{"robSize": -4}`)
	json.Unmarshal(body, &pr)
	if pr.OK || pr.Errors == "" {
		t.Errorf("bad config not diagnosed: %s", body)
	}
	_, body = postRaw(t, ts.URL+"/api/v1/checkConfig", `{not json`)
	json.Unmarshal(body, &pr)
	if pr.OK || pr.Errors == "" {
		t.Errorf("unparsable config not diagnosed: %s", body)
	}
}

func TestCheckConfigHonoursMaxBodyBytes(t *testing.T) {
	srv := New(DefaultOptions())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, body := postRaw(t, ts.URL+"/api/v1/checkConfig",
		`{"pad": "`+strings.Repeat("x", api.MaxBodyBytes)+`"}`)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413: %s", resp.StatusCode, body)
	}
	if e := decodeErrorEnvelope(t, body); e.Code != api.CodeBodyTooLarge {
		t.Errorf("code = %q", e.Code)
	}
}

func postRaw(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, out
}

// ---------------------------------------------------------------------------
// gzip middleware details
// ---------------------------------------------------------------------------

func TestGzipVaryHeader(t *testing.T) {
	_, ts := newTestServer(t)
	for _, acceptGzip := range []bool{true, false} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/health", nil)
		if acceptGzip {
			req.Header.Set("Accept-Encoding", "gzip")
		}
		tr := &http.Transport{DisableCompression: true}
		resp, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.Header.Get("Vary") != "Accept-Encoding" {
			t.Errorf("Vary = %q (accept-gzip=%v), want Accept-Encoding", resp.Header.Get("Vary"), acceptGzip)
		}
	}
}

// TestGzipFlusherPassthrough proves compressed bytes reach the client at
// Flush time, not only when the handler returns.
func TestGzipFlusherPassthrough(t *testing.T) {
	rec := httptest.NewRecorder()
	var flushedMid bool
	h := gzipMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Fatal("gzip response writer does not implement http.Flusher")
		}
		w.Write([]byte(`{"seq":0}` + "\n"))
		f.Flush()
		flushedMid = rec.Flushed && rec.Body.Len() > 0
	}))
	req := httptest.NewRequest(http.MethodGet, "/stream", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	h.ServeHTTP(rec, req)
	if !flushedMid {
		t.Error("Flush did not push compressed bytes through to the client")
	}
}
