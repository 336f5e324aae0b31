package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"

	"riscvsim/internal/api"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(DefaultOptions())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

const tinyProgram = `
li t0, 1
li t1, 2
add a0, t0, t1
`

func TestSimulateEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+api.V1Prefix+"/simulate", &api.SimulateRequest{Code: tinyProgram})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr api.SimulateResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Halted {
		t.Error("program should halt")
	}
	if sr.Stats == nil || sr.Stats.Committed != 3 {
		t.Errorf("stats = %+v", sr.Stats)
	}
}

func TestSimulateFastForward(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+api.V1Prefix+"/simulate", &api.SimulateRequest{
		Code: tinyProgram, FastForward: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr api.SimulateResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Halted {
		t.Error("program should halt")
	}
	if sr.Stats == nil || sr.Stats.Committed != 3 {
		t.Errorf("stats = %+v", sr.Stats)
	}
	// The fast-forward convention: one committed instruction per cycle,
	// so the same program reports fewer cycles than the detailed run's 6.
	if sr.Cycles != 3 {
		t.Errorf("fast-forward cycles = %d, want 3", sr.Cycles)
	}
}

func TestSimulateWithStateAndLog(t *testing.T) {
	_, ts := newTestServer(t)
	_, body := postJSON(t, ts.URL+api.V1Prefix+"/simulate", &api.SimulateRequest{
		Code: tinyProgram, IncludeState: true, IncludeLog: true,
	})
	var sr api.SimulateResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.State == nil {
		t.Fatal("state missing")
	}
	if len(sr.State.IntRegs) != 32 {
		t.Error("state registers incomplete")
	}
	if len(sr.State.Log) == 0 {
		t.Error("log missing")
	}
}

func TestSimulateCProgram(t *testing.T) {
	_, ts := newTestServer(t)
	_, body := postJSON(t, ts.URL+api.V1Prefix+"/simulate", &api.SimulateRequest{
		Code:         "int main() { return 41 + 1; }",
		Language:     "c",
		Optimize:     2,
		IncludeState: true,
	})
	var sr api.SimulateResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Halted {
		t.Fatal("C program should halt")
	}
	// a0 holds main's return value.
	found := false
	for _, reg := range sr.State.IntRegs {
		if reg.Name == "x10" && reg.Value == "42" {
			found = true
		}
	}
	if !found {
		t.Error("a0 != 42 in final state")
	}
}

func TestSimulateWithPresetAndConfig(t *testing.T) {
	_, ts := newTestServer(t)
	resp, _ := postJSON(t, ts.URL+api.V1Prefix+"/simulate", &api.SimulateRequest{Code: tinyProgram, Preset: "scalar"})
	if resp.StatusCode != http.StatusOK {
		t.Error("preset scalar should work")
	}
	resp, body := postJSON(t, ts.URL+api.V1Prefix+"/simulate", &api.SimulateRequest{Code: tinyProgram, Preset: "nope"})
	if resp.StatusCode == http.StatusOK {
		t.Errorf("unknown preset should fail: %s", body)
	}
}

func TestSimulateBadProgramReturns422(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+api.V1Prefix+"/simulate", &api.SimulateRequest{Code: "frobnicate x1\n"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("status = %d, want 422; body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "unknown instruction") {
		t.Errorf("error body should carry the diagnostic: %s", body)
	}
}

func TestMemFills(t *testing.T) {
	_, ts := newTestServer(t)
	prog := `
la t0, data
lw a0, 0(t0)
lw a1, 4(t0)
add a0, a0, a1
.data
data: .zero 16
`
	_, body := postJSON(t, ts.URL+api.V1Prefix+"/simulate", &api.SimulateRequest{
		Code:         prog,
		MemFills:     []api.MemFill{{Label: "data", Values: []int64{40, 2}}},
		IncludeState: true,
	})
	var sr api.SimulateResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	for _, reg := range sr.State.IntRegs {
		if reg.Name == "x10" && reg.Value != "42" {
			t.Errorf("a0 = %s, want 42", reg.Value)
		}
	}
}

func TestMemFillValidation(t *testing.T) {
	_, ts := newTestServer(t)
	prog := ".data\ndata: .zero 8\n"
	cases := []api.MemFill{
		{Label: "nope", Values: []int64{1}},
		{Label: "data", Values: []int64{1, 2, 3}},        // 12 B > 8 B
		{Label: "data", Values: []int64{1}, ElemSize: 3}, // bad size
	}
	for i, f := range cases {
		resp, _ := postJSON(t, ts.URL+api.V1Prefix+"/simulate", &api.SimulateRequest{Code: prog, MemFills: []api.MemFill{f}})
		if resp.StatusCode == http.StatusOK {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestCompileEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	_, body := postJSON(t, ts.URL+api.V1Prefix+"/compile", &api.CompileRequest{
		Code: "int main() { return 7; }", Optimize: 1,
	})
	var cr api.CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Errors != "" {
		t.Fatalf("unexpected errors: %s", cr.Errors)
	}
	if !strings.Contains(cr.Assembly, "main:") || !strings.Contains(cr.Assembly, "li t0, 7") {
		t.Errorf("assembly missing expected code:\n%s", cr.Assembly)
	}
	if len(cr.LineMap) == 0 {
		t.Error("line map missing")
	}
}

func TestCompileErrorsAreData(t *testing.T) {
	_, ts := newTestServer(t)
	for src, want := range map[string]string{
		"int main() { return x; }": "undeclared",
		// A global and a function of one name: a diagnostic at the C line,
		// not an assembler error at a line of the generated assembly.
		"int A; int A(){return 1;} int main(){return 0;}": "1:1: \"A\" redeclared as a different kind of symbol",
	} {
		resp, body := postJSON(t, ts.URL+api.V1Prefix+"/compile", &api.CompileRequest{Code: src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compiler diagnostics should be 200, got %d", resp.StatusCode)
		}
		var cr api.CompileResponse
		json.Unmarshal(body, &cr)
		if !strings.Contains(cr.Errors, want) || cr.Assembly != "" {
			t.Errorf("%s: diagnostics = %q, assembly %d bytes; want %q", src, cr.Errors, len(cr.Assembly), want)
		}
	}
}

func TestParseAsmEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	_, body := postJSON(t, ts.URL+api.V1Prefix+"/parseAsm", &api.ParseAsmRequest{Code: tinyProgram})
	var pr api.ParseAsmResponse
	json.Unmarshal(body, &pr)
	if !pr.OK {
		t.Errorf("valid asm rejected: %s", pr.Errors)
	}
	_, body = postJSON(t, ts.URL+api.V1Prefix+"/parseAsm", &api.ParseAsmRequest{Code: "bogus\n"})
	json.Unmarshal(body, &pr)
	if pr.OK {
		t.Error("invalid asm accepted")
	}
}

func TestSchemaEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + api.V1Prefix + "/schema")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cfg map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&cfg); err != nil {
		t.Fatal(err)
	}
	if cfg["robSize"] == nil || cfg["units"] == nil {
		t.Errorf("schema incomplete: %v", cfg)
	}
}

// TestSessionNewRefusesRunFields: session/new reads the fields that build
// a machine. The ones that shape a /simulate run are refused, naming the
// field, rather than ignored: a session asked to fast-forward used to step
// in detail without a word.
func TestSessionNewRefusesRunFields(t *testing.T) {
	refusesRunFields(t, "/session/new")
}

// TestSessionStreamRefusesRunFields: the state stream builds like
// session/new and runs in detail; it streamed a fast-forward request in
// detail without a word.
func TestSessionStreamRefusesRunFields(t *testing.T) {
	refusesRunFields(t, "/session/stream")
}

// TestSessionTraceRefusesRunFields: the trace stream reads trace (its
// filter and cap) and refuses the other run fields.
func TestSessionTraceRefusesRunFields(t *testing.T) {
	refusesRunFields(t, "/session/trace", "trace")
}

// refusesRunFields requires route to answer 400 bad_request naming each
// /simulate run field it does not honour, and 200 to the others and to a
// build field.
func refusesRunFields(t *testing.T, route string, honours ...string) {
	t.Helper()
	_, ts := newTestServer(t)
	for field, value := range map[string]string{
		"fastForward":  "true",
		"parallelism":  "2",
		"warmupCycles": "100",
		"trace":        "{}",
	} {
		body := fmt.Sprintf(`{"code": %q, %q: %s}`, tinyProgram, field, value)
		resp, out := postRaw(t, ts.URL+api.V1Prefix+route, body)
		if slices.Contains(honours, field) {
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: honoured field refused: %d %s", field, resp.StatusCode, out)
			}
			continue
		}
		env := decodeErrorEnvelope(t, out)
		if resp.StatusCode != http.StatusBadRequest || env.Code != api.CodeBadRequest || !strings.Contains(env.Message, field) {
			t.Errorf("%s: %d %s %q, want 400 %s naming the field", field, resp.StatusCode, env.Code, env.Message, api.CodeBadRequest)
		}
	}
	if resp, out := postRaw(t, ts.URL+api.V1Prefix+route, fmt.Sprintf(`{"code": %q, "verbose": true}`, tinyProgram)); resp.StatusCode != http.StatusOK {
		t.Errorf("a build field is refused: %d %s", resp.StatusCode, out)
	}
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	// New session.
	_, body := postJSON(t, ts.URL+api.V1Prefix+"/session/new", &api.SessionNewRequest{
		SimulateRequest: api.SimulateRequest{Code: tinyProgram},
	})
	var sn api.SessionNewResponse
	if err := json.Unmarshal(body, &sn); err != nil {
		t.Fatal(err)
	}
	if sn.SessionID == "" || sn.State == nil || sn.State.Cycle != 0 {
		t.Fatalf("bad new-session response: %+v", sn)
	}
	// Step forward 2 cycles.
	_, body = postJSON(t, ts.URL+api.V1Prefix+"/session/step", &api.SessionStepRequest{SessionID: sn.SessionID, Steps: 2})
	var st api.SessionStateResponse
	json.Unmarshal(body, &st)
	if st.State.Cycle != 2 {
		t.Errorf("cycle = %d, want 2", st.State.Cycle)
	}
	// Step backward 1 cycle (backward simulation over the API).
	_, body = postJSON(t, ts.URL+api.V1Prefix+"/session/step", &api.SessionStepRequest{SessionID: sn.SessionID, Steps: -1})
	json.Unmarshal(body, &st)
	if st.State.Cycle != 1 {
		t.Errorf("after back-step cycle = %d, want 1", st.State.Cycle)
	}
	// Goto an absolute cycle.
	_, body = postJSON(t, ts.URL+api.V1Prefix+"/session/goto", &api.SessionGotoRequest{SessionID: sn.SessionID, Cycle: 3})
	json.Unmarshal(body, &st)
	if st.State.Cycle != 3 {
		t.Errorf("goto cycle = %d, want 3", st.State.Cycle)
	}
	// Render the schematic.
	resp, err := http.Get(ts.URL + api.V1Prefix + "/session/render?session=" + sn.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var rr struct {
		Schematic string `json:"schematic"`
	}
	json.Unmarshal(rb, &rr)
	if !strings.Contains(rr.Schematic, "Reorder buffer") {
		t.Errorf("schematic missing blocks:\n%s", rr.Schematic)
	}
	// Close.
	resp2, _ := postJSON(t, ts.URL+api.V1Prefix+"/session/close", &api.SessionCloseRequest{SessionID: sn.SessionID})
	if resp2.StatusCode != http.StatusOK {
		t.Error("close failed")
	}
	// Step on a closed session fails.
	resp3, _ := postJSON(t, ts.URL+api.V1Prefix+"/session/step", &api.SessionStepRequest{SessionID: sn.SessionID, Steps: 1})
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("stepping closed session: status %d, want 404", resp3.StatusCode)
	}
}

// TestSessionCreateRacesAssignedIDStep: with a router-assigned ID a step
// can reach the session the moment it is published, before session/new or
// session/restore has answered. The create response must be the state
// from before publication (cycle unchanged), and the race lane must see
// no unsynchronized access to the machine.
func TestSessionCreateRacesAssignedIDStep(t *testing.T) {
	srv := New(Options{AllowAssignedIDs: true})
	h := srv.Handler()
	create := func(id, path string, body any) api.SessionNewResponse {
		t.Helper()
		stepped, failed := make(chan struct{}), make(chan struct{})
		go func() { // steps the session as soon as it can be looked up
			defer close(stepped)
			for {
				if sess, aerr := srv.lockSession(nil, id); aerr == nil {
					sess.machine.Run(3)
					sess.mu.Unlock()
					return
				}
				select {
				case <-failed:
					return
				default:
					runtime.Gosched()
				}
			}
		}()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, api.V1Prefix+path, bytes.NewReader(data))
		req.Header.Set(api.SessionIDHeader, id)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var sn api.SessionNewResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sn); err != nil || rec.Code != http.StatusOK {
			close(failed)
			t.Fatalf("%s: status %d, %v: %s", path, rec.Code, err, rec.Body)
		}
		<-stepped
		return sn
	}
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("s%08d", 2*i)
		sn := create(id, "/session/new", &api.SessionNewRequest{
			SimulateRequest: api.SimulateRequest{Code: tinyProgram},
		})
		if sn.SessionID != id || sn.State.Cycle != 0 {
			t.Fatalf("session/new answered id %q at cycle %d, want %q at cycle 0", sn.SessionID, sn.State.Cycle, id)
		}
		sess, aerr := srv.lockSession(nil, id)
		if aerr != nil {
			t.Fatal(aerr)
		}
		var ckpt bytes.Buffer
		err := sess.machine.Checkpoint(&ckpt)
		at := sess.machine.Cycle()
		sess.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		rn := create(fmt.Sprintf("s%08d", 2*i+1), "/session/restore", &api.SessionRestoreRequest{Checkpoint: ckpt.Bytes()})
		if rn.State.Cycle != at {
			t.Fatalf("session/restore answered cycle %d, want the checkpoint's %d", rn.State.Cycle, at)
		}
	}
}

func TestSessionEviction(t *testing.T) {
	srv := New(Options{MaxSessions: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var ids []string
	for i := 0; i < 3; i++ {
		_, body := postJSON(t, ts.URL+api.V1Prefix+"/session/new", &api.SessionNewRequest{
			SimulateRequest: api.SimulateRequest{Code: tinyProgram},
		})
		var sn api.SessionNewResponse
		json.Unmarshal(body, &sn)
		ids = append(ids, sn.SessionID)
	}
	// The first session must have been evicted.
	resp, _ := postJSON(t, ts.URL+api.V1Prefix+"/session/step", &api.SessionStepRequest{SessionID: ids[0], Steps: 1})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted session should 404, got %d", resp.StatusCode)
	}
	// The latest must still work.
	resp, _ = postJSON(t, ts.URL+api.V1Prefix+"/session/step", &api.SessionStepRequest{SessionID: ids[2], Steps: 1})
	if resp.StatusCode != http.StatusOK {
		t.Error("latest session should survive")
	}
}

func TestGzipResponses(t *testing.T) {
	_, ts := newTestServer(t)
	data, _ := json.Marshal(&api.SimulateRequest{Code: tinyProgram, IncludeState: true})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+api.V1Prefix+"/simulate", bytes.NewReader(data))
	req.Header.Set("Accept-Encoding", "gzip")
	tr := &http.Transport{DisableCompression: true}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get("Content-Encoding") != "gzip" {
		t.Fatal("response not gzip-compressed")
	}
	gr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(gr)
	if err != nil {
		t.Fatal(err)
	}
	var sr api.SimulateResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("decompressed body is not valid JSON: %v", err)
	}
}

func TestGzipRequestBodies(t *testing.T) {
	_, ts := newTestServer(t)
	data, _ := json.Marshal(&api.SimulateRequest{Code: tinyProgram})
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write(data)
	gz.Close()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+api.V1Prefix+"/simulate", &buf)
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("gzip request rejected: %d %s", resp.StatusCode, b)
	}
}

func TestMetricsTrackJSONShare(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.ResetMetrics()
	for i := 0; i < 5; i++ {
		postJSON(t, ts.URL+api.V1Prefix+"/simulate", &api.SimulateRequest{Code: tinyProgram, IncludeState: true})
	}
	m := srv.Metrics()
	if m.Requests != 5 {
		t.Errorf("requests = %d, want 5", m.Requests)
	}
	if m.TotalNanos == 0 || m.JSONNanos == 0 {
		t.Errorf("instrumentation empty: %+v", m)
	}
	if m.JSONShare <= 0 || m.JSONShare >= 1 {
		t.Errorf("JSON share = %v, want in (0,1)", m.JSONShare)
	}
}

func TestBadJSONRejected(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+api.V1Prefix+"/simulate", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d, want 400", resp.StatusCode)
	}
}

func TestHealthEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + api.V1Prefix + "/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Error("health check failed")
	}
}

func TestInstructionDescriptionsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + api.V1Prefix + "/instructionDescriptions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Instructions []struct {
			Name            string `json:"name"`
			InterpretableAs string `json:"interpretableAs"`
		} `json:"instructions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Instructions) < 80 {
		t.Errorf("only %d instructions served", len(doc.Instructions))
	}
	found := false
	for _, in := range doc.Instructions {
		if in.Name == "add" && strings.Contains(in.InterpretableAs, `\rs1 \rs2 +`) {
			found = true
		}
	}
	if !found {
		t.Error("add instruction with its Listing 1 expression not found")
	}
}

// TestDeeplyNestedSourceIsAnOrdinaryError: a megabyte of parentheses —
// under api.MaxBodyBytes — used to end the process with a stack overflow in
// the C parser (two megabytes did the same in the assembler's operand
// evaluator), which no recover catches and which the router's retry would
// have carried to the next replica. Both are diagnostics now: compile
// reports it as data like any other, simulate and session/new as 422
// build_failed, and the server answers the next request.
func TestDeeplyNestedSourceIsAnOrdinaryError(t *testing.T) {
	_, ts := newTestServer(t)
	deepC := "int main(){ return " + strings.Repeat("(", 500_000) + "1" + strings.Repeat(")", 500_000) + "; }"
	deepAsm := "li a0, " + strings.Repeat("(", 1_900_000) + "1" + strings.Repeat(")", 1_900_000) + "\n"

	resp, body := postJSON(t, ts.URL+api.V1Prefix+"/compile", &api.CompileRequest{Code: deepC, Optimize: 2})
	var cr api.CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil || resp.StatusCode != http.StatusOK ||
		cr.Assembly != "" || !strings.Contains(cr.Errors, "nested too deeply") {
		t.Errorf("compile: HTTP %d, %.200s", resp.StatusCode, body)
	}
	for _, c := range []struct {
		path string
		req  *api.SimulateRequest
	}{
		{"/simulate", &api.SimulateRequest{Code: deepC, Language: "c", Optimize: 2}},
		{"/session/new", &api.SimulateRequest{Code: deepC, Language: "c"}},
		{"/simulate", &api.SimulateRequest{Code: deepAsm}},
	} {
		resp, body := postJSON(t, ts.URL+api.V1Prefix+c.path, c.req)
		var env api.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || resp.StatusCode != http.StatusUnprocessableEntity ||
			env.Err.Code != api.CodeBuildFailed || !strings.Contains(env.Err.Message, "nested too deeply") {
			t.Errorf("%s of %.12q...: HTTP %d, %.200s", c.path, c.req.Code, resp.StatusCode, body)
		}
	}
	resp, body = postJSON(t, ts.URL+api.V1Prefix+"/simulate", &api.SimulateRequest{Code: tinyProgram})
	var sr api.SimulateResponse
	if err := json.Unmarshal(body, &sr); err != nil || resp.StatusCode != http.StatusOK || !sr.Halted {
		t.Errorf("the request after the hostile ones: HTTP %d, %.200s", resp.StatusCode, body)
	}
}
