package router

import (
	"bytes"
	"cmp"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"riscvsim/internal/api"
	"riscvsim/internal/client"
	"riscvsim/internal/server"
	"riscvsim/internal/store"
)

// exchange is one raw HTTP request and the reply as a client would see
// it: status, and the body inflated when the replica compressed it.
func exchange(t *testing.T, base, method, path, body string, gz bool, assignID string) (int, string) {
	t.Helper()
	var rd io.Reader
	if method == http.MethodPost {
		rd = strings.NewReader(body)
		if gz {
			rd = bytes.NewReader(gzipped(t, body))
		}
	}
	req, err := http.NewRequest(method, base+api.V1Prefix+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if gz {
		// Set by hand, so the transport leaves the reply compressed.
		req.Header.Set("Accept-Encoding", "gzip")
		if rd != nil {
			req.Header.Set("Content-Encoding", "gzip")
		}
	}
	if assignID != "" {
		req.Header.Set(api.SessionIDHeader, assignID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading reply: %v", method, path, err)
	}
	if resp.Header.Get("Content-Encoding") == "gzip" {
		gr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s %s: reply is not gzip: %v", method, path, err)
		}
		if raw, err = io.ReadAll(gr); err != nil {
			t.Fatalf("%s %s: reply gzip is cut short: %v", method, path, err)
		}
	} else if gz && resp.StatusCode == http.StatusOK && len(raw) > 2048 {
		t.Errorf("%s %s: a %d-byte reply came back uncompressed", method, path, len(raw))
	}
	return resp.StatusCode, string(raw)
}

// wallClock matches the only reply fields that are host time, not result.
var wallClock = regexp.MustCompile(`"wallNanos":\d+`)

// TestEveryRouteThroughRouter drives every row of api.Routes through the
// router — one request that succeeds and one that fails, gzip on and off —
// and holds each reply against what a replica answers when asked directly.
// A row without a case here fails the test, so a new route cannot ship
// unrouted.
func TestEveryRouteThroughRouter(t *testing.T) {
	// probe is one row's two requests; an empty URL is the row's path.
	type probe struct {
		path      string
		url, body string // succeeds
		badMethod string // "" = the row's own
		badURL    string
		badBody   string
		badStatus int
	}
	const ghost = `{"sessionId":"s99999999","steps":1,"cycle":1}`
	// wrongMethod is the failing request of a route no input can fail: the
	// catch-all must hand over the replica's own 405.
	wrongMethod := func(path, method, body string) probe {
		return probe{path: path, body: body, badMethod: method, badBody: "{}", badStatus: http.StatusMethodNotAllowed}
	}
	for _, gz := range []bool{false, true} {
		t.Run(fmt.Sprintf("gzip=%v", gz), func(t *testing.T) {
			c := newTestCluster(t, 2)
			direct := httptest.NewServer(server.New(server.Options{
				MaxSessions: 16, Store: store.NewMem(), AllowAssignedIDs: true,
			}).Handler())
			defer direct.Close()

			// both sends one request through the router and one straight to
			// the reference replica and requires the same answer. A create
			// is repeated on the reference under the ID the router drew.
			both := func(row api.Route, method, url, body string, wantStatus int) string {
				t.Helper()
				status, got := exchange(t, c.routerTS.URL, method, url, body, gz, "")
				var created api.SessionNewResponse
				if row.Place == api.Create {
					json.Unmarshal([]byte(got), &created)
				}
				refStatus, ref := exchange(t, direct.URL, method, url, body, gz, created.SessionID)
				if status != wantStatus {
					t.Errorf("%s %s: status %d through the router, want %d: %.300s", method, url, status, wantStatus, got)
				}
				if row.Path == "/metrics" && status == http.StatusOK {
					var m api.Metrics // counters differ by construction
					if err := json.Unmarshal([]byte(got), &m); err != nil || m.Requests == 0 {
						t.Errorf("/metrics through the router: %v: %s", err, got)
					}
					return got
				}
				got, ref = wallClock.ReplaceAllString(got, ""), wallClock.ReplaceAllString(ref, "")
				if status != refStatus || got != ref {
					t.Errorf("%s %s: router answered %d %.300q, a replica answers %d %.300q",
						method, url, status, got, refStatus, ref)
				}
				return got
			}
			rows := make(map[string]api.Route, len(api.Routes))
			for _, row := range api.Routes {
				rows[row.Path] = row
			}
			tried := make(map[string]bool)
			try := func(p probe) string {
				t.Helper()
				row, ok := rows[p.path]
				if !ok {
					t.Fatalf("probe for %s, which api.Routes does not list", p.path)
				}
				tried[p.path] = true
				both(row, cmp.Or(p.badMethod, row.Method), cmp.Or(p.badURL, p.path), p.badBody, p.badStatus)
				return both(row, row.Method, cmp.Or(p.url, p.path), p.body, http.StatusOK)
			}

			try(probe{path: "/simulate", body: `{"code":"li a0, 1\n","steps":10,"includeState":true}`,
				badBody: `{"code":"li a0, 1","preset":"nope"}`, badStatus: http.StatusUnprocessableEntity})
			try(probe{path: "/batch", body: `{"requests":[{"code":"li a0, 1"},{"code":"bogus"}]}`,
				badBody: `{`, badStatus: http.StatusBadRequest})
			try(probe{path: "/suite", body: `{"filter":"bitmix"}`,
				badBody: `{"preset":"nope"}`, badStatus: http.StatusUnprocessableEntity})
			try(probe{path: "/compile", body: `{"code":"int main() { return 3; }"}`,
				badBody: `[`, badStatus: http.StatusBadRequest})
			try(probe{path: "/parseAsm", body: `{"code":"li a0, 1"}`,
				badBody: `7`, badStatus: http.StatusBadRequest})
			config := try(wrongMethod("/schema", http.MethodPost, ""))
			try(wrongMethod("/checkConfig", http.MethodGet, config))
			try(wrongMethod("/instructionDescriptions", http.MethodPost, ""))
			try(wrongMethod("/metrics", http.MethodPost, ""))
			try(probe{path: "/session/stream", body: `{"code":"li a0, 1\nli a1, 2\n","stepBurst":1}`,
				badBody: `{"code":"li a0, 1","preset":"nope"}`, badStatus: http.StatusUnprocessableEntity})
			try(probe{path: "/session/trace", body: `{"code":"li a0, 1\n","trace":{"stages":"commit"}}`,
				badBody: `{"code":"li a0, 1","trace":{"stages":"warp"}}`, badStatus: http.StatusBadRequest})

			opened := try(probe{path: "/session/new", body: fmt.Sprintf(`{"code":%q}`, loopAsm),
				badBody: `{"code":"bogus a0"}`, badStatus: http.StatusUnprocessableEntity})
			var sess api.SessionNewResponse
			if err := json.Unmarshal([]byte(opened), &sess); err != nil || sess.SessionID == "" {
				t.Fatalf("session/new reply: %v: %s", err, opened)
			}
			id := sess.SessionID
			try(probe{path: "/session/step", body: fmt.Sprintf(`{"sessionId":%q,"steps":7}`, id),
				badBody: ghost, badStatus: http.StatusNotFound})
			try(probe{path: "/session/goto", body: fmt.Sprintf(`{"sessionId":%q,"cycle":3}`, id),
				badBody: ghost, badStatus: http.StatusNotFound})
			try(probe{path: "/session/render", url: "/session/render?session=" + id,
				badURL: "/session/render?session=s99999999", badStatus: http.StatusNotFound})
			try(probe{path: "/session/{id}/log", url: "/session/" + id + "/log?since_cycle=0",
				badURL: "/session/s99999999/log", badStatus: http.StatusNotFound})
			saved := try(probe{path: "/session/checkpoint", body: fmt.Sprintf(`{"sessionId":%q}`, id),
				badBody: ghost, badStatus: http.StatusNotFound})
			var ck api.SessionCheckpointResponse
			if err := json.Unmarshal([]byte(saved), &ck); err != nil || !ck.Durable {
				t.Fatalf("session/checkpoint reply (durable=%v): %v", ck.Durable, err)
			}
			restore, _ := json.Marshal(api.SessionRestoreRequest{Checkpoint: ck.Checkpoint})
			try(probe{path: "/session/restore", body: string(restore),
				badBody: `{"checkpoint":"AAAA"}`, badStatus: http.StatusBadRequest})
			try(probe{path: "/session/close", body: fmt.Sprintf(`{"sessionId":%q}`, id),
				badBody: ghost, badStatus: http.StatusNotFound})

			for _, row := range api.Routes {
				if !tried[row.Path] {
					t.Errorf("api.Routes row %s has no case in this test", row.Pattern())
				}
			}
			// The router answers a session request it cannot place itself.
			if status, body := exchange(t, c.routerTS.URL, http.MethodPost, "/session/step", `{"steps":1}`, gz, ""); status != http.StatusBadRequest || !strings.Contains(body, api.CodeBadJSON) {
				t.Errorf("session/step without a sessionId: %d %s", status, body)
			}
			if status, body := exchange(t, c.routerTS.URL, http.MethodGet, "/session/render", "", gz, ""); status != http.StatusBadRequest || !strings.Contains(body, api.CodeBadRequest) {
				t.Errorf("session/render without ?session=: %d %s", status, body)
			}
		})
	}
}

// TestEveryRouteHasAPlacement: the router mounts every row of the table
// the server mounts its handlers from, under the row's own pattern, and
// only paths outside the table reach the stateless catch-all.
func TestEveryRouteHasAPlacement(t *testing.T) {
	c := newTestCluster(t, 1)
	fill := strings.NewReplacer("{id}", "s00000001")
	for _, row := range api.Routes {
		req := httptest.NewRequest(row.Method, api.V1Prefix+fill.Replace(row.Path), nil)
		if _, pattern := c.rt.mux.Handler(req); pattern != row.Pattern() {
			t.Errorf("%s resolves to %q in the router, want its own row", row.Pattern(), pattern)
		}
	}
	for _, path := range []string{"/health", "/nosuch", "/session/nosuch"} {
		req := httptest.NewRequest(http.MethodGet, api.V1Prefix+path, nil)
		if _, pattern := c.rt.mux.Handler(req); pattern != api.V1Prefix+"/" {
			t.Errorf("%s resolves to %q, want the catch-all", path, pattern)
		}
	}
}

// TestStreamsThroughRouter: the two NDJSON routes take a whole
// SimulateRequest and open no session, so the router places them like any
// stateless request and relays the events as they come. They used to match
// the /session/ prefix and die with "body carries no sessionId".
func TestStreamsThroughRouter(t *testing.T) {
	c := newTestCluster(t, 2)
	ref, closeRef := client.Local(server.DefaultOptions())
	defer closeRef()
	routed := c.client()

	sreq := &api.StreamRequest{SimulateRequest: api.SimulateRequest{Code: "li a0, 1\nli a1, 2\nadd a2, a0, a1\n"}, StepBurst: 1}
	var seqs []int
	got, err := routed.Stream(sreq, func(ev *api.StreamEvent) error { seqs = append(seqs, ev.Seq); return nil })
	if err != nil {
		t.Fatalf("stream through the router: %v", err)
	}
	want, err := ref.Stream(sreq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) < 3 || !got.Done {
		t.Errorf("routed stream delivered events %v, final done=%v", seqs, got.Done)
	}
	if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
		t.Errorf("final stream event through the router\n got %s\nwant %s", g, w)
	}

	treq := &api.TraceStreamRequest{SimulateRequest: api.SimulateRequest{
		Code: "li a0, 1\nli a1, 2\n", Trace: &api.TraceOptions{Stages: "commit"},
	}}
	events := 0
	gotT, err := routed.StreamTrace(treq, func(ev *api.TraceStreamEvent) error {
		if ev.Event != nil {
			events++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("trace stream through the router: %v", err)
	}
	wantT, err := ref.StreamTrace(treq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if events != 2 || mustJSON(t, gotT) != mustJSON(t, wantT) {
		t.Errorf("routed trace stream: %d commit events, summary %s, want 2 and %s", events, mustJSON(t, gotT), mustJSON(t, wantT))
	}
	for _, r := range c.replicas {
		if r.hits.Load() == 0 {
			t.Errorf("replica %s served no stream — streams are not dealt round-robin", r.name)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// fakeReplica answers /health from a switch and everything else with a
// canned gzipped 200 — whole, or torn: the full Content-Length advertised,
// half the body sent, the connection severed (chaos tearResponse's shape).
type fakeReplica struct {
	ts      *httptest.Server
	healthy atomic.Bool
	tear    atomic.Bool
	// onTear runs as the reply is torn, before the connection drops.
	onTear func()
	hits   atomic.Int64
	body   []byte
}

func newFakeReplica(t *testing.T, doc string) *fakeReplica {
	f := &fakeReplica{body: gzipped(t, doc)}
	f.healthy.Store(true)
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == api.V1Prefix+"/health" {
			if !f.healthy.Load() {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			return
		}
		f.hits.Add(1)
		if !f.tear.Load() {
			w.Header().Set("Content-Encoding", "gzip")
			w.Header().Set("Content-Type", api.MediaTypeJSON)
			w.Write(f.body)
			return
		}
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		if f.onTear != nil {
			f.onTear()
		}
		fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n", api.MediaTypeJSON, len(f.body))
		buf.Write(f.body[:len(f.body)/2])
		buf.Flush()
	}))
	t.Cleanup(f.ts.Close)
	return f
}

// TestTornReplyIsNeverRelayed is the unit-level twin of chaos net-torn: a
// gzipped 200 on a session step that breaks off mid-body never reaches the
// client truncated, although the router no longer inflates step replies —
// the read fails on HTTP framing. It is retried on the next owner when the
// torn owner's probe confirms it dead, and a typed 502 when the owner is
// alive (the step may have executed; a retry could repeat it).
func TestTornReplyIsNeverRelayed(t *testing.T) {
	state := `{"state":{"cycle":7,"pad":"` + strings.Repeat("x", 4096) + `"}}`
	for _, ownerDies := range []bool{true, false} {
		t.Run(fmt.Sprintf("ownerDies=%v", ownerDies), func(t *testing.T) {
			owner, other := newFakeReplica(t, state), newFakeReplica(t, state)
			owner.tear.Store(true)
			if ownerDies {
				owner.onTear = func() { owner.healthy.Store(false) }
			}
			rt, err := New(Options{
				Replicas:       []Replica{{Name: "owner", URL: owner.ts.URL}, {Name: "other", URL: other.ts.URL}},
				HealthInterval: time.Hour, // only the forward path's own probe runs
				RetryBackoff:   time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			front := httptest.NewServer(rt.Handler())
			defer front.Close()
			var id string
			for i := 0; id == ""; i++ {
				if s := fmt.Sprintf("s%08d", i); rendezvousScore(s, "owner") > rendezvousScore(s, "other") {
					id = s
				}
			}
			status, body := exchange(t, front.URL, http.MethodPost, "/session/step", fmt.Sprintf(`{"sessionId":%q,"steps":7}`, id), true, "")
			m := rt.Metrics()
			if ownerDies {
				if status != http.StatusOK || body != state {
					t.Errorf("torn reply from a dead owner: %d %.80q, want the next owner's whole reply", status, body)
				}
				if m.Retries != 1 || other.hits.Load() != 1 {
					t.Errorf("retries = %d, next owner served %d, want 1 and 1", m.Retries, other.hits.Load())
				}
			} else {
				if status != http.StatusBadGateway || !strings.Contains(body, api.CodeNodeUnavailable) {
					t.Errorf("torn reply from a live owner: %d %.80q, want a typed 502", status, body)
				}
				if m.Retries != 0 || other.hits.Load() != 0 {
					t.Errorf("retries = %d, other replica served %d: a possibly-executed step was re-sent", m.Retries, other.hits.Load())
				}
			}
			if owner.hits.Load() != 1 {
				t.Errorf("owner served %d requests, want 1", owner.hits.Load())
			}
		})
	}
}

// TestBackoffEndsWithTheRequest: the wait between attempts is over when
// the request is. It used to sleep the whole backoff — up to 2 s, holding
// the in-flight slot — for a client whose deadline had long fired.
func TestBackoffEndsWithTheRequest(t *testing.T) {
	only := newFakeReplica(t, `{}`)
	only.tear.Store(true)
	only.onTear = func() { only.healthy.Store(false) }
	rt, err := New(Options{
		Replicas:       []Replica{{Name: "only", URL: only.ts.URL}},
		HealthInterval: time.Hour,
		RetryBackoff:   2 * time.Second,
		RequestTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	began := time.Now()
	status, body := exchange(t, front.URL, http.MethodPost, "/simulate", `{"code":"li a0, 1"}`, false, "")
	took := time.Since(began)
	if status != http.StatusGatewayTimeout || !strings.Contains(body, api.CodeDeadlineExceeded) {
		t.Errorf("reply %d %s, want the typed 504", status, body)
	}
	if took > time.Second {
		t.Errorf("answered after %v: the backoff outlived the request's 100 ms deadline", took)
	}
	m := rt.Metrics()
	if m.DeadlineExceeded != 1 || m.Retries != 1 || m.InFlight != 0 {
		t.Errorf("metrics after the cut backoff: %+v", m)
	}
}

// TestHopClock: forwardNanos covers the whole handler and upstreamNanos
// the part spent waiting on replicas, so their difference is the hop.
func TestHopClock(t *testing.T) {
	c := newTestCluster(t, 2)
	cl := c.client()
	for i := 0; i < 5; i++ {
		if _, err := cl.Simulate(&api.SimulateRequest{Code: "li a0, 1\n"}); err != nil {
			t.Fatal(err)
		}
	}
	m := c.rt.Metrics()
	if m.UpstreamNanos == 0 || m.ForwardNanos <= m.UpstreamNanos {
		t.Errorf("forwardNanos %d, upstreamNanos %d: want 0 < upstream < forward", m.ForwardNanos, m.UpstreamNanos)
	}
	var doc map[string]any
	resp, err := http.Get(c.routerTS.URL + "/admin/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"forwardNanos", "upstreamNanos", "forwards", "replicas"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("/admin/metrics lacks %q: %v", key, doc)
		}
	}
}

// TestClientMetricsReportsFailure: a /metrics that could not be served is
// an error, not a zero api.Metrics. The client never looked at the status.
func TestClientMetricsReportsFailure(t *testing.T) {
	c := newTestCluster(t, 2)
	cl := c.client()
	if m, err := cl.Metrics(); err != nil || m == nil {
		t.Fatalf("metrics with replicas up: %v", err)
	}
	for _, r := range c.replicas {
		r.ts.Close()
	}
	m, err := cl.Metrics()
	if err == nil {
		t.Fatalf("metrics with every replica down decoded into %+v and no error", m)
	}
	if code := client.ErrorCode(err); code != api.CodeNodeUnavailable {
		t.Errorf("error code %q (%v), want %q", code, err, api.CodeNodeUnavailable)
	}
}
