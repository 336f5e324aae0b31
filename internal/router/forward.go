package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"riscvsim/internal/api"
)

// createAttempts bounds session-ID collision retries on create paths.
const createAttempts = 5

func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// isDialError reports whether the forward failed before the request
// reached the replica (connection refused / no route). These are always
// safe to retry: the replica never saw the request.
func isDialError(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// retryable decides whether a failed forward may be re-resolved onto
// another replica. Dial errors always may (the request never arrived).
// A mid-connection failure (EOF, reset — the shape a killed node takes
// when the router held pooled connections to it) is retried only after
// an immediate health probe confirms the node is actually down: a dead
// replica's sessions live only in its memory, so any partial work died
// with it and a retry on the new owner cannot double-execute. If the
// probe says the node is alive, the failure was a genuine mid-response
// error and retrying could repeat a mutation — fail the request.
func (rt *Router) retryable(target *replica, err error, ctxErr error) bool {
	if ctxErr != nil {
		return false // the client went away; nothing to salvage
	}
	if isDialError(err) {
		rt.markDown(target)
		return true
	}
	if rt.probe(target) {
		return false
	}
	rt.markDown(target)
	return true
}

func writeAPIError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(api.ErrorEnvelope{Err: api.Error{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// streamingPath reports whether the endpoint streams its response
// (NDJSON). Streams relay incrementally — no response buffering, and no
// router deadline: they pace themselves and end on client disconnect.
func streamingPath(path string) bool {
	return strings.HasSuffix(path, "/session/stream") || strings.HasSuffix(path, "/session/trace")
}

// writeForwardFailure terminates a failed forward with its typed error.
// A failure caused by the router's own request deadline becomes the
// typed deadline_exceeded (504); everything else keeps the given code,
// and transient rejections carry a Retry-After hint so clients back off
// instead of hammering (docs/robustness.md).
func (rt *Router) writeForwardFailure(w http.ResponseWriter, ctxErr error, status int, code, format string, args ...any) {
	if errors.Is(ctxErr, context.DeadlineExceeded) {
		rt.deadlineHits.Add(1)
		w.Header().Set("Retry-After", "1")
		writeAPIError(w, http.StatusGatewayTimeout, api.CodeDeadlineExceeded, "router: request deadline exceeded")
		return
	}
	if code == api.CodeNodeUnavailable && status != http.StatusBadGateway {
		w.Header().Set("Retry-After", "1")
	}
	writeAPIError(w, status, code, format, args...)
}

// handleAPI dispatches one /api/v1/* request onto the replica that must
// serve it: the rendezvous owner for session-scoped endpoints,
// round-robin for stateless ones.
func (rt *Router) handleAPI(w http.ResponseWriter, r *http.Request) {
	rt.forwards.Add(1)
	rt.inFlight.Add(1)
	defer rt.inFlight.Add(-1)
	if rt.opts.RequestTimeout > 0 && !streamingPath(r.URL.Path) {
		ctx, cancel := context.WithTimeout(r.Context(), rt.opts.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, api.V1Prefix)
	switch {
	case rest == "/session/new" || rest == "/session/restore":
		rt.forwardCreate(w, r, body)
	case rest == "/session/render":
		rt.forwardSession(w, r, body, r.URL.Query().Get("session"))
	case strings.HasPrefix(rest, "/session/") && strings.HasSuffix(rest, "/log"):
		rt.forwardSession(w, r, body, strings.TrimSuffix(strings.TrimPrefix(rest, "/session/"), "/log"))
	case strings.HasPrefix(rest, "/session/"):
		id, err := sessionIDFromBody(body, r.Header.Get("Content-Encoding"))
		if err != nil {
			writeAPIError(w, http.StatusBadRequest, api.CodeBadJSON, "router: %v", err)
			return
		}
		rt.forwardSession(w, r, body, id)
	default:
		rt.forwardStateless(w, r, body)
	}
}

// readBody buffers the request body (bounded) so the forward can be
// retried and the session ID extracted. Returns the raw bytes as
// received — possibly gzipped; they are forwarded verbatim.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Body == nil {
		return nil, true
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, rt.opts.MaxBodyBytes+1))
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, api.CodeBadRequest, "router: reading body: %v", err)
		return nil, false
	}
	if int64(len(body)) > rt.opts.MaxBodyBytes {
		writeAPIError(w, http.StatusRequestEntityTooLarge, api.CodeBodyTooLarge,
			"request body exceeds %d bytes", rt.opts.MaxBodyBytes)
		return nil, false
	}
	return body, true
}

// sessionIDFromBody pulls "sessionId" out of a session-operation body,
// inflating a gzipped copy when the client compressed the request (the
// forwarded bytes stay compressed).
func sessionIDFromBody(body []byte, contentEncoding string) (string, error) {
	raw := body
	if strings.Contains(contentEncoding, "gzip") {
		var err error
		if raw, err = gunzip(body); err != nil {
			return "", fmt.Errorf("bad gzip body: %v", err)
		}
	}
	var req struct {
		SessionID string `json:"sessionId"`
	}
	if err := json.Unmarshal(raw, &req); err != nil {
		return "", fmt.Errorf("body is not a session request: %v", err)
	}
	if req.SessionID == "" {
		return "", fmt.Errorf("body carries no sessionId")
	}
	return req.SessionID, nil
}

// forwardOnce sends one copy of the request to a replica. assignID, when
// non-empty, rides the SessionIDHeader (create paths).
func (rt *Router) forwardOnce(target *replica, r *http.Request, body []byte, assignID string) (*http.Response, error) {
	u := target.baseURL + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	copyHeaders(req.Header, r.Header)
	if assignID != "" {
		req.Header.Set(api.SessionIDHeader, assignID)
	}
	req.ContentLength = int64(len(body))
	return rt.client.Do(req)
}

var hopByHop = map[string]bool{
	"Connection": true, "Keep-Alive": true, "Proxy-Connection": true,
	"Te": true, "Trailer": true, "Transfer-Encoding": true, "Upgrade": true,
}

func copyHeaders(dst, src http.Header) {
	for k, vv := range src {
		if hopByHop[http.CanonicalHeaderKey(k)] {
			continue
		}
		for _, v := range vv {
			dst.Add(k, v)
		}
	}
}

// relay streams a replica response to the client, flushing per chunk so
// NDJSON streams (session/stream) arrive incrementally through the
// router.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	copyHeaders(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// relayBytes writes an already-buffered replica response.
func relayBytes(w http.ResponseWriter, status int, header http.Header, body []byte) {
	copyHeaders(w.Header(), header)
	w.WriteHeader(status)
	w.Write(body)
}

// bufferResponse drains a response into memory and hands back the bytes
// plus a decompressed view for inspection.
func bufferResponse(resp *http.Response) (raw, inflated []byte, err error) {
	defer resp.Body.Close()
	raw, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	inflated = raw
	if strings.Contains(resp.Header.Get("Content-Encoding"), "gzip") {
		if inflated, err = gunzip(raw); err != nil {
			return raw, nil, err
		}
	}
	return raw, inflated, nil
}

// gunzip inflates a complete gzip document on a pooled reader: the router
// inflates a copy of every gzipped session request and buffered response
// it inspects.
func gunzip(data []byte) ([]byte, error) {
	gr, err := api.GetGzipReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer api.PutGzipReader(gr)
	return io.ReadAll(gr)
}

// errorCode extracts the stable error code from a buffered non-2xx
// replica response.
func errorCode(inflated []byte) string {
	var env api.ErrorEnvelope
	if json.Unmarshal(inflated, &env) != nil {
		return ""
	}
	return env.Err.Code
}

// forwardStateless round-robins a session-less request (simulate,
// batch, compile, schema...) over available replicas. Non-streaming
// responses are buffered before anything reaches the client, so a
// mid-body failure (a replica killed while responding) is still
// retryable under the same probe-confirmed rule as a failed dial —
// the client sees either a complete response or a typed error, never a
// truncated body.
func (rt *Router) forwardStateless(w http.ResponseWriter, r *http.Request, body []byte) {
	var lastErr error
	for attempt := 0; attempt <= rt.opts.Retries; attempt++ {
		target := rt.nextHealthy()
		if target == nil {
			rt.writeForwardFailure(w, r.Context().Err(), http.StatusServiceUnavailable, api.CodeNodeUnavailable, "no healthy replica")
			return
		}
		resp, err := rt.forwardOnce(target, r, body, "")
		if err == nil {
			if streamingPath(r.URL.Path) {
				target.br.onSuccess()
				rt.budget.credit()
				relay(w, resp)
				return
			}
			raw, _, berr := bufferResponse(resp)
			if berr == nil {
				target.br.onSuccess()
				rt.budget.credit()
				if resp.StatusCode == http.StatusTooManyRequests {
					rt.shedRelayed.Add(1)
				}
				relayBytes(w, resp.StatusCode, resp.Header, raw)
				return
			}
			err = berr
		}
		target.br.onFailure()
		if !rt.retryable(target, err, r.Context().Err()) {
			rt.writeForwardFailure(w, r.Context().Err(), http.StatusBadGateway, api.CodeNodeUnavailable, "forward to %s failed: %v", target.name, err)
			return
		}
		if !rt.budget.spend() {
			rt.retriesDenied.Add(1)
			rt.writeForwardFailure(w, r.Context().Err(), http.StatusServiceUnavailable, api.CodeNodeUnavailable, "retry budget exhausted: %v", err)
			return
		}
		rt.retries.Add(1)
		lastErr = err
		time.Sleep(rt.backoff(attempt))
	}
	rt.writeForwardFailure(w, r.Context().Err(), http.StatusServiceUnavailable, api.CodeNodeUnavailable, "retries exhausted: %v", lastErr)
}

// forwardSession routes a session-scoped request to the session's
// rendezvous owner. A dial failure marks the owner down and re-resolves
// — the replacement owner rehydrates the session from the shared store
// if a write-through checkpoint exists. Non-streaming responses are
// buffered before anything reaches the client (see forwardStateless);
// only session/stream and session/trace relay incrementally.
func (rt *Router) forwardSession(w http.ResponseWriter, r *http.Request, body []byte, id string) {
	if id == "" {
		writeAPIError(w, http.StatusBadRequest, api.CodeBadRequest, "router: no session id in request")
		return
	}
	var lastErr error
	for attempt := 0; attempt <= rt.opts.Retries; attempt++ {
		target := rt.owner(id)
		if target == nil {
			rt.writeForwardFailure(w, r.Context().Err(), http.StatusServiceUnavailable, api.CodeNodeUnavailable, "no healthy replica")
			return
		}
		resp, err := rt.forwardOnce(target, r, body, "")
		if err == nil {
			if streamingPath(r.URL.Path) {
				target.br.onSuccess()
				rt.budget.credit()
				rt.finishSessionStream(w, r, id, target, resp)
				return
			}
			raw, inflated, berr := bufferResponse(resp)
			if berr == nil {
				target.br.onSuccess()
				rt.budget.credit()
				if resp.StatusCode == http.StatusTooManyRequests {
					rt.shedRelayed.Add(1)
				}
				rt.finishSession(w, r, id, target, resp.StatusCode, resp.Header, raw, inflated)
				return
			}
			err = berr
		}
		target.br.onFailure()
		if !rt.retryable(target, err, r.Context().Err()) {
			rt.writeForwardFailure(w, r.Context().Err(), http.StatusBadGateway, api.CodeNodeUnavailable, "forward to %s failed: %v", target.name, err)
			return
		}
		if !rt.budget.spend() {
			rt.retriesDenied.Add(1)
			rt.writeForwardFailure(w, r.Context().Err(), http.StatusServiceUnavailable, api.CodeNodeUnavailable, "retry budget exhausted: %v", err)
			return
		}
		rt.retries.Add(1)
		lastErr = err
		rt.debugf("router: session %s: owner %s unreachable, re-resolving", id, target.name)
		time.Sleep(rt.backoff(attempt))
	}
	rt.writeForwardFailure(w, r.Context().Err(), http.StatusServiceUnavailable, api.CodeNodeUnavailable, "retries exhausted: %v", lastErr)
}

// finishSessionStream is finishSession for the incrementally-relayed
// streaming endpoints: update the session table, then stream.
func (rt *Router) finishSessionStream(w http.ResponseWriter, r *http.Request, id string, target *replica, resp *http.Response) {
	if resp.StatusCode < 400 {
		rt.mu.Lock()
		rt.sessions[id] = sessionRecord{owner: target.name, epoch: rt.epoch.Load()}
		rt.mu.Unlock()
	}
	relay(w, resp)
}

// finishSession interprets a buffered session-op response. 2xx updates
// the session table; unknown_session disambiguates between an expired
// session (pass the 404 through) and one orphaned by a ring change with
// no checkpoint to rehydrate from (rewrite to session_moved so the
// client learns the state is gone past its last checkpoint).
func (rt *Router) finishSession(w http.ResponseWriter, r *http.Request, id string, target *replica, status int, header http.Header, raw, inflated []byte) {
	if status < 400 {
		closed := strings.HasSuffix(r.URL.Path, "/session/close")
		rt.mu.Lock()
		if closed {
			delete(rt.sessions, id)
		} else {
			rt.sessions[id] = sessionRecord{owner: target.name, epoch: rt.epoch.Load()}
		}
		rt.mu.Unlock()
		relayBytes(w, status, header, raw)
		return
	}
	if errorCode(inflated) == api.CodeUnknownSession {
		cur := rt.epoch.Load()
		rt.mu.Lock()
		rec, known := rt.sessions[id]
		delete(rt.sessions, id)
		rt.mu.Unlock()
		if known && (rec.epoch != cur || rec.owner != target.name) {
			writeAPIError(w, http.StatusGone, api.CodeSessionMoved,
				"session %s moved off replica %s after a ring change and no checkpoint of it exists; "+
					"state past the last explicit checkpoint is lost — restore a checkpoint or start a new session", id, rec.owner)
			return
		}
	}
	relayBytes(w, status, header, raw)
}

// forwardCreate serves session/new and session/restore: draw a random
// session ID, compute its rendezvous owner, and forward with the ID
// assigned via header. An ID collision (session_exists) redraws.
func (rt *Router) forwardCreate(w http.ResponseWriter, r *http.Request, body []byte) {
	var lastErr error
	for attempt := 0; attempt < createAttempts; attempt++ {
		id := newSessionID()
		target := rt.owner(id)
		if target == nil {
			rt.writeForwardFailure(w, r.Context().Err(), http.StatusServiceUnavailable, api.CodeNodeUnavailable, "no healthy replica")
			return
		}
		resp, err := rt.forwardOnce(target, r, body, id)
		var raw, inflated []byte
		if err == nil {
			// A mid-body failure joins the retry path: the create retries
			// under a FRESH id, so even if the replica created the session
			// before dying, nothing double-executes — the orphan just ages
			// out via the session TTL.
			raw, inflated, err = bufferResponse(resp)
		}
		if err != nil {
			target.br.onFailure()
			if !rt.retryable(target, err, r.Context().Err()) {
				rt.writeForwardFailure(w, r.Context().Err(), http.StatusBadGateway, api.CodeNodeUnavailable, "forward to %s failed: %v", target.name, err)
				return
			}
			if !rt.budget.spend() {
				rt.retriesDenied.Add(1)
				rt.writeForwardFailure(w, r.Context().Err(), http.StatusServiceUnavailable, api.CodeNodeUnavailable, "retry budget exhausted: %v", err)
				return
			}
			rt.retries.Add(1)
			lastErr = err
			time.Sleep(rt.backoff(attempt))
			continue
		}
		target.br.onSuccess()
		rt.budget.credit()
		if resp.StatusCode == http.StatusTooManyRequests {
			rt.shedRelayed.Add(1)
		}
		if resp.StatusCode == http.StatusConflict && errorCode(inflated) == api.CodeSessionExists {
			rt.debugf("router: session id %s collided on %s, redrawing", id, target.name)
			continue
		}
		if resp.StatusCode < 400 {
			// Trust the response over the assignment: a replica running
			// without -assigned-ids generates its own ID, and recording
			// the wrong one would misroute every follow-up.
			var created struct {
				SessionID string `json:"sessionId"`
			}
			if json.Unmarshal(inflated, &created) == nil && created.SessionID != "" {
				if created.SessionID != id {
					rt.debugf("router: replica %s ignored assigned id %s (returned %s) — run it with -assigned-ids", target.name, id, created.SessionID)
				}
				rt.mu.Lock()
				rt.sessions[created.SessionID] = sessionRecord{owner: target.name, epoch: rt.epoch.Load()}
				rt.mu.Unlock()
			}
		}
		relayBytes(w, resp.StatusCode, resp.Header, raw)
		return
	}
	rt.writeForwardFailure(w, r.Context().Err(), http.StatusServiceUnavailable, api.CodeNodeUnavailable, "session create kept failing: %v", lastErr)
}

// ---- migration ----

// rebalance sweeps the session table after a replica recovers: every
// session whose rendezvous owner changed while its current host is
// still alive moves by checkpoint handoff — checkpoint on the old
// owner, restore under the same ID on the new one. The old copy is left
// to TTL eviction; its eventual stale spill loses the version race by
// design. Sessions on dead hosts need no sweep: the next request
// rehydrates them from the store on the new owner.
func (rt *Router) rebalance() {
	rt.rebalanceMu.Lock()
	defer rt.rebalanceMu.Unlock()
	rt.mu.Lock()
	snapshot := make(map[string]sessionRecord, len(rt.sessions))
	for id, rec := range rt.sessions {
		snapshot[id] = rec
	}
	rt.mu.Unlock()
	for id, rec := range snapshot {
		want := rt.owner(id)
		from := rt.byName(rec.owner)
		if want == nil || from == nil || want.name == rec.owner || !from.healthy.Load() {
			continue
		}
		if err := rt.migrate(id, from, want); err != nil {
			rt.debugf("router: migrating %s %s->%s failed: %v (will rehydrate lazily)", id, from.name, want.name, err)
			continue
		}
		rt.mu.Lock()
		// Only move the record if nothing re-owned the session meanwhile.
		if cur, ok := rt.sessions[id]; ok && cur == rec {
			rt.sessions[id] = sessionRecord{owner: want.name, epoch: rt.epoch.Load()}
		}
		rt.mu.Unlock()
		rt.debugf("router: migrated session %s %s -> %s", id, from.name, want.name)
	}
}

// migrate hands one live session over: checkpoint from the old owner,
// restore under the same ID on the new owner. Both documents travel the
// public API, so the handoff is bit-exact by the same checkpoint
// determinism the clients rely on.
func (rt *Router) migrate(id string, from, to *replica) error {
	ctx, cancel := contextWithTimeout(30 * time.Second)
	defer cancel()
	ckptBody, _ := json.Marshal(api.SessionCheckpointRequest{SessionID: id})
	var ckptResp api.SessionCheckpointResponse
	if err := rt.postJSON(ctx, from, "/session/checkpoint", ckptBody, "", &ckptResp); err != nil {
		return fmt.Errorf("checkpoint on %s: %w", from.name, err)
	}
	restBody, _ := json.Marshal(api.SessionRestoreRequest{Checkpoint: ckptResp.Checkpoint})
	var restResp api.SessionNewResponse
	if err := rt.postJSON(ctx, to, "/session/restore", restBody, id, &restResp); err != nil {
		return fmt.Errorf("restore on %s: %w", to.name, err)
	}
	if restResp.SessionID != id {
		return fmt.Errorf("restore on %s assigned %s instead of %s (is it running with -assigned-ids?)", to.name, restResp.SessionID, id)
	}
	return nil
}

// postJSON is the router's own API call path (migration traffic).
func (rt *Router) postJSON(ctx context.Context, target *replica, path string, body []byte, assignID string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target.baseURL+api.V1Prefix+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if assignID != "" {
		req.Header.Set(api.SessionIDHeader, assignID)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	_, inflated, err := bufferResponse(resp)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d [%s]", path, resp.StatusCode, errorCode(inflated))
	}
	return json.Unmarshal(inflated, out)
}

// ---- admin ----

// RingEntry is one replica's row in the /admin/ring response.
type RingEntry struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Breaker string `json:"breaker"` // closed | half-open | open
}

// RingResponse is the /admin/ring document.
type RingResponse struct {
	Epoch    uint64      `json:"epoch"`
	Sessions int         `json:"sessions"`
	Replicas []RingEntry `json:"replicas"`
}

// OwnerResponse is the /admin/owner document: which replica a session
// ID hashes to right now.
type OwnerResponse struct {
	Session string `json:"session"`
	Owner   string `json:"owner"`
	URL     string `json:"url"`
	Epoch   uint64 `json:"epoch"`
}

func (rt *Router) handleRing(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	n := len(rt.sessions)
	rt.mu.Unlock()
	out := RingResponse{Epoch: rt.epoch.Load(), Sessions: n}
	for _, rep := range rt.replicas {
		out.Replicas = append(out.Replicas, RingEntry{
			Name: rep.name, URL: rep.baseURL,
			Healthy: rep.healthy.Load(), Breaker: rep.br.stateName(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// RouterMetrics is the /admin/metrics document: the router's robustness
// counters and per-replica breaker states (docs/robustness.md). The
// chaos tests assert these move under injected faults.
type RouterMetrics struct {
	Forwards         uint64      `json:"forwards"`
	Retries          uint64      `json:"retries"`
	RetriesDenied    uint64      `json:"retriesDenied"`
	Shed             uint64      `json:"shed"` // 429 over_capacity responses relayed
	DeadlineExceeded uint64      `json:"deadlineExceeded"`
	InFlight         int64       `json:"inFlight"`
	Epoch            uint64      `json:"epoch"`
	Replicas         []RingEntry `json:"replicas"`
}

// Metrics snapshots the robustness counters.
func (rt *Router) Metrics() RouterMetrics {
	m := RouterMetrics{
		Forwards:         rt.forwards.Load(),
		Retries:          rt.retries.Load(),
		RetriesDenied:    rt.retriesDenied.Load(),
		Shed:             rt.shedRelayed.Load(),
		DeadlineExceeded: rt.deadlineHits.Load(),
		InFlight:         rt.inFlight.Load(),
		Epoch:            rt.epoch.Load(),
	}
	for _, rep := range rt.replicas {
		m.Replicas = append(m.Replicas, RingEntry{
			Name: rep.name, URL: rep.baseURL,
			Healthy: rep.healthy.Load(), Breaker: rep.br.stateName(),
		})
	}
	return m
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rt.Metrics())
}

func (rt *Router) handleOwner(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("session")
	if id == "" {
		writeAPIError(w, http.StatusBadRequest, api.CodeBadRequest, "missing ?session=")
		return
	}
	target := rt.owner(id)
	if target == nil {
		writeAPIError(w, http.StatusServiceUnavailable, api.CodeNodeUnavailable, "no healthy replica")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(OwnerResponse{Session: id, Owner: target.name, URL: target.baseURL, Epoch: rt.epoch.Load()})
}
