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

// route is the router's handler for one row of api.Routes (the zero row
// is the catch-all): buffer the request, turn the row's placement into a
// plan, and run the plan through the one attempt loop.
func (rt *Router) route(row api.Route) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func(began time.Time) { rt.forwardNanos.Add(uint64(time.Since(began))) }(time.Now())
		rt.forwards.Add(1)
		rt.inFlight.Add(1)
		defer rt.inFlight.Add(-1)
		// Streams pace themselves and end on client disconnect: no deadline.
		if rt.opts.RequestTimeout > 0 && !row.Stream {
			ctx, cancel := context.WithTimeout(r.Context(), rt.opts.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		body, ok := rt.readBody(w, r)
		if !ok {
			return
		}
		p, aerr := rt.place(row, r, body)
		if aerr != nil {
			status := http.StatusBadRequest
			if aerr.Code == api.CodeBodyTooLarge {
				status = http.StatusRequestEntityTooLarge
			}
			writeAPIError(w, status, aerr.Code, "%s", aerr.Message)
			return
		}
		rt.forward(w, r, body, p)
	}
}

// readBody buffers the request body (bounded) so the forward can be
// retried and the session ID extracted. Returns the raw bytes as
// received — possibly gzipped; they are forwarded verbatim.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Body == nil {
		return nil, true
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, api.MaxBodyBytes+1))
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, api.CodeBadRequest, "router: reading body: %v", err)
		return nil, false
	}
	if int64(len(body)) > api.MaxBodyBytes {
		writeAPIError(w, http.StatusRequestEntityTooLarge, api.CodeBodyTooLarge,
			"request body exceeds %d bytes", api.MaxBodyBytes)
		return nil, false
	}
	return body, true
}

// errInflatedTooLarge: a gzipped body inflates past api.MaxBodyBytes, the
// bound a replica puts on the clear bytes it reads.
var errInflatedTooLarge = fmt.Errorf("gzip body inflates past %d bytes", api.MaxBodyBytes)

// sessionIDFromBody pulls "sessionId" out of a session-operation body,
// inflating a gzipped copy when the client compressed the request (the
// forwarded bytes stay compressed). It inflates no more than
// api.MaxBodyBytes+1 bytes.
func sessionIDFromBody(body []byte, contentEncoding string) (string, error) {
	raw := body
	if strings.Contains(contentEncoding, "gzip") {
		clear := api.GetBuffer()
		defer api.PutBuffer(clear)
		if err := gunzip(clear, body, api.MaxBodyBytes); errors.Is(err, errInflatedTooLarge) {
			return "", err
		} else if err != nil {
			return "", fmt.Errorf("bad gzip body: %v", err)
		}
		raw = clear.Bytes()
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

// relayStream copies a replica's NDJSON stream to the client, flushing
// per chunk so events arrive through the router as they are produced.
func relayStream(w http.ResponseWriter, resp *http.Response) {
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

// reply is a replica's complete answer, buffered before anything reaches
// the client, so that a reply torn mid-body (a replica killed while
// responding) is a failed attempt the loop may retry and the client sees
// either a whole response or a typed error, never a truncated one. body is
// the body as the replica framed it — gzipped when the client asked for
// that — and is what gets relayed; nothing inflates it unless a finisher
// has to read it. Truncation needs no inflating to be caught: a body cut
// short of its Content-Length or chunk terminator fails the read itself.
// Both buffers are pooled: whoever read the reply releases it once it is
// relayed or parsed.
type reply struct {
	status int
	header http.Header
	body   *bytes.Buffer
	clear  *bytes.Buffer // body inflated, once inflate had to
}

func readReply(resp *http.Response) (reply, error) {
	defer resp.Body.Close()
	rp := reply{resp.StatusCode, resp.Header, api.GetBuffer(), nil}
	_, err := rp.body.ReadFrom(resp.Body)
	return rp, err
}

// release returns the reply's buffers to the pool; nothing read from the
// reply may be used afterwards.
func (rp *reply) release() {
	if rp.body != nil {
		api.PutBuffer(rp.body)
	}
	if rp.clear != nil {
		api.PutBuffer(rp.clear)
	}
	rp.body, rp.clear = nil, nil
}

// relay writes the reply to the client as the replica sent it.
func (rp *reply) relay(w http.ResponseWriter) {
	copyHeaders(w.Header(), rp.header)
	w.WriteHeader(rp.status)
	w.Write(rp.body.Bytes())
}

// errReplyGzip: a reply marked gzip is not a whole gzip stream.
var errReplyGzip = errors.New("reply is not a valid gzip stream")

// inflate returns the body in the clear, for the callers that parse it: a
// create reply's session ID, an error envelope, a migration document. A
// compressed body inflates no further than api.MaxBodyBytes, the bound on
// any body a replica reads and so on any document the router sends on;
// past it inflate fails with errInflatedTooLarge, on a broken stream with
// errReplyGzip.
func (rp *reply) inflate() ([]byte, error) {
	if !strings.Contains(rp.header.Get("Content-Encoding"), "gzip") {
		return rp.body.Bytes(), nil
	}
	if rp.clear == nil {
		clear := api.GetBuffer()
		if err := gunzip(clear, rp.body.Bytes(), api.MaxBodyBytes); err != nil {
			api.PutBuffer(clear)
			if !errors.Is(err, errInflatedTooLarge) {
				err = fmt.Errorf("%w: %v", errReplyGzip, err)
			}
			return nil, err
		}
		rp.clear = clear
	}
	return rp.clear.Bytes(), nil
}

// errorCode reads the stable error code out of a non-2xx reply.
func (rp *reply) errorCode() string {
	var env api.ErrorEnvelope
	if body, err := rp.inflate(); err != nil || json.Unmarshal(body, &env) != nil {
		return ""
	}
	return env.Err.Code
}

// gunzip inflates a complete gzip document into dst on a pooled reader. It
// stops one byte past limit and fails with errInflatedTooLarge.
func gunzip(dst *bytes.Buffer, data []byte, limit int64) error {
	gr, err := api.GetGzipReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer api.PutGzipReader(gr)
	if _, err = dst.ReadFrom(io.LimitReader(gr, limit+1)); err != nil {
		return err
	}
	if int64(dst.Len()) > limit {
		return errInflatedTooLarge
	}
	return nil
}

// plan is what a placement contributes to the attempt loop: where each
// attempt goes, how many there may be, and what a complete reply means.
type plan struct {
	// attempts bounds the loop: failed forwards and redraws both count.
	attempts int
	// pick chooses the attempt's replica (nil: none available) and, on
	// create routes, the session ID it assigns.
	pick func() (target *replica, assignID string)
	// finish interprets a buffered reply and answers the client — or asks
	// for another attempt (redraw) having written nothing.
	finish func(w http.ResponseWriter, target *replica, rp *reply) (redraw bool)
	// stream relays the reply as it arrives instead of buffering it for
	// finish, so only a failure before its first byte is retried.
	stream bool
	// exhausted words the failure once attempts run out.
	exhausted string
}

// place turns a route's placement into the request's plan.
func (rt *Router) place(row api.Route, r *http.Request, body []byte) (plan, *api.Error) {
	var p plan
	switch row.Place {
	case api.Stateless:
		p = rt.statelessPlan()
	case api.Create:
		p = rt.createPlan()
	default:
		id, aerr := sessionID(row.Place, r, body)
		if aerr != nil {
			return p, aerr
		}
		p = rt.sessionPlan(id, row.Ends)
	}
	p.stream = row.Stream
	return p, nil
}

// sessionID finds the session a session-scoped request acts on, where the
// route's placement says it is.
func sessionID(place api.Placement, r *http.Request, body []byte) (string, *api.Error) {
	var id string
	switch place {
	case api.SessionInBody:
		var err error
		if id, err = sessionIDFromBody(body, r.Header.Get("Content-Encoding")); errors.Is(err, errInflatedTooLarge) {
			return "", api.Errorf(api.CodeBodyTooLarge, "router: %v", err)
		} else if err != nil {
			return "", api.Errorf(api.CodeBadJSON, "router: %v", err)
		}
	case api.SessionInQuery:
		id = r.URL.Query().Get("session")
	case api.SessionInPath:
		id = r.PathValue("id")
	}
	if id == "" {
		return "", api.Errorf(api.CodeBadRequest, "router: no session id in request")
	}
	return id, nil
}

// statelessPlan round-robins a session-less request (simulate, batch,
// compile, schema, the streams...) over available replicas and relays
// whatever the replica answered.
func (rt *Router) statelessPlan() plan {
	return plan{
		attempts:  retries + 1,
		pick:      func() (*replica, string) { return rt.nextHealthy(), "" },
		finish:    func(w http.ResponseWriter, _ *replica, rp *reply) bool { rp.relay(w); return false },
		exhausted: "retries exhausted: %v",
	}
}

// sessionPlan sends a session-scoped request to the session's rendezvous
// owner, re-resolved on every attempt: when a failed forward marked the
// owner down, the next attempt lands on the replacement owner, which
// rehydrates the session from the shared store if a write-through
// checkpoint exists.
func (rt *Router) sessionPlan(id string, ends bool) plan {
	return plan{
		attempts: retries + 1,
		pick:     func() (*replica, string) { return rt.owner(id), "" },
		finish: func(w http.ResponseWriter, target *replica, rp *reply) bool {
			rt.finishSession(w, id, ends, target, rp)
			return false
		},
		exhausted: "retries exhausted: %v",
	}
}

// createPlan serves session/new and session/restore: every attempt draws
// a fresh random session ID, computes its rendezvous owner and forwards
// with the ID assigned via header. A failed create therefore retries
// under a new ID — even if the replica created the session before dying
// nothing double-executes, the orphan just ages out via the session TTL —
// and an ID collision (session_exists) redraws.
func (rt *Router) createPlan() plan {
	var id string // the current attempt's draw: pick sets it, finish reads it
	return plan{
		attempts: createAttempts,
		pick: func() (*replica, string) {
			id = newSessionID()
			return rt.owner(id), id
		},
		finish: func(w http.ResponseWriter, target *replica, rp *reply) bool {
			return rt.finishCreate(w, id, target, rp)
		},
		exhausted: "session create kept failing: %v",
	}
}

// forward is the router's one hop: it runs a plan's attempts until a
// replica has answered or the request has failed for good. Everything an
// attempt's outcome touches is booked here and only here — the target's
// breaker, the retry budget, the shed and retry counters, the upstream
// clock — and every failure leaves through writeForwardFailure.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, body []byte, p plan) {
	ctx := r.Context()
	var lastErr error
	for attempt := 0; attempt < p.attempts; attempt++ {
		target, assignID := p.pick()
		if target == nil {
			rt.writeForwardFailure(w, ctx.Err(), http.StatusServiceUnavailable, api.CodeNodeUnavailable, "no healthy replica")
			return
		}
		began := time.Now()
		resp, err := rt.forwardOnce(target, r, body, assignID)
		var rp reply
		switch {
		case err != nil:
		case p.stream:
			relayStream(w, resp)
		default:
			rp, err = readReply(resp)
		}
		rt.upstreamNanos.Add(uint64(time.Since(began)))
		if err == nil {
			target.br.onSuccess()
			rt.budget.credit()
			if resp.StatusCode == http.StatusTooManyRequests {
				rt.shedRelayed.Add(1)
			}
			redraw := !p.stream && p.finish(w, target, &rp)
			rp.release()
			if !redraw {
				return
			}
			continue
		}
		rp.release()
		target.br.onFailure()
		if !rt.retryable(target, err, ctx.Err()) {
			rt.writeForwardFailure(w, ctx.Err(), http.StatusBadGateway, api.CodeNodeUnavailable, "forward to %s failed: %v", target.name, err)
			return
		}
		if !rt.budget.spend() {
			rt.retriesDenied.Add(1)
			rt.writeForwardFailure(w, ctx.Err(), http.StatusServiceUnavailable, api.CodeNodeUnavailable, "retry budget exhausted: %v", err)
			return
		}
		rt.retries.Add(1)
		lastErr = err
		rt.debugf("router: %s: %s unreachable (%v), re-resolving", r.URL.Path, target.name, err)
		if !rt.wait(ctx, rt.backoff(attempt)) {
			rt.writeForwardFailure(w, ctx.Err(), http.StatusBadGateway, api.CodeNodeUnavailable, "gave up while backing off: %v", err)
			return
		}
	}
	rt.writeForwardFailure(w, ctx.Err(), http.StatusServiceUnavailable, api.CodeNodeUnavailable, p.exhausted, lastErr)
}

// wait sits out a retry backoff. It returns false as soon as the request's
// context ends — the client left or the deadline fired — so a request that
// can no longer be answered stops holding its in-flight slot.
func (rt *Router) wait(ctx context.Context, d time.Duration) bool {
	defer func(began time.Time) { rt.upstreamNanos.Add(uint64(time.Since(began))) }(time.Now())
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// finishSession interprets a session-op reply. 2xx updates the session
// table; unknown_session disambiguates between an expired session (pass
// the 404 through) and one orphaned by a ring change with no checkpoint
// to rehydrate from (rewrite to session_moved so the client learns the
// state is gone past its last checkpoint). Only error replies are read,
// so a step's state document is never inflated here.
func (rt *Router) finishSession(w http.ResponseWriter, id string, ends bool, target *replica, rp *reply) {
	if rp.status < 400 {
		rt.mu.Lock()
		if ends {
			delete(rt.sessions, id)
		} else {
			rt.sessions[id] = sessionRecord{owner: target.name, epoch: rt.epoch.Load()}
		}
		rt.mu.Unlock()
	} else if rp.errorCode() == api.CodeUnknownSession {
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
	rp.relay(w)
}

// finishCreate interprets a create reply: a collision on the drawn ID asks
// the loop for another draw, a created session is recorded under the ID
// the replica reports, and everything is relayed as it came.
func (rt *Router) finishCreate(w http.ResponseWriter, id string, target *replica, rp *reply) (redraw bool) {
	if rp.status == http.StatusConflict && rp.errorCode() == api.CodeSessionExists {
		rt.debugf("router: session id %s collided on %s, redrawing", id, target.name)
		return true
	}
	if rp.status < 400 {
		// Trust the response over the assignment: a replica running
		// without -assigned-ids generates its own ID, and recording
		// the wrong one would misroute every follow-up.
		var created struct {
			SessionID string `json:"sessionId"`
		}
		if body, err := rp.inflate(); err == nil && json.Unmarshal(body, &created) == nil && created.SessionID != "" {
			if created.SessionID != id {
				rt.debugf("router: replica %s ignored assigned id %s (returned %s) — run it with -assigned-ids", target.name, id, created.SessionID)
			}
			rt.mu.Lock()
			rt.sessions[created.SessionID] = sessionRecord{owner: target.name, epoch: rt.epoch.Load()}
			rt.mu.Unlock()
		}
	}
	rp.relay(w)
	return false
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
	rp, err := readReply(resp)
	defer rp.release()
	if err != nil {
		return err
	}
	if rp.status != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d [%s]", path, rp.status, rp.errorCode())
	}
	doc, err := rp.inflate()
	if err != nil {
		return err
	}
	return json.Unmarshal(doc, out)
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

// ring snapshots every replica's row.
func (rt *Router) ring() []RingEntry {
	out := make([]RingEntry, len(rt.replicas))
	for i, rep := range rt.replicas {
		out[i] = RingEntry{
			Name: rep.name, URL: rep.baseURL,
			Healthy: rep.healthy.Load(), Breaker: rep.br.stateName(),
		}
	}
	return out
}

func (rt *Router) handleRing(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	n := len(rt.sessions)
	rt.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(RingResponse{Epoch: rt.epoch.Load(), Sessions: n, Replicas: rt.ring()})
}

// RouterMetrics is the /admin/metrics document: the router's robustness
// counters and per-replica breaker states (docs/robustness.md). The
// chaos tests assert these move under injected faults.
type RouterMetrics struct {
	Forwards         uint64 `json:"forwards"`
	Retries          uint64 `json:"retries"`
	RetriesDenied    uint64 `json:"retriesDenied"`
	Shed             uint64 `json:"shed"` // 429 over_capacity responses relayed
	DeadlineExceeded uint64 `json:"deadlineExceeded"`
	InFlight         int64  `json:"inFlight"`
	// ForwardNanos is wall time spent inside the router's API handler and
	// UpstreamNanos the part of it spent waiting on replicas (attempts and
	// the backoff between them): the difference is the router's own hop.
	ForwardNanos  uint64      `json:"forwardNanos"`
	UpstreamNanos uint64      `json:"upstreamNanos"`
	Epoch         uint64      `json:"epoch"`
	Replicas      []RingEntry `json:"replicas"`
}

// Metrics snapshots the robustness counters.
func (rt *Router) Metrics() RouterMetrics {
	return RouterMetrics{
		Forwards:         rt.forwards.Load(),
		Retries:          rt.retries.Load(),
		RetriesDenied:    rt.retriesDenied.Load(),
		Shed:             rt.shedRelayed.Load(),
		DeadlineExceeded: rt.deadlineHits.Load(),
		InFlight:         rt.inFlight.Load(),
		ForwardNanos:     rt.forwardNanos.Load(),
		UpstreamNanos:    rt.upstreamNanos.Load(),
		Epoch:            rt.epoch.Load(),
		Replicas:         rt.ring(),
	}
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
