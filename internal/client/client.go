// Package client implements the simulator's client side: a thin typed
// wrapper over the server's versioned JSON API (/api/v1) used by the CLI
// (paper §II-E: "The CLI must be connected to the server using host and
// port parameters"). An in-process mode (Local) runs the same code path
// without a network.
//
// The client speaks the v1 contract from riscvsim/internal/api: it
// understands the machine-readable error envelope, fans sweeps out
// through Client.SimulateBatch, and consumes NDJSON streams through
// Client.Stream.
package client

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"time"

	"riscvsim/internal/api"
	"riscvsim/internal/server"
)

// Client talks to a simulation server.
type Client struct {
	base  string
	http  *http.Client
	gzip  bool
	retry RetryPolicy
}

// RetryPolicy makes the client ride out transient tier conditions
// (docs/robustness.md): node_unavailable (a replica died mid-failover)
// and over_capacity / 503 (admission shed) responses are retried with
// capped jittered exponential backoff, honoring a Retry-After header
// when the server sent one. Terminal conditions — session_moved,
// unknown_session, every validation error — never retry. The zero
// value disables retries (the historical behavior).
type RetryPolicy struct {
	// MaxRetries caps re-sends after the first attempt (0 = no retries).
	MaxRetries int
	// BaseBackoff is the first retry's nominal delay (default 100ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth and any Retry-After hint
	// (default 2s).
	MaxBackoff time.Duration
}

// SetRetryPolicy installs a retry policy on the client.
func (c *Client) SetRetryPolicy(p RetryPolicy) {
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 100 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	c.retry = p
}

// New builds a client for the given host/port. useGzip compresses request
// bodies of 1 KiB or more and advertises gzip responses.
func New(host string, port int, useGzip bool) *Client {
	return NewForURL(fmt.Sprintf("http://%s:%d", host, port), useGzip)
}

// NewForURL builds a client for a full base URL (tests, load generator).
func NewForURL(base string, useGzip bool) *Client {
	// The client negotiates gzip itself (send): left to the Transport,
	// every response would get a decompressor of its own.
	tr := &http.Transport{DisableCompression: true, MaxIdleConnsPerHost: 256}
	return &Client{
		base: base,
		http: &http.Client{Transport: tr, Timeout: 120 * time.Second},
		gzip: useGzip,
	}
}

// Local builds a client wired directly to an in-process server — the same
// JSON code path without a real socket.
func Local(opts server.Options) (*Client, func()) {
	srv := server.New(opts)
	ts := httptest.NewServer(srv.Handler())
	c := NewForURL(ts.URL, !opts.DisableGzip)
	return c, ts.Close
}

// minGzipBody is the smallest request body a gzip client compresses. It
// is a measurement (docs/performance.md, "Compress: the level is a
// measurement"): below it gzip saves at most a few hundred bytes, a
// session step's 35 B body grows to 63 B, and the body still costs a
// deflate here and an inflate at the router and at the replica.
const minGzipBody = 1 << 10

// newRequest builds a POST with the encoded body and protocol headers.
func (c *Client) newRequest(path string, req any) (*http.Request, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	hreq, err := http.NewRequest(http.MethodPost, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	var rd io.Reader = bytes.NewReader(body)
	if c.gzip && len(body) >= minGzipBody {
		var buf bytes.Buffer
		gz := api.GetGzipWriter(&buf)
		gz.Write(body)
		api.PutGzipWriter(gz)
		rd = &buf
		hreq.Header.Set("Content-Encoding", "gzip")
	}
	hreq.Body = io.NopCloser(rd)
	hreq.Header.Set("Content-Type", api.MediaTypeJSON)
	hreq.Header.Set("Accept", api.MediaTypeJSON)
	return hreq, nil
}

// APIError is a non-200 server response carrying the v1 envelope's
// stable error code. Callers dispatch on Code via ErrorCode.
type APIError struct {
	Path    string
	Status  int
	Code    string
	Message string
	// RetryAfter is the server's backoff hint (429/503 shed responses),
	// zero when absent.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: %s: [%s] %s", e.Path, e.Code, e.Message)
}

// ErrorCode extracts the stable v1 error code from a client error, or
// "" for transport errors and responses without the v1 envelope. Routed
// deployments dispatch on api.CodeSessionMoved / api.CodeNodeUnavailable
// with it.
func ErrorCode(err error) string {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Code
	}
	return ""
}

// decodeError turns a non-200 response into an error carrying the v1
// envelope's stable code (and the Retry-After hint) when present.
func decodeError(path string, status int, header http.Header, data []byte) error {
	var retryAfter time.Duration
	if header != nil {
		if s := header.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
				retryAfter = time.Duration(secs) * time.Second
			}
		}
	}
	var env api.ErrorEnvelope
	if json.Unmarshal(data, &env) == nil && env.Err.Message != "" {
		return &APIError{Path: path, Status: status, Code: env.Err.Code, Message: env.Err.Message, RetryAfter: retryAfter}
	}
	return fmt.Errorf("client: %s: HTTP %d", path, status)
}

// Retryable reports whether an error is a transient tier condition a
// client may safely re-send the same request for: the request was shed
// or could not be placed, so no simulation work happened.
// session_moved, unknown_session, deadline_exceeded (session state
// advanced!) and validation errors are terminal.
func Retryable(err error) bool {
	var ae *APIError
	if !errors.As(err, &ae) {
		return false
	}
	switch ae.Code {
	case api.CodeNodeUnavailable, api.CodeOverCapacity:
		return true
	}
	// A shedding proxy in front of an old server may 429/503 without a
	// typed envelope.
	return ae.Code == "" && (ae.Status == http.StatusTooManyRequests || ae.Status == http.StatusServiceUnavailable)
}

// retryDelay computes attempt's backoff (0-based): the server's
// Retry-After hint when given, else jittered exponential from
// BaseBackoff — both capped at MaxBackoff.
func (c *Client) retryDelay(attempt int, err error) time.Duration {
	var ae *APIError
	if errors.As(err, &ae) && ae.RetryAfter > 0 {
		return min(ae.RetryAfter, c.retry.MaxBackoff)
	}
	d := c.retry.BaseBackoff
	for i := 0; i < attempt && d < c.retry.MaxBackoff; i++ {
		d *= 2
	}
	d = min(d, c.retry.MaxBackoff)
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// post sends a JSON request and decodes the JSON response, retrying
// transient typed failures under the client's RetryPolicy.
func (c *Client) post(path string, req, resp any) error {
	err := c.postOnce(path, req, resp)
	for attempt := 0; attempt < c.retry.MaxRetries && Retryable(err); attempt++ {
		time.Sleep(c.retryDelay(attempt, err))
		err = c.postOnce(path, req, resp)
	}
	return err
}

// postOnce sends one JSON request and decodes the JSON response.
func (c *Client) postOnce(path string, req, resp any) error {
	hreq, err := c.newRequest(path, req)
	if err != nil {
		return err
	}
	return c.do(hreq, path, resp)
}

// get fetches a read-only document.
func (c *Client) get(path string, resp any) error {
	hreq, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.do(hreq, path, resp)
}

// send performs the HTTP exchange. A gzip client asks for a compressed
// reply and gets the body back in the clear, inflated as it is read by a
// pooled decompressor that closing the body returns.
func (c *Client) send(hreq *http.Request) (*http.Response, error) {
	if c.gzip {
		hreq.Header.Set("Accept-Encoding", "gzip")
	}
	hresp, err := c.http.Do(hreq)
	if err != nil {
		return nil, err
	}
	if hresp.Header.Get("Content-Encoding") == "gzip" {
		gr, err := api.GetGzipReader(hresp.Body)
		if err != nil {
			hresp.Body.Close()
			return nil, err
		}
		hresp.Body = &gzipBody{Reader: gr, wire: hresp.Body}
	}
	return hresp, nil
}

// gzipBody is a compressed response body read in the clear.
type gzipBody struct {
	*gzip.Reader
	wire io.Closer
}

// Close recycles the decompressor and closes the connection's body.
func (b *gzipBody) Close() error {
	api.PutGzipReader(b.Reader)
	return b.wire.Close()
}

// do performs one exchange: anything but a 200 comes back as the typed
// error of its envelope, a 200 is decoded into resp (nil discards it).
func (c *Client) do(hreq *http.Request, path string, resp any) error {
	hresp, err := c.send(hreq)
	if err != nil {
		return fmt.Errorf("client: %s: %w", path, err)
	}
	defer hresp.Body.Close()
	// Decoding copies what it keeps, so the body can live in a pooled buffer.
	buf := api.GetBuffer()
	defer api.PutBuffer(buf)
	if _, err := buf.ReadFrom(hresp.Body); err != nil {
		return fmt.Errorf("client: reading %s response: %w", path, err)
	}
	data := buf.Bytes()
	if hresp.StatusCode != http.StatusOK {
		return decodeError(path, hresp.StatusCode, hresp.Header, data)
	}
	if resp == nil {
		return nil
	}
	if err := api.PooledCodec.Unmarshal(data, resp); err != nil {
		return fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	return nil
}

// Simulate runs a batch simulation.
func (c *Client) Simulate(req *api.SimulateRequest) (*api.SimulateResponse, error) {
	var resp api.SimulateResponse
	if err := c.post(api.V1Prefix+"/simulate", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SimulateBatch fans N independent simulations out in one round trip;
// the server runs them on a bounded worker pool. Per-item failures come
// back inside BatchResponse.Results, not as a call error.
func (c *Client) SimulateBatch(reqs []api.SimulateRequest) (*api.BatchResponse, error) {
	var resp api.BatchResponse
	if err := c.post(api.V1Prefix+"/batch", &api.BatchRequest{Requests: reqs}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// RunSuite executes the embedded workload corpus (optionally filtered)
// against one architecture on the server and returns the typed
// per-workload metrics report. The server fans the corpus out across its
// batch worker pool; rows come back in corpus order.
func (c *Client) RunSuite(req *api.SuiteRequest) (*api.SuiteResponse, error) {
	var resp api.SuiteResponse
	if err := c.post(api.V1Prefix+"/suite", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stream opens an NDJSON streaming simulation and calls fn for every
// event. It returns the final (Done) event. fn returning an error aborts
// the stream and surfaces that error.
func (c *Client) Stream(req *api.StreamRequest, fn func(*api.StreamEvent) error) (*api.StreamEvent, error) {
	return stream(c, api.V1Prefix+"/session/stream", req, fn, func(ev *api.StreamEvent) bool { return ev.Done })
}

// stream is the NDJSON reader behind Stream and StreamTrace: it posts req,
// hands every line to fn (nil ignores them) and returns the line done
// recognizes as the final one.
func stream[E any](c *Client, path string, req any, fn func(*E) error, done func(*E) bool) (*E, error) {
	hreq, err := c.newRequest(path, req)
	if err != nil {
		return nil, err
	}
	hresp, err := c.send(hreq)
	if err != nil {
		return nil, fmt.Errorf("client: %s: %w", path, err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(hresp.Body)
		return nil, decodeError(path, hresp.StatusCode, hresp.Header, data)
	}
	br := bufio.NewReader(hresp.Body)
	line := api.GetBuffer()
	defer api.PutBuffer(line)
	for {
		end, err := readLine(br, line)
		if err != nil {
			return nil, fmt.Errorf("client: reading %s event: %w", path, err)
		}
		if len(bytes.TrimSpace(line.Bytes())) == 0 {
			if end {
				return nil, fmt.Errorf("client: %s: stream ended without a final event", path)
			}
			continue
		}
		ev := new(E)
		if err := api.PooledCodec.Unmarshal(line.Bytes(), ev); err != nil {
			return nil, fmt.Errorf("client: decoding %s event: %w", path, err)
		}
		if fn != nil {
			if err := fn(ev); err != nil {
				return nil, err
			}
		}
		if done(ev) {
			return ev, nil
		}
	}
}

// readLine reads one NDJSON line, of any length, into line (emptied
// first) and reports whether the stream ended after it.
func readLine(br *bufio.Reader, line *bytes.Buffer) (end bool, err error) {
	line.Reset()
	for {
		chunk, err := br.ReadSlice('\n')
		line.Write(chunk)
		switch err {
		case nil:
			return false, nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			return true, nil
		default:
			return false, err
		}
	}
}

// SimulateWithTrace runs a batch simulation with the pipeline-trace
// collector attached, returning the response with its Trace result. A
// nil opts traces every stage with the default ring bound.
func (c *Client) SimulateWithTrace(req *api.SimulateRequest, opts *api.TraceOptions) (*api.SimulateResponse, error) {
	traced := *req
	if opts == nil {
		opts = &api.TraceOptions{}
	}
	traced.Trace = opts
	resp, err := c.Simulate(&traced)
	if err != nil {
		return nil, err
	}
	if resp.Trace == nil {
		return nil, fmt.Errorf("client: server returned no trace (pre-trace server?)")
	}
	return resp, nil
}

// StreamTrace opens an NDJSON pipeline-trace stream and calls fn for
// every stage event. It returns the final summary line. fn returning an
// error aborts the stream and surfaces that error.
func (c *Client) StreamTrace(req *api.TraceStreamRequest, fn func(*api.TraceStreamEvent) error) (*api.TraceStreamEvent, error) {
	return stream(c, api.V1Prefix+"/session/trace", req, fn, func(ev *api.TraceStreamEvent) bool { return ev.Done })
}

// SessionLog pages through a session's debug log: entries from
// sinceCycle on, plus the cycle to resume paging from.
func (c *Client) SessionLog(id string, sinceCycle uint64) (*api.SessionLogResponse, error) {
	var resp api.SessionLogResponse
	path := fmt.Sprintf("%s/session/%s/log?since_cycle=%d", api.V1Prefix, url.PathEscape(id), sinceCycle)
	if err := c.get(path, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Compile translates C to assembly on the server.
func (c *Client) Compile(req *api.CompileRequest) (*api.CompileResponse, error) {
	var resp api.CompileResponse
	if err := c.post(api.V1Prefix+"/compile", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// NewSession opens an interactive session.
func (c *Client) NewSession(req *api.SessionNewRequest) (*api.SessionNewResponse, error) {
	var resp api.SessionNewResponse
	if err := c.post(api.V1Prefix+"/session/new", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Step advances (or rewinds, with negative steps) a session.
func (c *Client) Step(id string, steps int64) (*api.SessionStateResponse, error) {
	var resp api.SessionStateResponse
	err := c.post(api.V1Prefix+"/session/step", &api.SessionStepRequest{SessionID: id, Steps: steps}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Goto jumps a session to an absolute cycle.
func (c *Client) Goto(id string, cycle uint64) (*api.SessionStateResponse, error) {
	var resp api.SessionStateResponse
	err := c.post(api.V1Prefix+"/session/goto", &api.SessionGotoRequest{SessionID: id, Cycle: cycle}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// CloseSession ends a session.
func (c *Client) CloseSession(id string) error {
	return c.post(api.V1Prefix+"/session/close", &api.SessionCloseRequest{SessionID: id}, nil)
}

// Checkpoint snapshots a session into the self-contained binary format.
// The returned bytes restore on this server, another server running a
// compatible format version, or locally through sim.Restore.
func (c *Client) Checkpoint(id string) (*api.SessionCheckpointResponse, error) {
	var resp api.SessionCheckpointResponse
	err := c.post(api.V1Prefix+"/session/checkpoint", &api.SessionCheckpointRequest{SessionID: id}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// RestoreSession opens a fresh interactive session from a checkpoint,
// resuming exactly where the snapshot left off.
func (c *Client) RestoreSession(checkpoint []byte) (*api.SessionNewResponse, error) {
	var resp api.SessionNewResponse
	err := c.post(api.V1Prefix+"/session/restore", &api.SessionRestoreRequest{Checkpoint: checkpoint}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// SimulateBatchFrom fans N simulations out like SimulateBatch, but forks
// every entry from the shared base checkpoint instead of replaying the
// warm-up prefix from cycle zero.
func (c *Client) SimulateBatchFrom(base []byte, reqs []api.SimulateRequest) (*api.BatchResponse, error) {
	var resp api.BatchResponse
	req := &api.BatchRequest{Requests: reqs, BaseCheckpoint: base}
	if err := c.post(api.V1Prefix+"/batch", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Metrics fetches the server's instrumentation counters.
func (c *Client) Metrics() (*api.Metrics, error) {
	var m api.Metrics
	if err := c.get(api.V1Prefix+"/metrics", &m); err != nil {
		return nil, err
	}
	return &m, nil
}
