// Package server implements the simulation server: a versioned HTTP JSON
// API (/api/v1) that carries all simulator logic server-side, exactly like
// the paper's client–server split (§III). The web client and the CLI both
// speak this protocol. Responses are gzip-compressed when the client
// accepts it (gzip raised the paper's measured throughput by 40%, §IV-A).
//
// The wire contract — request/response documents, the error envelope with
// stable codes, and the JSON codec — lives in riscvsim/internal/api; this
// package binds it to HTTP. /api/v1 is the only URL space: the pre-v1 flat
// paths (/simulate, /session/step, ...) are gone and answer 404.
//
// The server instruments its own request handling: it records the share of
// time spent encoding/decoding JSON versus total handling time, which the
// paper profiles at "about 60% of the request handling time" (§IV-A); see
// /api/v1/metrics and the E2 bench.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"riscvsim/internal/api"
	"riscvsim/internal/isa"
	"riscvsim/internal/store"
	"riscvsim/sim"
)

// Options configures the server.
type Options struct {
	// MaxSessions bounds the interactive session store; the least
	// recently used session is evicted when a new one would exceed it.
	MaxSessions int
	// SessionTTL expires sessions idle longer than this (0 = default;
	// negative = never expire).
	SessionTTL time.Duration
	// MaxBodyBytes bounds request bodies.
	MaxBodyBytes int64
	// DisableGzip turns off response compression (for the E3 bench).
	DisableGzip bool
	// SpillDir, when non-empty, enables transparent session spill: a
	// session evicted by LRU pressure or the idle TTL is checkpointed
	// into this directory and rehydrated on its next touch (including
	// after a server restart). Empty disables spilling; evictions then
	// lose sessions (counted in the sessions_lost metric). Ignored when
	// Store is set.
	SpillDir string
	// Store is the checkpoint-store backend for session spill and
	// rehydration (internal/store). It generalizes SpillDir — a
	// directory is just the Dir backend — and is how the distributed
	// tier shares one store across replicas. Takes precedence over
	// SpillDir when both are set.
	Store store.Store
	// SpillTTL garbage-collects spilled checkpoints older than this so
	// abandoned sessions cannot grow the store without bound (0 =
	// default 24h; negative = keep forever).
	SpillTTL time.Duration
	// WriteThrough persists every explicit session checkpoint
	// (POST /api/v1/session/checkpoint) into the checkpoint store, making
	// the store the authority for the session's state: any replica
	// sharing it can rehydrate the session, which is the distributed
	// tier's failover contract (docs/deployment.md). Requires a store.
	WriteThrough bool
	// AllowAssignedIDs accepts a caller-chosen session ID (the
	// api.SessionIDHeader request header) on session create/restore.
	// The consistent-hash router assigns IDs so a session's owner
	// replica is computable before the session exists; direct
	// deployments leave this off so IDs stay server-generated.
	AllowAssignedIDs bool
	// MaxInFlight caps concurrently executing simulation-bearing
	// requests (simulate, batch, suite, session create/step/goto/
	// checkpoint/restore, streams). Beyond it requests wait in a bounded
	// queue and are then shed with a typed 429 over_capacity response
	// carrying Retry-After, so overload degrades to fast rejections
	// instead of collapse (docs/robustness.md). 0 disables admission
	// control (the historical behavior).
	MaxInFlight int
	// MaxQueue bounds how many requests may wait for an in-flight slot
	// (only meaningful with MaxInFlight > 0; default 2x MaxInFlight).
	MaxQueue int
	// QueueTimeout bounds how long a queued request waits before being
	// shed (default 1s).
	QueueTimeout time.Duration
	// RequestTimeout is the per-request simulation deadline: a request
	// whose simulation work outruns it gets a typed deadline_exceeded
	// response (sessions keep whatever state the work reached). 0
	// disables the deadline.
	RequestTimeout time.Duration
	// Debug enables debug-level logging (session eviction/spill events).
	Debug bool
}

// DefaultOptions returns production defaults.
func DefaultOptions() Options {
	return Options{MaxSessions: 256, MaxBodyBytes: 4 << 20, SessionTTL: 15 * time.Minute}
}

// Server is the simulation server.
type Server struct {
	opts Options
	mux  *http.ServeMux

	store *sessionStore
	adm   *admission
	// programs shares compiled Programs between every machine the server
	// builds or restores (programs.go).
	programs *programCache

	// instrumentation counters (atomics: handlers run concurrently)
	reqCount     atomic.Uint64
	totalNs      atomic.Uint64
	jsonNs       atomic.Uint64
	simNs        atomic.Uint64
	batchReqs    atomic.Uint64
	batchSims    atomic.Uint64
	suiteReqs    atomic.Uint64
	suiteRuns    atomic.Uint64
	streamEvents atomic.Uint64
	deadlineHits atomic.Uint64
}

// New builds a server.
func New(opts Options) *Server {
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = 256
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 4 << 20
	}
	if opts.SessionTTL == 0 {
		opts.SessionTTL = 15 * time.Minute
	}
	ttl := opts.SessionTTL
	if ttl < 0 {
		ttl = 0 // sentinel: never expire
	}
	if opts.SpillTTL == 0 {
		opts.SpillTTL = 24 * time.Hour
	}
	spillTTL := opts.SpillTTL
	if spillTTL < 0 {
		spillTTL = 0 // sentinel: never GC
	}
	var debugf func(string, ...any)
	if opts.Debug {
		debugf = func(format string, args ...any) {
			log.Printf("[debug] "+format, args...)
		}
	}
	backend := opts.Store
	if backend == nil && opts.SpillDir != "" {
		d, err := store.NewDir(opts.SpillDir)
		if err != nil {
			// A spill directory that cannot be created degrades to the
			// no-spill behavior the option always had on I/O failure.
			log.Printf("server: spill directory unusable, spilling disabled: %v", err)
		} else {
			backend = d
		}
	}
	maxQueue := opts.MaxQueue
	if maxQueue == 0 {
		maxQueue = 2 * opts.MaxInFlight
	}
	s := &Server{
		opts:     opts,
		mux:      http.NewServeMux(),
		store:    newSessionStore(opts.MaxSessions, ttl, backend, spillTTL, opts.WriteThrough, debugf),
		adm:      newAdmission(opts.MaxInFlight, maxQueue, opts.QueueTimeout),
		programs: newProgramCache(programCacheBudget),
	}
	s.store.programs = s.programs
	s.routes()
	return s
}

// routes mounts the versioned API.
func (s *Server) routes() {
	// Method-scoped patterns: mutations are POST, reads are GET.
	// Simulation-bearing endpoints pass through the admission valve
	// (s.admitted): they hold an in-flight slot for their whole handler
	// and get the per-request deadline. Cheap metadata endpoints
	// (schema, metrics, health, parse/check, render, log paging) bypass
	// it so an overloaded node stays observable and debuggable.
	routes := []struct {
		method, path string
		handler      http.HandlerFunc
	}{
		{http.MethodPost, "/simulate", s.wrap(s.admitted(s.handleSimulate))},
		{http.MethodPost, "/batch", s.wrap(s.admitted(s.handleBatch))},
		{http.MethodPost, "/suite", s.wrap(s.admitted(s.handleSuite))},
		{http.MethodPost, "/compile", s.wrap(s.handleCompile)},
		{http.MethodPost, "/parseAsm", s.wrap(s.handleParseAsm)},
		{http.MethodPost, "/checkConfig", s.wrap(s.handleCheckConfig)},
		{http.MethodGet, "/schema", s.wrap(s.handleSchema)},
		{http.MethodGet, "/instructionDescriptions", s.handleInstructionDescriptions},
		{http.MethodPost, "/session/new", s.wrap(s.admitted(s.handleSessionNew))},
		{http.MethodPost, "/session/step", s.wrap(s.admitted(s.handleSessionStep))},
		{http.MethodPost, "/session/goto", s.wrap(s.admitted(s.handleSessionGoto))},
		{http.MethodPost, "/session/close", s.wrap(s.handleSessionClose)},
		{http.MethodGet, "/session/render", s.wrap(s.handleSessionRender)},
		{http.MethodPost, "/session/stream", s.admitStream(s.handleSessionStream)},
		{http.MethodPost, "/session/trace", s.admitStream(s.handleSessionTrace)},
		{http.MethodGet, "/session/{id}/log", s.wrap(s.handleSessionLog)},
		{http.MethodPost, "/session/checkpoint", s.wrap(s.admitted(s.handleSessionCheckpoint))},
		{http.MethodPost, "/session/restore", s.wrap(s.admitted(s.handleSessionRestore))},
		{http.MethodGet, "/metrics", s.wrap(s.handleMetrics)},
		{http.MethodGet, "/health", s.handleHealth},
	}
	for _, r := range routes {
		s.mux.HandleFunc(r.method+" "+api.V1Prefix+r.path, r.handler)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// Handler returns the HTTP handler (with gzip support).
func (s *Server) Handler() http.Handler {
	if s.opts.DisableGzip {
		return s.mux
	}
	return gzipMiddleware(s.mux)
}

// SpillSessions checkpoints every live interactive session into the
// checkpoint store and drops it from memory (the graceful shutdown path:
// a new server process with the same store picks the sessions back up
// transparently). It returns how many sessions were processed.
func (s *Server) SpillSessions() int { return s.store.SpillAll() }

// Shutdown is the graceful-termination sequence: first drain the HTTP
// server (no new connections, in-flight requests run to completion
// within ctx's deadline), then spill every live session. The ordering
// is the point — spilling before the drain raced in-flight handlers: a
// request could mutate a machine after its spill was captured, or get a
// spurious unknown_session as its session retired mid-operation. It
// returns the number of sessions spilled and the drain error, if any
// (context deadline exceeded when in-flight work outran the budget; the
// spill still runs and captures whatever state the handlers reached).
func (s *Server) Shutdown(ctx context.Context, hs *http.Server) (int, error) {
	err := hs.Shutdown(ctx)
	return s.store.SpillAll(), err
}

// Metrics returns the accumulated instrumentation.
func (s *Server) Metrics() api.Metrics {
	m := api.Metrics{
		Requests:         s.reqCount.Load(),
		TotalNanos:       s.totalNs.Load(),
		JSONNanos:        s.jsonNs.Load(),
		SimNanos:         s.simNs.Load(),
		ActiveSessions:   s.store.Len(),
		BatchRequests:    s.batchReqs.Load(),
		BatchSimulations: s.batchSims.Load(),
		SuiteRequests:    s.suiteReqs.Load(),
		SuiteWorkloads:   s.suiteRuns.Load(),
		StreamEvents:     s.streamEvents.Load(),
		InFlight:         s.adm.inFlight.Load(),
		Shed:             s.adm.shed.Load(),
		DeadlineExceeded: s.deadlineHits.Load(),
	}
	m.SessionsSpilled, m.SessionsRehydrated, m.SessionsLost = s.store.Counters()
	pc := s.programs.stats()
	m.ProgramCacheHits, m.ProgramCacheMisses, m.ProgramCacheEvictions = pc.hits, pc.misses, pc.evictions
	m.ProgramCacheEntries, m.ProgramCacheBytes = pc.entries, pc.bytes
	if m.TotalNanos > 0 {
		m.JSONShare = float64(m.JSONNanos) / float64(m.TotalNanos)
	}
	return m
}

// ResetMetrics clears the counters (benchmark harness).
func (s *Server) ResetMetrics() {
	s.reqCount.Store(0)
	s.totalNs.Store(0)
	s.jsonNs.Store(0)
	s.simNs.Store(0)
	s.batchReqs.Store(0)
	s.batchSims.Store(0)
	s.suiteReqs.Store(0)
	s.suiteRuns.Store(0)
	s.streamEvents.Store(0)
	s.programs.resetCounters()
}

// statusForCode maps stable v1 error codes onto HTTP statuses.
func statusForCode(code string) int {
	switch code {
	case api.CodeBadJSON, api.CodeBadRequest, api.CodeBadTrace, api.CodeBadFilter:
		return http.StatusBadRequest
	case api.CodeBodyTooLarge, api.CodeBatchTooLarge:
		return http.StatusRequestEntityTooLarge
	case api.CodeUnknownPreset, api.CodeBadConfig, api.CodeBuildFailed,
		api.CodeMemFill, api.CodeUnprocessable, api.CodeRewindBarrier,
		api.CodeCheckpointVersion, api.CodeCheckpointConfig:
		return http.StatusUnprocessableEntity
	case api.CodeBadCheckpoint, api.CodeCheckpointTruncated:
		return http.StatusBadRequest
	case api.CodeUnknownSession:
		return http.StatusNotFound
	case api.CodeSessionExists:
		return http.StatusConflict
	case api.CodeSessionMoved:
		return http.StatusGone
	case api.CodeNodeUnavailable:
		return http.StatusServiceUnavailable
	case api.CodeOverCapacity:
		return http.StatusTooManyRequests
	case api.CodeDeadlineExceeded:
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// handlerFunc handles a decoded request and returns a response value to
// encode, or an error with an optional HTTP status override (0 derives
// the status from the error's code).
type handlerFunc func(w http.ResponseWriter, r *http.Request) (any, int, error)

// wrap adds timing instrumentation and the uniform envelope.
func (s *Server) wrap(h handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		resp, status, err := h(w, r)
		if err != nil {
			ae := api.WrapError(api.CodeBadRequest, err)
			resp = &api.ErrorEnvelope{Err: *ae}
			if ae.Code == api.CodeOverCapacity || ae.Code == api.CodeDeadlineExceeded {
				// Both are transient: tell retrying clients when.
				setRetryAfter(w)
			}
			if status == 0 {
				status = statusForCode(ae.Code)
			}
		} else if status == 0 {
			status = http.StatusOK
		}
		buf := api.GetBuffer()
		jstart := time.Now()
		merr := api.PooledCodec.Encode(buf, resp)
		s.jsonNs.Add(uint64(time.Since(jstart)))
		if merr != nil {
			status = http.StatusInternalServerError
			buf.Reset()
			buf.WriteString(`{"error":{"code":"internal","message":"response encoding failed"}}`)
		}
		w.Header().Set("Content-Type", api.MediaTypeJSON)
		w.WriteHeader(status)
		w.Write(buf.Bytes())
		api.PutBuffer(buf)
		s.reqCount.Add(1)
		s.totalNs.Add(uint64(time.Since(start)))
	}
}

// admitted gates a handler behind the admission valve: it holds an
// in-flight slot for the handler's whole run and applies the per-request
// simulation deadline (Options.RequestTimeout) through the request
// context. Shed requests return the typed over_capacity error before any
// decoding or simulation work happens.
func (s *Server) admitted(h handlerFunc) handlerFunc {
	return func(w http.ResponseWriter, r *http.Request) (any, int, error) {
		release, aerr := s.adm.acquire(r.Context())
		if aerr != nil {
			return nil, 0, aerr
		}
		defer release()
		if s.opts.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		return h(w, r)
	}
}

// admitStream is admitted for the raw streaming handlers that live
// outside wrap. A stream holds its slot for its whole life — it is
// simulation work — but gets no deadline: streams pace themselves and
// end on client disconnect.
func (s *Server) admitStream(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, aerr := s.adm.acquire(r.Context())
		if aerr != nil {
			setRetryAfter(w)
			s.writeError(w, aerr)
			return
		}
		defer release()
		h(w, r)
	}
}

// deadlineChunk is the cycle granularity at which a long simulation
// checks its request deadline: small enough that a deadline lands within
// ~a millisecond of wall time, large enough that the check is free.
const deadlineChunk = 200_000

// runMachine advances m by up to n cycles, honoring the request
// context's deadline, and books the time into simNs. Without a deadline
// it is one plain run; with one, the run proceeds in deadlineChunk
// slices so a runaway program cannot hold its admission slot past the
// deadline. The machine keeps whatever state it reached either way —
// for a session that state is real and the typed deadline_exceeded
// error tells the client so.
func (s *Server) runMachine(ctx context.Context, m *sim.Machine, n uint64) (uint64, *api.Error) {
	sstart := time.Now()
	defer func() { s.simNs.Add(uint64(time.Since(sstart))) }()
	if ctx.Done() == nil {
		return m.Run(n), nil
	}
	var total uint64
	for total < n {
		if ctx.Err() != nil {
			s.deadlineHits.Add(1)
			return total, api.Errorf(api.CodeDeadlineExceeded,
				"request deadline exceeded after %d of %d cycles (state reached is kept)", total, n)
		}
		chunk := n - total
		if chunk > deadlineChunk {
			chunk = deadlineChunk
		}
		ran := m.Run(chunk)
		total += ran
		if m.Halted() || m.Paused() || ran < chunk {
			break
		}
	}
	return total, nil
}

// writeError emits the error envelope outside wrap (streaming paths).
func (s *Server) writeError(w http.ResponseWriter, ae *api.Error) {
	w.Header().Set("Content-Type", api.MediaTypeJSON)
	w.WriteHeader(statusForCode(ae.Code))
	json.NewEncoder(w).Encode(&api.ErrorEnvelope{Err: *ae})
}

// decode reads a request body through the codec, enforcing MaxBodyBytes,
// with instrumentation.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) *api.Error {
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	jstart := time.Now()
	err := api.PooledCodec.Decode(body, into)
	s.jsonNs.Add(uint64(time.Since(jstart)))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return api.Errorf(api.CodeBodyTooLarge, "request body exceeds %d bytes", s.opts.MaxBodyBytes)
		}
		return api.Errorf(api.CodeBadJSON, "bad JSON request: %v", err)
	}
	return nil
}

// buildMachine is the handlers' build step: BuildMachine through the
// server's Program cache.
func (s *Server) buildMachine(req *api.SimulateRequest) (*sim.Machine, *api.Error) {
	return buildMachine(s.programs, req)
}

// BuildMachine constructs a machine from request fields, attaching the
// stable error code of whichever stage failed. A request carrying a
// checkpoint restores from it (forking the snapshot) instead of building
// from source; memory fills still apply afterwards. Exported so the
// CLI's in-process paths (checkpoint save, memory dumps) build machines
// with exactly the server's semantics; it caches nothing.
func BuildMachine(req *api.SimulateRequest) (*sim.Machine, *api.Error) {
	return buildMachine(nil, req)
}

// buildMachine resolves the request's source (or its checkpoint's) to a
// compiled Program through programs and instantiates it.
func buildMachine(programs *programCache, req *api.SimulateRequest) (*sim.Machine, *api.Error) {
	var m *sim.Machine
	if len(req.Checkpoint) > 0 {
		var err error
		m, err = sim.RestoreWith(bytes.NewReader(req.Checkpoint), programs.assemble)
		if err != nil {
			return nil, api.CheckpointError(err)
		}
	} else {
		cfg, aerr := resolveConfig(req.Preset, req.Config)
		if aerr != nil {
			return nil, aerr
		}
		var p *sim.Program
		var err error
		entry := req.Entry
		if strings.EqualFold(req.Language, "c") {
			// Compiled programs start at the first instruction.
			p, err = programs.compileC(req.Code, req.Optimize, cfg.Memory)
			entry = ""
		} else {
			p, err = programs.assemble(req.Code, cfg.Memory)
		}
		if err == nil {
			m, err = p.NewMachine(cfg, entry)
		}
		if err != nil {
			return nil, api.WrapError(api.CodeBuildFailed, err)
		}
	}
	// The request's verbosity wins over whatever flag a snapshot
	// serialized. Fills write the machine's own memory, never the Program.
	m.SetVerboseLog(req.Verbose)
	for _, f := range req.MemFills {
		if err := ApplyMemFill(m, f); err != nil {
			return nil, api.WrapError(api.CodeMemFill, err)
		}
	}
	return m, nil
}

// ApplyMemFill writes array contents by label (the Memory Settings
// windows fills). Exported so the CLIs in-process checkpoint path
// applies the same semantics as the server.
func ApplyMemFill(m *sim.Machine, f api.MemFill) error {
	addr, size, ok := m.LookupLabel(f.Label)
	if !ok {
		return fmt.Errorf("memory fill: no allocation labelled %q", f.Label)
	}
	es := f.ElemSize
	if es == 0 {
		es = 4
	}
	if es != 1 && es != 2 && es != 4 && es != 8 {
		return fmt.Errorf("memory fill: bad element size %d", es)
	}
	values := f.Values
	switch {
	case f.Repeat > 0:
		v := int64(0)
		if len(values) > 0 {
			v = values[0]
		}
		values = make([]int64, f.Repeat)
		for i := range values {
			values[i] = v
		}
	case f.Random > 0:
		// Deterministic xorshift so batch runs are reproducible.
		seed := uint64(f.Seed)
		if seed == 0 {
			seed = 0x9E3779B97F4A7C15
		}
		values = make([]int64, f.Random)
		for i := range values {
			seed ^= seed << 13
			seed ^= seed >> 7
			seed ^= seed << 17
			values[i] = int64(int32(seed))
		}
	}
	if len(values)*es > size {
		return fmt.Errorf("memory fill: %d bytes exceed allocation %q of %d bytes",
			len(values)*es, f.Label, size)
	}
	buf := make([]byte, len(values)*es)
	for i, v := range values {
		for b := 0; b < es; b++ {
			buf[i*es+b] = byte(uint64(v) >> (8 * b))
		}
	}
	return m.WriteMemory(addr, buf)
}

// maxBatchCycles bounds batch simulations.
const maxBatchCycles = 50_000_000

// TraceRing builds the bounded collector a request's trace options
// describe. Exported so the CLI's in-process paths (checkpoint save,
// memory dumps) trace with exactly the server's semantics.
func TraceRing(opts *api.TraceOptions) (*sim.TraceRing, *api.Error) {
	f, err := sim.ParseTraceFilter(opts.Stages, opts.PCRange)
	if err != nil {
		return nil, api.WrapError(api.CodeBadTrace, err)
	}
	limit := opts.Limit
	if limit == 0 {
		limit = api.DefaultTraceLimit
	}
	if limit < 0 || limit > api.MaxTraceLimit {
		return nil, api.Errorf(api.CodeBadTrace, "trace limit %d out of range (1..%d)", limit, api.MaxTraceLimit)
	}
	return sim.NewTraceRing(limit, f), nil
}

// TraceResultOf packages a collector's contents for the v1 envelope.
// Exported alongside TraceRing so the CLI's in-process paths produce
// responses identical to the server's.
func TraceResultOf(ring *sim.TraceRing) *api.TraceResult {
	return &api.TraceResult{Events: ring.Events(), Total: ring.Total(), Dropped: ring.Dropped()}
}

// runSimulate executes one SimulateRequest start-to-finish: the shared
// core of /api/v1/simulate and each /api/v1/batch entry.
func (s *Server) runSimulate(ctx context.Context, req *api.SimulateRequest) (*api.SimulateResponse, *api.Error) {
	if req.Parallelism >= 2 {
		return s.runSimulateParallel(req)
	}
	m, aerr := s.buildMachine(req)
	if aerr != nil {
		return nil, aerr
	}
	var ring *sim.TraceRing
	if req.Trace != nil {
		if ring, aerr = TraceRing(req.Trace); aerr != nil {
			return nil, aerr
		}
		m.SetTracer(ring)
	}
	if req.FastForward {
		m.SetEngineMode(sim.EngineFastForward)
	}
	steps := req.Steps
	if steps == 0 || steps > maxBatchCycles {
		steps = maxBatchCycles
	}
	if _, aerr := s.runMachine(ctx, m, steps); aerr != nil {
		return nil, aerr
	}
	resp := &api.SimulateResponse{
		Halted:     m.Halted(),
		HaltReason: m.HaltReason(),
		Cycles:     m.Cycle(),
		Stats:      m.Report(),
	}
	if req.IncludeState {
		resp.State = m.State(req.IncludeLog)
	} else if req.IncludeLog {
		resp.Log = m.Log()
	}
	if ring != nil {
		resp.Trace = TraceResultOf(ring)
	}
	return resp, nil
}

// runSimulateParallel is the Parallelism >= 2 leg of runSimulate: a
// time-parallel detailed run (docs/parallel.md) with a stitched report.
// The final architectural state — and therefore State — is bit-exact
// versus serial; Stats carries the merged per-interval deltas.
func (s *Server) runSimulateParallel(req *api.SimulateRequest) (*api.SimulateResponse, *api.Error) {
	switch {
	case req.FastForward:
		return nil, api.Errorf(api.CodeBadRequest, "parallelism and fastForward are mutually exclusive")
	case req.Trace != nil:
		return nil, api.Errorf(api.CodeBadRequest, "parallelism does not support pipeline tracing")
	case len(req.Checkpoint) != 0:
		return nil, api.Errorf(api.CodeBadRequest, "parallelism requires a from-zero run, not a checkpoint restore")
	}
	m, aerr := s.buildMachine(req)
	if aerr != nil {
		return nil, aerr
	}
	k := req.Parallelism
	if k > api.MaxParallelism {
		k = api.MaxParallelism
	}
	steps := req.Steps
	if steps == 0 || steps > maxBatchCycles {
		steps = maxBatchCycles
	}
	sstart := time.Now()
	res, err := m.RunParallel(k, sim.ParallelOptions{
		WarmupInstructions: req.WarmupCycles,
		MaxCycles:          steps,
	})
	s.simNs.Add(uint64(time.Since(sstart)))
	if err != nil {
		// The program did not terminate within the budget, or the machine
		// was not runnable time-parallel — a property of this request, not
		// a server fault.
		return nil, api.WrapError(api.CodeUnprocessable, err)
	}
	resp := &api.SimulateResponse{
		Halted:     m.Halted(),
		HaltReason: m.HaltReason(),
		Cycles:     res.Report.Cycles,
		Stats:      res.Report,
		Parallel: &api.ParallelInfo{
			Workers:   res.Workers,
			Healed:    res.Healed,
			Intervals: res.Intervals,
		},
	}
	if req.IncludeState {
		resp.State = m.State(req.IncludeLog)
	} else if req.IncludeLog {
		resp.Log = m.Log()
	}
	return resp, nil
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) (any, int, error) {
	var req api.SimulateRequest
	if aerr := s.decode(w, r, &req); aerr != nil {
		return nil, 0, aerr
	}
	resp, aerr := s.runSimulate(r.Context(), &req)
	if aerr != nil {
		return nil, 0, aerr
	}
	return resp, 0, nil
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) (any, int, error) {
	var req api.CompileRequest
	if aerr := s.decode(w, r, &req); aerr != nil {
		return nil, 0, aerr
	}
	res, err := sim.CompileC(req.Code, req.Optimize)
	if err != nil {
		// Compiler diagnostics are data, not transport errors.
		return &api.CompileResponse{Errors: err.Error()}, http.StatusOK, nil
	}
	out := res.Assembly
	if req.Filter {
		out = sim.FilterAssembly(out)
	}
	return &api.CompileResponse{Assembly: out, LineMap: res.LineMap}, 0, nil
}

func (s *Server) handleParseAsm(w http.ResponseWriter, r *http.Request) (any, int, error) {
	var req api.ParseAsmRequest
	if aerr := s.decode(w, r, &req); aerr != nil {
		return nil, 0, aerr
	}
	// Assembling is all "does it parse" needs, and through the cache the
	// simulate that usually follows finds the Program already built.
	if _, err := s.programs.assemble(req.Code, sim.DefaultMemoryConfig()); err != nil {
		return &api.ParseAsmResponse{OK: false, Errors: err.Error()}, 0, nil
	}
	return &api.ParseAsmResponse{OK: true}, 0, nil
}

// handleCheckConfig validates an architecture document. The body is the
// raw configuration JSON; it flows through the codec layer like every
// other request, so its parse time lands in the jsonNs metric and
// MaxBodyBytes applies.
func (s *Server) handleCheckConfig(w http.ResponseWriter, r *http.Request) (any, int, error) {
	var raw json.RawMessage
	if aerr := s.decode(w, r, &raw); aerr != nil {
		if aerr.Code == api.CodeBodyTooLarge {
			return nil, 0, aerr
		}
		// Config syntax problems are diagnostics, not transport errors.
		return &api.ParseAsmResponse{OK: false, Errors: aerr.Message}, 0, nil
	}
	if _, err := sim.ImportConfig(raw); err != nil {
		return &api.ParseAsmResponse{OK: false, Errors: err.Error()}, 0, nil
	}
	return &api.ParseAsmResponse{OK: true}, 0, nil
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) (any, int, error) {
	return sim.DefaultConfig(), 0, nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) (any, int, error) {
	return s.Metrics(), 0, nil
}

// handleInstructionDescriptions serves the instruction set in the paper's
// JSON configuration format (Listing 1) — the document users extend to add
// custom instructions.
func (s *Server) handleInstructionDescriptions(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	data, err := isa.RV32IMF().MarshalJSON()
	s.jsonNs.Add(uint64(time.Since(start)))
	if err != nil {
		http.Error(w, `{"error":{"code":"internal","message":"encoding instruction set failed"}}`,
			http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", api.MediaTypeJSON)
	w.Write(data)
	s.reqCount.Add(1)
	s.totalNs.Add(uint64(time.Since(start)))
}
