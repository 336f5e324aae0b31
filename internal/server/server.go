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
// Every route runs through one request path (docs/architecture.md): the
// adapter (mount) starts a request-scoped phase timer, passes the
// admission valve, calls the handler — decode, build, run loop
// (runMachine), report — and encodes the reply. The timer (phase.go) is
// how the server instruments its own request handling: it attributes each
// request's host time to the phase it was spent in, which yields the share
// of time spent encoding/decoding JSON versus total handling time that
// the paper profiles at "about 60% of the request handling time" (§IV-A);
// see /api/v1/metrics and the E2 bench.
package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strings"
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
	// Store, when set, enables transparent session spill: a session
	// evicted by LRU pressure or the idle TTL is checkpointed into this
	// backend (internal/store) and rehydrated on its next touch —
	// including after a server restart, for a backend that outlives the
	// process such as store.Dir — and the distributed tier shares one
	// store across replicas. Nil disables spilling; evictions then lose
	// sessions (counted in the sessions_lost metric).
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

	// ctr is the server's own instrumentation (phase.go).
	ctr counters
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
	maxQueue := opts.MaxQueue
	if maxQueue == 0 {
		maxQueue = 2 * opts.MaxInFlight
	}
	s := &Server{
		opts:     opts,
		mux:      http.NewServeMux(),
		store:    newSessionStore(opts.MaxSessions, ttl, opts.Store, spillTTL, opts.WriteThrough, debugf),
		adm:      newAdmission(opts.MaxInFlight, maxQueue, opts.QueueTimeout),
		programs: newProgramCache(programCacheBudget),
	}
	s.store.programs = s.programs
	s.routes()
	return s
}

// admitMode says how a route passes the admission valve.
type admitMode int

const (
	// unadmitted routes are cheap metadata (schema, metrics, parse/check,
	// render, log paging): they bypass the valve so an overloaded node
	// stays observable and debuggable.
	unadmitted admitMode = iota
	// admitted routes bear simulation work: they hold an in-flight slot
	// for their whole handler and get the per-request deadline — unless
	// the route streams (api.Route.Stream): a stream holds its slot for
	// its whole life but paces itself and ends on client disconnect.
	admitted
)

// route is the server's half of one api.Routes row.
type route struct {
	admit   admitMode
	handler handlerFunc
}

// routes mounts the versioned API: every row of api.Routes gets its
// handler, keyed by the row's path. A row without a handler or a handler
// without a row is a programming error caught at construction, so the URL
// space the router places requests from is the one the server serves.
func (s *Server) routes() {
	impl := map[string]route{
		"/simulate":                {admitted, decoded(s, s.handleSimulate)},
		"/batch":                   {admitted, decoded(s, s.handleBatch)},
		"/suite":                   {admitted, decoded(s, s.handleSuite)},
		"/compile":                 {unadmitted, decoded(s, s.handleCompile)},
		"/parseAsm":                {unadmitted, decoded(s, s.handleParseAsm)},
		"/checkConfig":             {unadmitted, s.handleCheckConfig},
		"/schema":                  {unadmitted, s.handleSchema},
		"/instructionDescriptions": {unadmitted, s.handleInstructionDescriptions},
		"/metrics":                 {unadmitted, s.handleMetrics},
		"/session/new":             {admitted, decoded(s, s.handleSessionNew)},
		"/session/restore":         {admitted, decoded(s, s.handleSessionRestore)},
		"/session/step":            {admitted, decoded(s, s.handleSessionStep)},
		"/session/goto":            {admitted, decoded(s, s.handleSessionGoto)},
		"/session/checkpoint":      {admitted, decoded(s, s.handleSessionCheckpoint)},
		"/session/close":           {unadmitted, decoded(s, s.handleSessionClose)},
		"/session/render":          {unadmitted, s.handleSessionRender},
		"/session/{id}/log":        {unadmitted, s.handleSessionLog},
		"/session/stream":          {admitted, decoded(s, s.handleSessionStream)},
		"/session/trace":           {admitted, decoded(s, s.handleSessionTrace)},
	}
	for _, row := range api.Routes {
		rt, ok := impl[row.Path]
		if !ok {
			panic("server: api.Routes row without a handler: " + row.Pattern())
		}
		delete(impl, row.Path)
		s.mount(row, rt)
	}
	for path := range impl {
		panic("server: handler without an api.Routes row: " + path)
	}
	// The liveness probe is not a request: uncounted, untimed, unadmitted.
	s.mux.HandleFunc(http.MethodGet+" "+api.V1Prefix+"/health", s.handleHealth)
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

// Metrics returns the accumulated instrumentation. The three figures the
// paper's profile is read from are views of the phase ledger: JSON time is
// decode + encode, simulation time is the simulate phase.
func (s *Server) Metrics() api.Metrics {
	c := &s.ctr
	var ns [numPhases]uint64
	phases := make(map[string]uint64, numPhases)
	for p, name := range phaseNames {
		ns[p] = c[ctrPhaseNs+counter(p)].Load()
		phases[name] = ns[p]
	}
	m := api.Metrics{
		Requests:         c[ctrRequests].Load(),
		TotalNanos:       c[ctrTotalNs].Load(),
		JSONNanos:        ns[phaseDecode] + ns[phaseEncode],
		SimNanos:         ns[phaseSimulate],
		PhaseNanos:       phases,
		ActiveSessions:   s.store.Len(),
		BatchRequests:    c[ctrBatchReqs].Load(),
		BatchSimulations: c[ctrBatchSims].Load(),
		SuiteRequests:    c[ctrSuiteReqs].Load(),
		SuiteWorkloads:   c[ctrSuiteRuns].Load(),
		StreamEvents:     c[ctrStreamEvents].Load(),
		InFlight:         s.adm.inFlight.Load(),
		Shed:             s.adm.shed.Load(),
		DeadlineExceeded: c[ctrDeadlineHits].Load(),
	}
	m.SessionsSpilled, m.SessionsRehydrated, m.SessionsLost = s.store.Counters()
	pc := s.programs.stats()
	m.ProgramCacheHits, m.ProgramCacheMisses, m.ProgramCacheEvictions = pc.hits, pc.misses, pc.evictions
	m.ProgramCacheReplyHits = pc.replyHits
	m.ProgramCacheEntries, m.ProgramCacheBytes = pc.entries, pc.bytes
	if m.TotalNanos > 0 {
		m.JSONShare = float64(m.JSONNanos) / float64(m.TotalNanos)
	}
	return m
}

// ResetMetrics clears the counters (benchmark harness).
func (s *Server) ResetMetrics() {
	s.ctr.reset()
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
		api.CodeCheckpointVersion:
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

// handlerFunc handles a request and returns the response document to
// encode, or the error whose code picks the HTTP status. A handler that
// streamed its own reply (NDJSON) returns neither.
type handlerFunc func(w http.ResponseWriter, r *http.Request) (any, *api.Error)

// decoded is the decode step of the request path: it adapts a handler
// that takes its request document already parsed.
func decoded[T any](s *Server, h func(http.ResponseWriter, *http.Request, *T) (any, *api.Error)) handlerFunc {
	return func(w http.ResponseWriter, r *http.Request) (any, *api.Error) {
		var req T
		if aerr := s.decode(w, r, &req); aerr != nil {
			return nil, aerr
		}
		return h(w, r, &req)
	}
}

// encoded is a response its handler already serialized; reply writes it
// as it is.
type encoded []byte

// mount is the one adapter between the mux and a handler: it starts the
// request's phase timer and puts it in the request context, passes the
// admission valve, runs the handler, writes the reply in the uniform
// envelope, and books the request.
func (s *Server) mount(row api.Route, rt route) {
	s.mux.HandleFunc(row.Pattern(), func(w http.ResponseWriter, r *http.Request) {
		tm := startTimer()
		r = r.WithContext(withTimer(r.Context(), tm))
		resp, aerr := s.admit(row, rt, tm, w, r)
		s.reply(w, tm, resp, aerr)
		s.ctr.book(tm)
	})
}

// admit runs the route's handler behind the admission valve as its mode
// says. Shed requests return the typed over_capacity error before any
// decoding or simulation work happens.
func (s *Server) admit(row api.Route, rt route, tm *phaseTimer, w http.ResponseWriter, r *http.Request) (any, *api.Error) {
	if rt.admit == unadmitted {
		return rt.handler(w, r)
	}
	queued := tm.begin(phaseQueue)
	release, aerr := s.adm.acquire(r.Context())
	queued.end()
	if aerr != nil {
		return nil, aerr
	}
	defer release()
	if !row.Stream && s.opts.RequestTimeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	return rt.handler(w, r)
}

// reply writes a handler's result: the response document, or the error
// envelope with the status of its code.
func (s *Server) reply(w http.ResponseWriter, tm *phaseTimer, resp any, aerr *api.Error) {
	status := http.StatusOK
	switch {
	case aerr != nil:
		resp, status = &api.ErrorEnvelope{Err: *aerr}, statusForCode(aerr.Code)
		if aerr.Code == api.CodeOverCapacity || aerr.Code == api.CodeDeadlineExceeded {
			// Both are transient: tell retrying clients when.
			setRetryAfter(w)
		}
	case resp == nil:
		return // the handler streamed its reply
	}
	buf := api.GetBuffer()
	defer api.PutBuffer(buf)
	body, done := resp.(encoded)
	if !done {
		if err := encodeInto(tm, buf, resp); err != nil {
			status = http.StatusInternalServerError
			buf.Reset()
			buf.WriteString(`{"error":{"code":"internal","message":"response encoding failed"}}`)
		}
		body = buf.Bytes()
	}
	w.Header().Set("Content-Type", api.MediaTypeJSON)
	w.WriteHeader(status)
	w.Write(body)
}

// encodeInto serializes v into buf through the codec, booked to the
// encode phase.
func encodeInto(tm *phaseTimer, buf *bytes.Buffer, v any) error {
	defer tm.begin(phaseEncode).end()
	return api.PooledCodec.Encode(buf, v)
}

// deadlineChunk is the cycle granularity at which a long simulation
// checks its request deadline: small enough that a deadline lands within
// ~a millisecond of wall time, large enough that the check is free.
const deadlineChunk = 200_000

// runMachine is the server's one forward run loop: it advances m by up to
// n cycles, honoring the request context, and books the time to the
// simulate phase. Under a context that cannot end it is one plain run;
// otherwise the run proceeds in deadlineChunk slices, so a runaway
// program cannot hold its admission slot past the deadline or after its
// client has gone. The machine keeps whatever state it reached either way
// — for a session that state is real and the typed deadline_exceeded
// error tells the client so.
func (s *Server) runMachine(ctx context.Context, m *sim.Machine, n uint64) (uint64, *api.Error) {
	defer timerFrom(ctx).begin(phaseSimulate).end()
	if ctx.Done() == nil {
		return m.Run(n), nil
	}
	var total uint64
	for total < n {
		if err := ctx.Err(); err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				// The client went away; nobody is listening for the code.
				return total, api.Errorf(api.CodeInternal,
					"request canceled after %d of %d cycles", total, n)
			}
			s.ctr[ctrDeadlineHits].Add(1)
			return total, api.Errorf(api.CodeDeadlineExceeded,
				"request deadline exceeded after %d of %d cycles (state reached is kept)", total, n)
		}
		chunk := min(n-total, deadlineChunk)
		ran := m.Run(chunk)
		total += ran
		if m.Halted() || m.Paused() || ran < chunk {
			break
		}
	}
	return total, nil
}

// decode reads a request body through the codec, enforcing MaxBodyBytes,
// and books the decode phase.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) *api.Error {
	defer timerFrom(r.Context()).begin(phaseDecode).end()
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	if err := api.PooledCodec.Decode(body, into); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return api.Errorf(api.CodeBodyTooLarge, "request body exceeds %d bytes", s.opts.MaxBodyBytes)
		}
		return api.Errorf(api.CodeBadJSON, "bad JSON request: %v", err)
	}
	return nil
}

// build is the handlers' build step: buildMachine, booked to the build
// phase.
func (s *Server) build(ctx context.Context, req *api.SimulateRequest) (*sim.Machine, *api.Error) {
	defer timerFrom(ctx).begin(phaseBuild).end()
	return s.buildMachine(req)
}

// BuildMachine constructs a machine from request fields, attaching the
// stable error code of whichever stage failed. A request carrying a
// checkpoint restores from it (forking the snapshot) instead of building
// from source; memory fills still apply afterwards. Exported so reference
// machines (chaos, distsmoke, the benchmark) are built with exactly the
// server's semantics; it caches nothing.
func BuildMachine(req *api.SimulateRequest) (*sim.Machine, *api.Error) {
	return new(Server).buildMachine(req)
}

// buildMachine resolves the request's source (or its checkpoint's) to a
// compiled Program through the server's Program cache — a zero Server has
// none — and instantiates it.
func (s *Server) buildMachine(req *api.SimulateRequest) (*sim.Machine, *api.Error) {
	programs := s.programs
	var m *sim.Machine
	if len(req.Checkpoint) > 0 {
		var err error
		m, err = sim.RestoreWith(req.Checkpoint, programs.assemble)
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

// cycleLimit is the cycle budget of a run-to-completion request (simulate,
// batch entry, stream): what it asked for, at most maxBatchCycles.
func cycleLimit(steps uint64) uint64 {
	if steps == 0 || steps > maxBatchCycles {
		return maxBatchCycles
	}
	return steps
}

// traceFilter parses the filter of a request's trace options and
// validates their limit, for /simulate and the trace stream alike.
func traceFilter(opts *api.TraceOptions) (sim.TraceFilter, *api.Error) {
	f, err := sim.ParseTraceFilter(opts.Stages, opts.PCRange)
	if err != nil {
		return f, api.WrapError(api.CodeBadTrace, err)
	}
	if opts.Limit < 0 || opts.Limit > api.MaxTraceLimit {
		return f, api.Errorf(api.CodeBadTrace, "trace limit %d out of range (1..%d)", opts.Limit, api.MaxTraceLimit)
	}
	return f, nil
}

// Simulate executes one request outside any server, uncached, with
// exactly /api/v1/simulate's semantics, and also hands back the machine
// the run left behind: the CLI's one in-process path, whose -checkpoint
// and -dump read that machine.
func Simulate(req *api.SimulateRequest) (*sim.Machine, *api.SimulateResponse, *api.Error) {
	return new(Server).simulate(context.Background(), req)
}

// simulate builds the request's machine, runs it and reports. A zero
// Server serves: it builds uncached. Parallelism >= 2 makes the run
// time-parallel (docs/parallel.md) with a stitched report: the final
// architectural state — and therefore State — is bit-exact versus serial;
// Stats carries the merged per-interval deltas. It is the shared core of
// /api/v1/simulate and each /api/v1/batch entry.
func (s *Server) simulate(ctx context.Context, req *api.SimulateRequest) (*sim.Machine, *api.SimulateResponse, *api.Error) {
	parallel := req.Parallelism >= 2
	switch {
	case !parallel:
	case req.FastForward:
		return nil, nil, api.Errorf(api.CodeBadRequest, "parallelism and fastForward are mutually exclusive")
	case req.Trace != nil:
		return nil, nil, api.Errorf(api.CodeBadRequest, "parallelism does not support pipeline tracing")
	case len(req.Checkpoint) != 0:
		return nil, nil, api.Errorf(api.CodeBadRequest, "parallelism requires a from-zero run, not a checkpoint restore")
	}
	m, aerr := s.build(ctx, req)
	if aerr != nil {
		return nil, nil, aerr
	}
	var ring *sim.TraceRing
	if req.Trace != nil {
		f, aerr := traceFilter(req.Trace)
		if aerr != nil {
			return nil, nil, aerr
		}
		ring = sim.NewTraceRing(cmp.Or(req.Trace.Limit, api.DefaultTraceLimit), f)
		m.SetTracer(ring)
	}
	if req.FastForward {
		m.SetEngineMode(sim.EngineFastForward)
	}
	tm := timerFrom(ctx)
	var stitched *sim.ParallelResult
	if parallel {
		running := tm.begin(phaseSimulate)
		res, err := m.RunParallel(min(req.Parallelism, api.MaxParallelism), sim.ParallelOptions{
			WarmupInstructions: req.WarmupCycles,
			MaxCycles:          cycleLimit(req.Steps),
		})
		running.end()
		if err != nil {
			// The program did not terminate within the budget, or the machine
			// was not runnable time-parallel — a property of this request, not
			// a server fault.
			return nil, nil, api.WrapError(api.CodeUnprocessable, err)
		}
		stitched = res
	} else if _, aerr := s.runMachine(ctx, m, cycleLimit(req.Steps)); aerr != nil {
		return nil, nil, aerr
	}

	defer tm.begin(phaseReport).end()
	resp := &api.SimulateResponse{Halted: m.Halted(), HaltReason: m.HaltReason()}
	if stitched != nil {
		resp.Cycles, resp.Stats = stitched.Report.Cycles, stitched.Report
		resp.Parallel = &api.ParallelInfo{
			Workers:   stitched.Workers,
			Healed:    stitched.Healed,
			Intervals: stitched.Intervals,
		}
	} else {
		resp.Cycles, resp.Stats = m.Cycle(), m.Report()
	}
	if req.IncludeState {
		resp.State = m.State(req.IncludeLog)
	} else if req.IncludeLog {
		resp.Log = m.Log()
	}
	if ring != nil {
		resp.Trace = &api.TraceResult{Events: ring.Events(), Total: ring.Total(), Dropped: ring.Dropped()}
	}
	return m, resp, nil
}

// handleSimulate answers a request whose reply is memoized with the
// stored bytes, looked up before anything is built and booked to the
// build phase; any other runs, and the second time a request runs its
// encoded reply is stored (programs.go). Error replies, checkpoint
// restores and time-parallel runs are never stored: the first may be
// transient, the second would be keyed on a whole checkpoint, and no test
// holds the third's stitched report byte-identical run to run.
func (s *Server) handleSimulate(_ http.ResponseWriter, r *http.Request, req *api.SimulateRequest) (any, *api.Error) {
	ctx := r.Context()
	var key cacheKey
	store := false
	if len(req.Checkpoint) == 0 && req.Parallelism < 2 {
		looking := timerFrom(ctx).begin(phaseBuild)
		key = replyKeyOf(req)
		reply, again := s.programs.reply(key)
		looking.end()
		if reply != nil {
			return encoded(reply), nil
		}
		store = again
	}
	_, resp, aerr := s.simulate(ctx, req)
	if aerr != nil || !store {
		return resp, aerr
	}
	buf := api.GetBuffer()
	defer api.PutBuffer(buf)
	if err := encodeInto(timerFrom(ctx), buf, resp); err != nil {
		return resp, nil // reply encodes it again and answers the failure
	}
	body := bytes.Clone(buf.Bytes())
	s.programs.putReply(key, body)
	return encoded(body), nil
}

func (s *Server) handleCompile(_ http.ResponseWriter, r *http.Request, req *api.CompileRequest) (any, *api.Error) {
	defer timerFrom(r.Context()).begin(phaseBuild).end()
	res, err := sim.CompileC(req.Code, req.Optimize)
	if err != nil {
		// Compiler diagnostics are data, not transport errors.
		return &api.CompileResponse{Errors: err.Error()}, nil
	}
	out := res.Assembly
	if req.Filter {
		out = sim.FilterAssembly(out)
	}
	return &api.CompileResponse{Assembly: out, LineMap: res.LineMap}, nil
}

func (s *Server) handleParseAsm(_ http.ResponseWriter, r *http.Request, req *api.ParseAsmRequest) (any, *api.Error) {
	// Assembling is all "does it parse" needs, and through the cache the
	// simulate that usually follows finds the Program already built.
	defer timerFrom(r.Context()).begin(phaseBuild).end()
	if _, err := s.programs.assemble(req.Code, sim.DefaultMemoryConfig()); err != nil {
		return &api.ParseAsmResponse{OK: false, Errors: err.Error()}, nil
	}
	return &api.ParseAsmResponse{OK: true}, nil
}

// handleCheckConfig validates an architecture document. The body is the
// raw configuration JSON; it flows through the codec layer like every
// other request, so its parse time lands in the decode phase and
// MaxBodyBytes applies.
func (s *Server) handleCheckConfig(w http.ResponseWriter, r *http.Request) (any, *api.Error) {
	var raw json.RawMessage
	if aerr := s.decode(w, r, &raw); aerr != nil {
		if aerr.Code == api.CodeBodyTooLarge {
			return nil, aerr
		}
		// Config syntax problems are diagnostics, not transport errors.
		return &api.ParseAsmResponse{OK: false, Errors: aerr.Message}, nil
	}
	defer timerFrom(r.Context()).begin(phaseBuild).end()
	if _, err := sim.ImportConfig(raw); err != nil {
		return &api.ParseAsmResponse{OK: false, Errors: err.Error()}, nil
	}
	return &api.ParseAsmResponse{OK: true}, nil
}

func (s *Server) handleSchema(http.ResponseWriter, *http.Request) (any, *api.Error) {
	return sim.DefaultConfig(), nil
}

func (s *Server) handleMetrics(http.ResponseWriter, *http.Request) (any, *api.Error) {
	return s.Metrics(), nil
}

// handleInstructionDescriptions serves the instruction set in the paper's
// JSON configuration format (Listing 1) — the document users extend to add
// custom instructions. The set serializes itself, so the handler books the
// encode phase and hands reply the finished bytes.
func (s *Server) handleInstructionDescriptions(_ http.ResponseWriter, r *http.Request) (any, *api.Error) {
	defer timerFrom(r.Context()).begin(phaseEncode).end()
	data, err := isa.RV32IMF().MarshalJSON()
	if err != nil {
		return nil, api.Errorf(api.CodeInternal, "encoding instruction set failed")
	}
	return encoded(data), nil
}
