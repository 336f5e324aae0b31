// Package api defines the simulator's versioned wire contract (v1): the
// typed request/response documents served under /api/v1/, the
// machine-readable error envelope with stable codes, and the JSON codec
// whose cost the server measures (the paper profiles JSON handling at
// ~60% of request time, §IV-A).
//
// The package is imported by both the server and the client, so the two
// sides can never drift: the contract is these Go types. docs/api.md
// documents the HTTP surface for non-Go clients.
package api

import (
	"encoding/json"

	"riscvsim/internal/workload"
	"riscvsim/sim"
)

// V1Prefix is the path prefix of the versioned API.
const V1Prefix = "/api/v1"

// MemFill populates a labelled allocation before simulation, mirroring the
// Memory Settings window (user values, repeated constants or random
// values; paper §II-C).
type MemFill struct {
	Label    string  `json:"label"`
	Values   []int64 `json:"values,omitempty"`
	ElemSize int     `json:"elemSize,omitempty"` // 1, 2, 4 or 8; default 4
	Repeat   int     `json:"repeat,omitempty"`   // repeat Values[0] n times
	Random   int     `json:"random,omitempty"`   // n random values
	Seed     int64   `json:"seed,omitempty"`     // deterministic seed
}

// SimulateRequest runs a batch simulation.
type SimulateRequest struct {
	// Code is RISC-V assembly, or C when Language == "c".
	Code     string `json:"code"`
	Language string `json:"language,omitempty"`
	Optimize int    `json:"optimize,omitempty"`
	// Entry is the entry label ("" = first instruction / main for C).
	Entry string `json:"entry,omitempty"`
	// Preset selects a named architecture; Config overrides it with a
	// full architecture document.
	Preset string           `json:"preset,omitempty"`
	Config *json.RawMessage `json:"config,omitempty"`
	// Steps limits the simulation (0 = run to completion).
	Steps uint64 `json:"steps,omitempty"`
	// MemFills populate data arrays before the run.
	MemFills []MemFill `json:"memFills,omitempty"`
	// IncludeState requests the full processor snapshot.
	IncludeState bool `json:"includeState,omitempty"`
	// IncludeLog requests the debug log.
	IncludeLog bool `json:"includeLog,omitempty"`
	// Verbose enables per-event debug logging (commit and flush lines).
	// Off by default: the hot path then formats no log messages at all.
	Verbose bool `json:"verbose,omitempty"`
	// Checkpoint, when set, restores the machine from a binary snapshot
	// (base64 in JSON) instead of building it from Code/Preset/Config;
	// MemFills still apply afterwards, so sweeps can fork one warm
	// checkpoint into N variants.
	Checkpoint []byte `json:"checkpoint,omitempty"`
	// Trace, when set, attaches a bounded pipeline-trace collector for
	// the run and returns its contents in SimulateResponse.Trace. Works
	// for source builds and checkpoint restores alike.
	Trace *TraceOptions `json:"trace,omitempty"`
	// FastForward runs the program in the fast-forward functional mode:
	// fused basic-block execution of architectural state only, one
	// committed instruction per reported cycle, no pipeline timing. The
	// final architectural state (registers, memory, halt reason) is
	// identical to a detailed run; timing statistics are not meaningful.
	FastForward bool `json:"fastForward,omitempty"`
	// Parallelism, when >= 2, runs the simulation time-parallel
	// (docs/parallel.md): the run is split into up to Parallelism
	// committed-instruction intervals, each warmed speculatively via
	// fast-forward and simulated in detailed mode concurrently, with
	// speculation verified at every boundary. The final architectural
	// state is bit-exact versus a serial run; timing statistics are
	// stitched per-interval deltas whose accuracy is bounded by the
	// warm-up length. Requires a terminating program (Steps still bounds
	// the run) and a from-source build; mutually exclusive with
	// FastForward, Trace and Checkpoint.
	Parallelism int `json:"parallelism,omitempty"`
	// WarmupCycles is the per-interval detailed warm-up length, in
	// committed instructions, whose metrics are discarded before interval
	// measurement begins (0 selects the default; only meaningful with
	// Parallelism >= 2).
	WarmupCycles uint64 `json:"warmupCycles,omitempty"`
}

// MaxParallelism caps SimulateRequest.Parallelism server-side: each
// worker holds a full dynamic-state fork, so the knob is clamped rather
// than trusted.
const MaxParallelism = 32

// ParallelInfo reports how a time-parallel run was split and verified.
type ParallelInfo struct {
	// Workers is the number of intervals actually simulated (the
	// requested parallelism shrinks on short runs, down to 1 = serial).
	Workers int `json:"workers"`
	// Healed counts intervals whose speculative start state was refuted
	// at verification and that were re-run from the exact state.
	Healed int `json:"healed"`
	// Intervals describes each interval's committed-instruction range.
	Intervals []sim.IntervalResult `json:"intervals,omitempty"`
}

// TraceOptions configures pipeline tracing for a run (docs/trace.md).
type TraceOptions struct {
	// Stages filters by stage name, comma-separated ("fetch,commit");
	// "" and "all" keep every stage.
	Stages string `json:"stages,omitempty"`
	// PCRange filters by code index, "lo:hi" inclusive; either side may
	// be empty.
	PCRange string `json:"pcRange,omitempty"`
	// Limit bounds the buffered events (default 4096, max 65536); the
	// collector keeps the newest events and counts the dropped ones.
	Limit int `json:"limit,omitempty"`
}

// Trace limits: the default and maximum ring capacity a request may ask
// for, and the ceiling on streamed events.
const (
	DefaultTraceLimit    = 4096
	MaxTraceLimit        = 65536
	MaxTraceStreamEvents = 1_000_000
)

// TraceResult carries the collected ring buffer back in the v1 envelope.
type TraceResult struct {
	// Events are the newest matching events, oldest first.
	Events []sim.StageEvent `json:"events"`
	// Total counts every event that matched the filter during the run.
	Total uint64 `json:"total"`
	// Dropped counts matching events evicted by the Limit bound.
	Dropped uint64 `json:"dropped"`
}

// SimulateResponse carries results.
type SimulateResponse struct {
	Halted     bool           `json:"halted"`
	HaltReason string         `json:"haltReason,omitempty"`
	Cycles     uint64         `json:"cycles"`
	Stats      *sim.Report    `json:"stats"`
	State      *sim.State     `json:"state,omitempty"`
	Log        []sim.LogEntry `json:"log,omitempty"`
	Trace      *TraceResult   `json:"trace,omitempty"`
	// Parallel describes how a Parallelism >= 2 run was split and
	// verified; nil on serial runs.
	Parallel *ParallelInfo `json:"parallel,omitempty"`
}

// CompileRequest compiles C to assembly.
type CompileRequest struct {
	Code     string `json:"code"`
	Optimize int    `json:"optimize"`
	Filter   bool   `json:"filter,omitempty"`
}

// CompileResponse mirrors the paper's compiler round trip: assembly plus a
// log of potential compiler errors (§III-C).
type CompileResponse struct {
	Assembly string `json:"assembly,omitempty"`
	LineMap  []int  `json:"lineMap,omitempty"`
	Errors   string `json:"errors,omitempty"`
}

// ParseAsmRequest validates assembly (editor squiggles).
type ParseAsmRequest struct {
	Code string `json:"code"`
}

// ParseAsmResponse lists diagnostics. It doubles as the /checkConfig
// response (same OK/diagnostics shape).
type ParseAsmResponse struct {
	OK     bool   `json:"ok"`
	Errors string `json:"errors,omitempty"`
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

// SessionNewRequest starts an interactive session (one web-client tab).
type SessionNewRequest struct {
	SimulateRequest
}

// SessionNewResponse returns the session handle and the initial state.
type SessionNewResponse struct {
	SessionID string     `json:"sessionId"`
	State     *sim.State `json:"state"`
}

// SessionStepRequest advances or rewinds a session. Negative steps rewind
// (the paper's backward simulation, available only interactively and
// intended for small programs, §III-B).
type SessionStepRequest struct {
	SessionID string `json:"sessionId"`
	Steps     int64  `json:"steps"`
	// IncludeLog attaches the debug log to the state.
	IncludeLog bool `json:"includeLog,omitempty"`
}

// SessionStateResponse returns the post-step state.
type SessionStateResponse struct {
	State *sim.State `json:"state"`
}

// SessionGotoRequest jumps to an absolute cycle (debug-log navigation:
// "clicking on the message number navigates the simulation to that
// specific cycle", paper §II-A).
type SessionGotoRequest struct {
	SessionID string `json:"sessionId"`
	Cycle     uint64 `json:"cycle"`
}

// SessionCloseRequest ends a session.
type SessionCloseRequest struct {
	SessionID string `json:"sessionId"`
}

// SessionCloseResponse acknowledges the close.
type SessionCloseResponse struct {
	Closed bool `json:"closed"`
}

// RenderResponse wraps the text schematic.
type RenderResponse struct {
	Schematic string `json:"schematic"`
}

// SessionCheckpointRequest snapshots a live session.
type SessionCheckpointRequest struct {
	SessionID string `json:"sessionId"`
}

// SessionCheckpointResponse carries the versioned binary snapshot
// (base64 in JSON). The document is self-contained: POSTing it back to
// /api/v1/session/restore — on this server or any other running a
// compatible format version — reproduces the machine exactly.
type SessionCheckpointResponse struct {
	SessionID  string `json:"sessionId"`
	Cycle      uint64 `json:"cycle"`
	Checkpoint []byte `json:"checkpoint"`
	// Durable reports whether this checkpoint is persisted in the
	// shared checkpoint store (write-through deployments): true means any
	// replica sharing the store can rehydrate the session from this
	// point, so a replica crash loses at most the work since this
	// response. False means the store write failed (or write-through is
	// off) and the caller's copy of Checkpoint is the only one — the
	// distributed tier's failover contract does NOT cover this
	// checkpoint. The chaos harness (docs/robustness.md) checks the
	// durability invariant against exactly this flag.
	Durable bool `json:"durable"`
}

// SessionRestoreRequest opens a new interactive session from a
// checkpoint. The response is a SessionNewResponse (fresh session ID,
// restored state).
type SessionRestoreRequest struct {
	Checkpoint []byte `json:"checkpoint"`
}

// ---------------------------------------------------------------------------
// Batch simulation (POST /api/v1/batch)
// ---------------------------------------------------------------------------

// BatchRequest carries N independent simulations to run in one round
// trip. The server fans them out across a bounded worker pool, which is
// how sweep workloads (issue widths, cache studies, load generation)
// exploit a multi-core host without N round trips.
type BatchRequest struct {
	Requests []SimulateRequest `json:"requests"`
	// BaseCheckpoint, when set, is the warm starting point for every
	// entry that carries no checkpoint of its own: the server forks each
	// simulation from this snapshot instead of replaying the warm-up
	// prefix from cycle zero.
	BaseCheckpoint []byte `json:"baseCheckpoint,omitempty"`
}

// BatchResult is the outcome of one batch entry. Exactly one of Response
// and Error is set; Index ties the result back to the request (results
// are returned in request order regardless of completion order).
type BatchResult struct {
	Index    int               `json:"index"`
	Response *SimulateResponse `json:"response,omitempty"`
	Error    *Error            `json:"error,omitempty"`
}

// BatchResponse carries all results plus fan-out accounting. Individual
// failures do not fail the batch: the HTTP status is 200 whenever the
// batch itself was well-formed.
type BatchResponse struct {
	Results   []BatchResult `json:"results"`
	Succeeded int           `json:"succeeded"`
	Failed    int           `json:"failed"`
	// Workers is the size of the worker pool that executed the batch.
	Workers int `json:"workers"`
	// WallNanos is the wall-clock time of the fan-out (all simulations,
	// not including request decode / response encode).
	WallNanos uint64 `json:"wallNanos"`
}

// ---------------------------------------------------------------------------
// Workload suite (POST /api/v1/suite)
// ---------------------------------------------------------------------------

// SuiteRequest runs the embedded workload corpus (internal/workload,
// docs/workloads.md) against one architecture and returns the typed
// per-workload metrics. The server fans the corpus out across the batch
// worker pool, so a full suite costs roughly one workload's wall time per
// core.
type SuiteRequest struct {
	// Preset selects a named architecture; Config overrides it with a
	// full architecture document (same precedence as SimulateRequest).
	Preset string           `json:"preset,omitempty"`
	Config *json.RawMessage `json:"config,omitempty"`
	// Filter selects a corpus subset: comma-separated terms, each
	// matching workload names by substring or tags exactly ("" = all).
	Filter string `json:"filter,omitempty"`
}

// SuiteResponse carries the metrics report plus fan-out accounting. The
// rows are in corpus order and — the core being deterministic — exactly
// reproducible: equal architecture and simulator version mean equal rows.
type SuiteResponse struct {
	workload.Report
	// Workers is the size of the pool that executed the suite.
	Workers int `json:"workers"`
	// WallNanos is the wall-clock time of the fan-out.
	WallNanos uint64 `json:"wallNanos"`
}

// ---------------------------------------------------------------------------
// Streaming sessions (POST /api/v1/session/stream)
// ---------------------------------------------------------------------------

// StreamRequest opens a one-shot streaming simulation: the server builds
// the machine, then pushes one NDJSON StreamEvent per step burst until
// the program halts or the cycle limit is reached. Interactive clients
// use it to watch a run without polling /session/step.
type StreamRequest struct {
	SimulateRequest
	// StepBurst is how many cycles to advance between events (default 32).
	StepBurst uint64 `json:"stepBurst,omitempty"`
	// MaxEvents caps the number of state events (default 10000); when
	// the cap is hit the remainder of the run completes without
	// intermediate events and only the final event follows.
	MaxEvents int `json:"maxEvents,omitempty"`
}

// StreamEvent is one NDJSON line of a streaming session. Events carry
// monotonically increasing Seq; the last event has Done == true and
// carries final Stats (or Error if the stream failed mid-run).
type StreamEvent struct {
	Seq        int         `json:"seq"`
	Cycle      uint64      `json:"cycle"`
	Halted     bool        `json:"halted"`
	HaltReason string      `json:"haltReason,omitempty"`
	Done       bool        `json:"done,omitempty"`
	State      *sim.State  `json:"state,omitempty"`
	Stats      *sim.Report `json:"stats,omitempty"`
	Error      *Error      `json:"error,omitempty"`
}

// ---------------------------------------------------------------------------
// Trace streaming (POST /api/v1/session/trace)
// ---------------------------------------------------------------------------

// TraceStreamRequest opens a one-shot streaming trace: the server builds
// the machine (from source or checkpoint), runs it, and pushes one NDJSON
// TraceStreamEvent per pipeline-stage event that passes the filters. The
// final line has Done == true and carries the run summary.
type TraceStreamRequest struct {
	SimulateRequest
	// StepBurst is how many cycles to simulate between flushes
	// (default 256). Events are batched per burst but every event is its
	// own NDJSON line.
	StepBurst uint64 `json:"stepBurst,omitempty"`
	// MaxEvents caps the streamed events (default 100000, ceiling
	// MaxTraceStreamEvents); past the cap the run completes untraced and
	// the final summary reports Truncated.
	MaxEvents int `json:"maxEvents,omitempty"`
}

// TraceStreamEvent is one NDJSON line of a trace stream: either one stage
// event, or (with Done set) the final summary.
type TraceStreamEvent struct {
	Seq   int             `json:"seq"`
	Event *sim.StageEvent `json:"event,omitempty"`
	// Summary fields, set on the final line.
	Done       bool   `json:"done,omitempty"`
	Cycle      uint64 `json:"cycle,omitempty"`
	Halted     bool   `json:"halted,omitempty"`
	HaltReason string `json:"haltReason,omitempty"`
	// Total counts the filter-matching events the run produced;
	// Truncated is set when MaxEvents stopped the stream early.
	Truncated bool   `json:"truncated,omitempty"`
	Total     uint64 `json:"total,omitempty"`
	Error     *Error `json:"error,omitempty"`
}

// ---------------------------------------------------------------------------
// Session debug log (GET /api/v1/session/{id}/log)
// ---------------------------------------------------------------------------

// SessionLogResponse pages through a session's debug log. The log is
// bounded (config.CPU maxLogEntries, default 4096, newest entries kept),
// so a pager that falls too far behind observes a gap — Dropped entries
// older than the returned window are gone.
type SessionLogResponse struct {
	SessionID string         `json:"sessionId"`
	Cycle     uint64         `json:"cycle"`
	Entries   []sim.LogEntry `json:"log"`
	// NextCycle is the since_cycle value that continues paging after
	// this window (one past the newest returned entry's cycle).
	NextCycle uint64 `json:"nextCycle"`
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

// Metrics aggregates the server's self-instrumentation.
type Metrics struct {
	Requests   uint64 `json:"requests"`
	TotalNanos uint64 `json:"totalHandlingNanos"`
	// JSONNanos, SimNanos and JSONShare are derived from PhaseNanos:
	// decode + encode, simulate, and JSONNanos / TotalNanos.
	JSONNanos uint64  `json:"jsonNanos"`
	SimNanos  uint64  `json:"simulationNanos"`
	JSONShare float64 `json:"jsonShare"`
	// PhaseNanos is the request ledger: the host time of all counted
	// requests by the phase of the request path it was spent in — queue
	// (waiting for an admission slot), decode, build (compile, assemble,
	// instantiate), simulate (work on a built machine: runs, rewinds,
	// session checkpoint and restore, rendering), report (building reply
	// documents from machines) and encode; docs/api.md has the table. A
	// moment belongs to at most one phase, so the values sum to no more
	// than TotalNanos. The workers of a batch or suite run side by side:
	// what enters is the mean of their time in each phase, not the sum.
	PhaseNanos     map[string]uint64 `json:"phaseNanos"`
	ActiveSessions int               `json:"activeSessions"`
	// BatchRequests counts /api/v1/batch calls; BatchSimulations counts
	// the simulations fanned out by them.
	BatchRequests    uint64 `json:"batchRequests"`
	BatchSimulations uint64 `json:"batchSimulations"`
	// SuiteRequests counts /api/v1/suite calls; SuiteWorkloads counts
	// the corpus workloads they executed.
	SuiteRequests  uint64 `json:"suiteRequests"`
	SuiteWorkloads uint64 `json:"suiteWorkloads"`
	// StreamEvents counts NDJSON events pushed by /api/v1/session/stream.
	StreamEvents uint64 `json:"streamEvents"`
	// Session lifecycle accounting: sessions_spilled counts sessions
	// serialized to disk on LRU/TTL eviction, sessions_rehydrated counts
	// spilled sessions transparently restored on their next touch, and
	// sessions_lost counts sessions evicted with spilling unavailable
	// (no spill directory, or the spill failed).
	SessionsSpilled    uint64 `json:"sessions_spilled"`
	SessionsRehydrated uint64 `json:"sessions_rehydrated"`
	SessionsLost       uint64 `json:"sessions_lost"`
	// Overload-protection accounting (docs/robustness.md). InFlight is
	// the current number of admitted simulation-bearing requests;
	// Shed counts requests rejected with over_capacity; DeadlineExceeded
	// counts requests that ran out of their per-request deadline.
	InFlight         int64  `json:"inFlight"`
	Shed             uint64 `json:"shed"`
	DeadlineExceeded uint64 `json:"deadlineExceeded"`
	// Program-cache accounting (docs/architecture.md): lookups of a
	// source text that found its compiled Program, lookups that had to
	// build it (a C request that misses looks up twice, the C text and
	// the assembly it compiles to), Programs dropped to stay within the
	// byte budget, and what the cache holds now. ReplyHits counts the
	// /simulate requests answered from a reply memoized on their
	// Program's entry; each is also one of the hits, and the memoized
	// replies count in the bytes.
	ProgramCacheHits      uint64 `json:"programCacheHits"`
	ProgramCacheReplyHits uint64 `json:"programCacheReplyHits"`
	ProgramCacheMisses    uint64 `json:"programCacheMisses"`
	ProgramCacheEvictions uint64 `json:"programCacheEvictions"`
	ProgramCacheEntries   int    `json:"programCacheEntries"`
	ProgramCacheBytes     int    `json:"programCacheBytes"`
}
