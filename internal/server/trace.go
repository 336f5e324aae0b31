package server

import (
	"cmp"
	"net/http"
	"strconv"

	"riscvsim/internal/api"
	"riscvsim/internal/trace"
	"riscvsim/sim"
)

const (
	// defaultTraceBurst is how many cycles run between NDJSON flushes
	// when a trace-stream request doesn't say.
	defaultTraceBurst = 256
	// defaultTraceStreamEvents caps streamed trace events by default;
	// requests may raise it up to api.MaxTraceStreamEvents.
	defaultTraceStreamEvents = 100_000
)

// burstTracer buffers filter-matching events between stream flushes.
// keep bounds the buffer so one huge step burst cannot hold an entire
// run's events in memory; past it the tracer keeps counting (Total in
// the final summary stays exact) but stops buffering.
type burstTracer struct {
	filter trace.Filter
	keep   int
	buf    []sim.StageEvent
	total  uint64
}

// Filter implements trace.Filterer, so the core skips building events
// for stages the stream filtered out.
func (t *burstTracer) Filter() trace.Filter { return t.filter }

// Trace implements trace.Tracer.
func (t *burstTracer) Trace(ev trace.StageEvent) {
	if !t.filter.Match(&ev) {
		return
	}
	t.total++
	if len(t.buf) < t.keep {
		t.buf = append(t.buf, ev)
	}
}

// handleSessionTrace is the NDJSON pipeline-trace endpoint
// (POST /api/v1/session/trace): it builds a machine — from source or a
// checkpoint — runs it, and pushes one TraceStreamEvent line per stage
// event passing the stage/PC filters, then a final summary line. The
// web client's pipeline view and the CLI's -trace remote mode consume it.
func (s *Server) handleSessionTrace(w http.ResponseWriter, r *http.Request, req *api.TraceStreamRequest) (any, *api.Error) {
	if aerr := runOnlyField("session/trace", &req.SimulateRequest, "trace"); aerr != nil {
		return nil, aerr
	}
	filter := trace.NoFilter
	maxEvents := req.MaxEvents
	if maxEvents <= 0 {
		maxEvents = defaultTraceStreamEvents
	}
	maxEvents = min(maxEvents, api.MaxTraceStreamEvents)
	if opts := req.Trace; opts != nil {
		var aerr *api.Error
		if filter, aerr = traceFilter(opts); aerr != nil {
			return nil, aerr
		}
		// The options object is shared with /simulate; on a stream its
		// limit caps the emitted events (combined with MaxEvents).
		if opts.Limit > 0 {
			maxEvents = min(maxEvents, opts.Limit)
		}
	}
	m, aerr := s.build(r.Context(), &req.SimulateRequest)
	if aerr != nil {
		return nil, aerr
	}
	// Buffer at most one event past the stream cap: enough to detect
	// truncation, bounded regardless of how large a burst the request
	// asked for.
	collector := &burstTracer{filter: filter, keep: maxEvents + 1}
	m.SetTracer(collector)
	seq, truncated := 0, false
	return s.streamBursts(w, r, m, cycleLimit(req.Steps), cmp.Or(req.StepBurst, defaultTraceBurst), burstEmitter{
		capped: func() bool { return truncated },
		burst: func(line func(v any) bool) bool {
			for i := range collector.buf {
				if seq >= maxEvents {
					// Event cap: the run finishes streaming nothing
					// further, but the collector stays attached in
					// count-only mode so the summary's Total stays exact.
					truncated = true
					collector.keep, collector.buf = 0, nil
					return true
				}
				if !line(&api.TraceStreamEvent{Seq: seq, Event: &collector.buf[i]}) {
					return false
				}
				seq++
			}
			collector.buf = collector.buf[:0]
			return true
		},
		final: func() any {
			return &api.TraceStreamEvent{
				Seq:        seq,
				Done:       true,
				Cycle:      m.Cycle(),
				Halted:     m.Halted(),
				HaltReason: m.HaltReason(),
				Truncated:  truncated,
				Total:      collector.total,
			}
		},
	})
}

// handleSessionLog serves a session's debug log with since_cycle paging
// (GET /api/v1/session/{id}/log?since_cycle=N): the log no longer has to
// piggyback on step responses. The log is bounded (newest entries kept),
// so a pager that falls behind the bound sees a gap rather than an error.
func (s *Server) handleSessionLog(_ http.ResponseWriter, r *http.Request) (any, *api.Error) {
	id := r.PathValue("id")
	var since uint64
	if q := r.URL.Query().Get("since_cycle"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			return nil, api.Errorf(api.CodeBadRequest, "bad since_cycle %q", q)
		}
		since = v
	}
	sess, aerr := s.lockSession(timerFrom(r.Context()), id)
	if aerr != nil {
		return nil, aerr
	}
	defer sess.mu.Unlock()
	defer timerFrom(r.Context()).begin(phaseReport).end()
	log := sess.machine.Log()
	// Entries are cycle-ordered; find the first at or past since.
	lo := 0
	for lo < len(log) && log[lo].Cycle < since {
		lo++
	}
	cycle := sess.machine.Cycle()
	resp := &api.SessionLogResponse{
		SessionID: id,
		Cycle:     cycle,
		Entries:   append([]sim.LogEntry(nil), log[lo:]...),
		// The log is complete through the current cycle, so paging
		// resumes right past it.
		NextCycle: cycle + 1,
	}
	return resp, nil
}
