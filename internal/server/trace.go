package server

import (
	"net/http"
	"strconv"
	"time"

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
func (s *Server) handleSessionTrace(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() {
		s.reqCount.Add(1)
		s.totalNs.Add(uint64(time.Since(start)))
	}()

	var req api.TraceStreamRequest
	if aerr := s.decode(w, r, &req); aerr != nil {
		s.writeError(w, aerr)
		return
	}
	filter := trace.NoFilter
	optLimit := 0
	if opts := req.Trace; opts != nil {
		f, err := sim.ParseTraceFilter(opts.Stages, opts.PCRange)
		if err != nil {
			s.writeError(w, api.WrapError(api.CodeBadTrace, err))
			return
		}
		filter = f
		// The options object is shared with /simulate, so its limit gets
		// the same validation; on a stream it caps the emitted events
		// (combined with MaxEvents below).
		if opts.Limit < 0 || opts.Limit > api.MaxTraceLimit {
			s.writeError(w, api.Errorf(api.CodeBadTrace,
				"trace limit %d out of range (1..%d)", opts.Limit, api.MaxTraceLimit))
			return
		}
		optLimit = opts.Limit
	}
	m, aerr := s.buildMachine(&req.SimulateRequest)
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}

	burst := req.StepBurst
	if burst == 0 {
		burst = defaultTraceBurst
	}
	limit := req.Steps
	if limit == 0 || limit > maxBatchCycles {
		limit = maxBatchCycles
	}
	maxEvents := req.MaxEvents
	if maxEvents <= 0 {
		maxEvents = defaultTraceStreamEvents
	}
	if maxEvents > api.MaxTraceStreamEvents {
		maxEvents = api.MaxTraceStreamEvents
	}
	if optLimit > 0 && optLimit < maxEvents {
		maxEvents = optLimit
	}

	// Buffer at most one event past the stream cap: enough to detect
	// truncation, bounded regardless of how large a burst the request
	// asked for.
	collector := &burstTracer{filter: filter, keep: maxEvents + 1}
	m.SetTracer(collector)

	w.Header().Set("Content-Type", api.MediaTypeNDJSON)
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	ctx := r.Context()
	seq := 0
	truncated := false
	var stepped uint64
	for !m.Halted() && stepped < limit {
		if ctx.Err() != nil {
			return // client went away
		}
		n := burst
		if remaining := limit - stepped; n > remaining {
			n = remaining
		}
		sstart := time.Now()
		ran := m.StepN(n)
		s.simNs.Add(uint64(time.Since(sstart)))
		stepped += ran
		for i := range collector.buf {
			if seq >= maxEvents {
				truncated = true
				break
			}
			if !s.writeLine(w, &api.TraceStreamEvent{Seq: seq, Event: &collector.buf[i]}, false) {
				return
			}
			seq++
		}
		collector.buf = collector.buf[:0]
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		if truncated {
			// Event cap: finish the run streaming nothing further, but
			// keep the collector attached in count-only mode so the
			// summary's Total stays exact.
			collector.keep = 0
			collector.buf = nil
			sstart := time.Now()
			stepped += m.Run(limit - stepped)
			s.simNs.Add(uint64(time.Since(sstart)))
			break
		}
		if ran == 0 && !m.Halted() {
			break // paused (breakpoint); don't spin
		}
	}

	s.writeLine(w, &api.TraceStreamEvent{
		Seq:        seq,
		Done:       true,
		Cycle:      m.Cycle(),
		Halted:     m.Halted(),
		HaltReason: m.HaltReason(),
		Truncated:  truncated,
		Total:      collector.total,
	}, true)
}

// handleSessionLog serves a session's debug log with since_cycle paging
// (GET /api/v1/session/{id}/log?since_cycle=N): the log no longer has to
// piggyback on step responses. The log is bounded (newest entries kept),
// so a pager that falls behind the bound sees a gap rather than an error.
func (s *Server) handleSessionLog(w http.ResponseWriter, r *http.Request) (any, int, error) {
	id := r.PathValue("id")
	var since uint64
	if q := r.URL.Query().Get("since_cycle"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			return nil, 0, api.Errorf(api.CodeBadRequest, "bad since_cycle %q", q)
		}
		since = v
	}
	sess, aerr := s.lockSession(id)
	if aerr != nil {
		return nil, 0, aerr
	}
	defer sess.mu.Unlock()
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
	return resp, 0, nil
}
