package server

import (
	"net/http"
	"time"

	"riscvsim/internal/api"
)

const (
	// defaultStepBurst is how many cycles advance between stream events
	// when the request doesn't say.
	defaultStepBurst = 32
	// defaultMaxStreamEvents caps intermediate events so burst=1 on a
	// long program cannot produce an unbounded response.
	defaultMaxStreamEvents = 10_000
)

// writeLine sends v as one NDJSON line (the codec ends every document
// with a newline), booking the encode time; flush pushes it to the client
// now. It reports false when encoding or the connection failed.
func (s *Server) writeLine(w http.ResponseWriter, v any, flush bool) bool {
	buf := api.GetBuffer()
	defer api.PutBuffer(buf)
	jstart := time.Now()
	err := api.PooledCodec.Encode(buf, v)
	s.jsonNs.Add(uint64(time.Since(jstart)))
	if err != nil {
		return false
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		return false
	}
	if f, ok := w.(http.Flusher); flush && ok {
		f.Flush()
	}
	s.streamEvents.Add(1)
	return true
}

// handleSessionStream is the NDJSON streaming endpoint: it builds a
// machine, then pushes one StreamEvent per step burst — interactive
// clients watch the run instead of polling /session/step. Each line is
// flushed through the gzip middleware (which implements http.Flusher
// passthrough) so events arrive as they happen.
func (s *Server) handleSessionStream(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() {
		s.reqCount.Add(1)
		s.totalNs.Add(uint64(time.Since(start)))
	}()

	var req api.StreamRequest
	if aerr := s.decode(w, r, &req); aerr != nil {
		s.writeError(w, aerr)
		return
	}
	m, aerr := s.buildMachine(&req.SimulateRequest)
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}

	burst := req.StepBurst
	if burst == 0 {
		burst = defaultStepBurst
	}
	limit := req.Steps
	if limit == 0 || limit > maxBatchCycles {
		limit = maxBatchCycles
	}
	maxEvents := req.MaxEvents
	if maxEvents <= 0 || maxEvents > defaultMaxStreamEvents {
		maxEvents = defaultMaxStreamEvents
	}

	w.Header().Set("Content-Type", api.MediaTypeNDJSON)
	// Front proxies must not buffer the stream (nginx honours this).
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	ctx := r.Context()
	seq := 0
	var stepped uint64
	for !m.Halted() && stepped < limit {
		if ctx.Err() != nil {
			return // client went away
		}
		n := burst
		if remaining := limit - stepped; n > remaining {
			n = remaining
		}
		if seq >= maxEvents-1 {
			// Event cap: finish the run without intermediate events.
			sstart := time.Now()
			stepped += m.Run(limit - stepped)
			s.simNs.Add(uint64(time.Since(sstart)))
			break
		}
		sstart := time.Now()
		ran := m.StepN(n)
		s.simNs.Add(uint64(time.Since(sstart)))
		stepped += ran
		if ran == 0 && !m.Halted() {
			break // paused (breakpoint); don't spin
		}
		ev := &api.StreamEvent{Seq: seq, Cycle: m.Cycle(), Halted: m.Halted()}
		if req.IncludeState {
			ev.State = m.State(false)
		}
		if !s.writeLine(w, ev, true) {
			return
		}
		seq++
	}

	final := &api.StreamEvent{
		Seq:        seq,
		Cycle:      m.Cycle(),
		Halted:     m.Halted(),
		HaltReason: m.HaltReason(),
		Done:       true,
		Stats:      m.Report(),
	}
	if req.IncludeState {
		final.State = m.State(req.IncludeLog)
	}
	s.writeLine(w, final, true)
}
