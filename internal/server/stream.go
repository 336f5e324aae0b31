package server

import (
	"cmp"
	"net/http"

	"riscvsim/internal/api"
	"riscvsim/sim"
)

const (
	// defaultStepBurst is how many cycles advance between stream events
	// when the request doesn't say.
	defaultStepBurst = 32
	// defaultMaxStreamEvents caps intermediate events so burst=1 on a
	// long program cannot produce an unbounded response.
	defaultMaxStreamEvents = 10_000
)

// burstEmitter is what an NDJSON endpoint makes of a run that streamBursts
// advances burst by burst: /session/stream emits the state after each
// burst, /session/trace the stage events each burst produced.
type burstEmitter struct {
	// capped reports that the endpoint's event cap is reached: the rest
	// of the run completes in one piece, with no lines before the final.
	capped func() bool
	// burst writes the lines of the burst that just ran (line reports
	// false when the connection failed, and so does burst).
	burst func(line func(v any) bool) bool
	// final builds the closing line.
	final func() any
}

// streamBursts is the NDJSON run loop: it advances m by burst cycles at a
// time, up to limit, lets em write each burst's lines, flushes them — the
// gzip middleware implements http.Flusher passthrough, so events arrive
// as they happen — and closes with em's final line. Once the client has
// gone it stops, mid-burst if need be (runMachine).
func (s *Server) streamBursts(w http.ResponseWriter, r *http.Request, m *sim.Machine, limit, burst uint64, em burstEmitter) (any, *api.Error) {
	w.Header().Set("Content-Type", api.MediaTypeNDJSON)
	// Front proxies must not buffer the stream (nginx honours this).
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	tm := timerFrom(r.Context())
	line := func(v any) bool {
		buf := api.GetBuffer()
		defer api.PutBuffer(buf)
		// The codec ends every document with the line's newline.
		if err := encodeInto(tm, buf, v); err != nil {
			return false
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return false
		}
		s.ctr[ctrStreamEvents].Add(1)
		return true
	}
	flusher := http.NewResponseController(w) // a writer that cannot flush is left to buffer

	var stepped uint64
	for !m.Halted() && stepped < limit {
		n := min(burst, limit-stepped)
		capped := em.capped()
		if capped {
			n = limit - stepped
		}
		ran, aerr := s.runMachine(r.Context(), m, n)
		if aerr != nil {
			return nil, nil // client went away
		}
		stepped += ran
		if capped {
			break
		}
		if !em.burst(line) {
			return nil, nil
		}
		flusher.Flush()
	}
	reporting := tm.begin(phaseReport)
	last := em.final()
	reporting.end()
	line(last)
	flusher.Flush()
	return nil, nil
}

// handleSessionStream is the NDJSON streaming endpoint: it builds a
// machine, then pushes one StreamEvent per step burst — interactive
// clients watch the run instead of polling /session/step.
func (s *Server) handleSessionStream(w http.ResponseWriter, r *http.Request, req *api.StreamRequest) (any, *api.Error) {
	if aerr := runOnlyField("session/stream", &req.SimulateRequest); aerr != nil {
		return nil, aerr
	}
	m, aerr := s.build(r.Context(), &req.SimulateRequest)
	if aerr != nil {
		return nil, aerr
	}
	maxEvents := req.MaxEvents
	if maxEvents <= 0 || maxEvents > defaultMaxStreamEvents {
		maxEvents = defaultMaxStreamEvents
	}
	tm := timerFrom(r.Context())
	seq := 0
	return s.streamBursts(w, r, m, cycleLimit(req.Steps), cmp.Or(req.StepBurst, defaultStepBurst), burstEmitter{
		capped: func() bool { return seq >= maxEvents-1 },
		burst: func(line func(v any) bool) bool {
			ev := &api.StreamEvent{Seq: seq, Cycle: m.Cycle(), Halted: m.Halted()}
			if req.IncludeState {
				reporting := tm.begin(phaseReport)
				ev.State = m.State(false)
				reporting.end()
			}
			seq++
			return line(ev)
		},
		final: func() any {
			ev := &api.StreamEvent{
				Seq:        seq,
				Cycle:      m.Cycle(),
				Halted:     m.Halted(),
				HaltReason: m.HaltReason(),
				Done:       true,
				Stats:      m.Report(),
			}
			if req.IncludeState {
				ev.State = m.State(req.IncludeLog)
			}
			return ev
		},
	})
}
