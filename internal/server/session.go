package server

import (
	"bytes"
	"errors"
	"net/http"

	"riscvsim/internal/api"
	"riscvsim/internal/render"
	"riscvsim/sim"
)

// maxInteractiveStep bounds one interactive request.
const maxInteractiveStep = 10_000_000

// assignedSessionID extracts a router-assigned session ID from the
// request when the server accepts them (Options.AllowAssignedIDs). The
// empty string means "generate one locally", the historical behavior.
func (s *Server) assignedSessionID(r *http.Request) (string, *api.Error) {
	if !s.opts.AllowAssignedIDs {
		return "", nil
	}
	id := r.Header.Get(api.SessionIDHeader)
	if id == "" {
		return "", nil
	}
	if !validSessionID(id) {
		return "", api.Errorf(api.CodeBadRequest, "assigned session id %q is not of the s%%08d form", id)
	}
	return id, nil
}

// publishSession registers a machine as a session under a fresh or
// assigned ID: the shared tail of session/new and session/restore. The
// reply's state is captured before the session is published: with an
// assigned ID another request can lock and run the machine the moment the
// store has it.
func (s *Server) publishSession(r *http.Request, m *sim.Machine, assigned string) (any, *api.Error) {
	tm := timerFrom(r.Context())
	reporting := tm.begin(phaseReport)
	st := m.State(false)
	reporting.end()
	id := assigned
	if assigned == "" {
		id = s.store.Add(tm, m)
	} else if !s.store.AddWithID(tm, assigned, m) {
		return nil, api.Errorf(api.CodeSessionExists, "session %q already exists on this node", assigned)
	}
	return &api.SessionNewResponse{SessionID: id, State: st}, nil
}

func (s *Server) handleSessionNew(_ http.ResponseWriter, r *http.Request, req *api.SessionNewRequest) (any, *api.Error) {
	assigned, aerr := s.assignedSessionID(r)
	if aerr != nil {
		return nil, aerr
	}
	m, aerr := s.build(r.Context(), &req.SimulateRequest)
	if aerr != nil {
		return nil, aerr
	}
	// Interactive sessions are the debug surface: keep interval
	// snapshots so backward stepping restores from the nearest snapshot
	// instead of replaying from cycle zero (batch endpoints never rewind
	// and stay snapshot-free). An architecture-level snapshotInterval
	// already enabled them with a custom spacing.
	if m.SnapshotInterval() == 0 {
		m.EnableSnapshots(0)
	}
	return s.publishSession(r, m, assigned)
}

// lockSession looks a session up and returns it with its mutex held.
// If the session was retired (evicted and spilled) between the lookup
// and the lock, the handler would otherwise mutate an orphaned machine
// whose state the spill already captured — so it retries through the
// store, which rehydrates the spilled copy. What the lookup spends in the
// checkpoint store is booked to the request's timer.
func (s *Server) lockSession(tm *phaseTimer, id string) (*session, *api.Error) {
	for tries := 0; tries < 3; tries++ {
		sess, ok := s.store.Get(tm, id)
		if !ok {
			return nil, api.Errorf(api.CodeUnknownSession,
				"unknown session %q (it may have been closed, evicted or expired)", id)
		}
		sess.mu.Lock()
		if !sess.gone {
			return sess, nil
		}
		sess.mu.Unlock()
	}
	return nil, api.Errorf(api.CodeUnknownSession,
		"session %q kept being evicted mid-operation (server under heavy session churn)", id)
}

// sessionState is the reply of every session navigation: the machine's
// state after the move.
func sessionState(r *http.Request, sess *session, includeLog bool) (any, *api.Error) {
	defer timerFrom(r.Context()).begin(phaseReport).end()
	return &api.SessionStateResponse{State: sess.machine.State(includeLog)}, nil
}

// gotoCycle repositions a session at target — the shared move of
// session/goto and of session/step with negative steps — booked to the
// simulate phase like the forward runs it replays with. Crossing the
// rewind barrier (fast-forwarded or time-parallel region, no timing
// history) is its own condition clients can dispatch on; every other
// failure stays the generic unprocessable.
func gotoCycle(r *http.Request, sess *session, target uint64) *api.Error {
	defer timerFrom(r.Context()).begin(phaseSimulate).end()
	err := sess.machine.GotoCycle(target)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, sim.ErrRewindBarrier):
		return api.WrapError(api.CodeRewindBarrier, err)
	}
	return api.WrapError(api.CodeUnprocessable, err)
}

func (s *Server) handleSessionStep(_ http.ResponseWriter, r *http.Request, req *api.SessionStepRequest) (any, *api.Error) {
	sess, aerr := s.lockSession(timerFrom(r.Context()), req.SessionID)
	if aerr != nil {
		return nil, aerr
	}
	defer sess.mu.Unlock()
	if req.Steps >= 0 {
		// The session keeps the state the run reached, and the typed
		// deadline_exceeded error tells the client to re-read it.
		_, aerr = s.runMachine(r.Context(), sess.machine, uint64(min(req.Steps, maxInteractiveStep)))
	} else {
		aerr = gotoCycle(r, sess, uint64(max(int64(sess.machine.Cycle())+req.Steps, 0)))
	}
	if aerr != nil {
		return nil, aerr
	}
	return sessionState(r, sess, req.IncludeLog)
}

func (s *Server) handleSessionGoto(_ http.ResponseWriter, r *http.Request, req *api.SessionGotoRequest) (any, *api.Error) {
	sess, aerr := s.lockSession(timerFrom(r.Context()), req.SessionID)
	if aerr != nil {
		return nil, aerr
	}
	defer sess.mu.Unlock()
	if aerr := gotoCycle(r, sess, req.Cycle); aerr != nil {
		return nil, aerr
	}
	return sessionState(r, sess, false)
}

func (s *Server) handleSessionClose(_ http.ResponseWriter, _ *http.Request, req *api.SessionCloseRequest) (any, *api.Error) {
	if !s.store.Remove(req.SessionID) {
		return nil, api.Errorf(api.CodeUnknownSession, "unknown session %q", req.SessionID)
	}
	return &api.SessionCloseResponse{Closed: true}, nil
}

// handleSessionCheckpoint serializes a live session into the versioned
// binary snapshot format (base64 over JSON). The document is
// self-contained: restore it here, on another server, or from the CLI.
func (s *Server) handleSessionCheckpoint(_ http.ResponseWriter, r *http.Request, req *api.SessionCheckpointRequest) (any, *api.Error) {
	tm := timerFrom(r.Context())
	sess, aerr := s.lockSession(tm, req.SessionID)
	if aerr != nil {
		return nil, aerr
	}
	defer sess.mu.Unlock()
	serializing := tm.begin(phaseSimulate)
	var buf bytes.Buffer
	err := sess.machine.Checkpoint(&buf)
	serializing.end()
	if err != nil {
		return nil, api.WrapError(api.CodeInternal, err)
	}
	// Write-through policy (docs/deployment.md): the stream the client
	// receives also lands, as it is, in the checkpoint store, so any replica
	// sharing it can serve the session from this point on. The store —
	// not this process — is the session's authority after an explicit
	// checkpoint. Durable tells the client whether that happened: only a
	// durable ack is covered by the failover contract (and held against
	// the chaos harness's checkpoint-loss invariant, docs/robustness.md).
	// Cycle is captured before the write-through: a stale write makes
	// WriteThrough converge sess.machine on the store's newer copy, and
	// the response must describe the bytes in Checkpoint, not the
	// adopted state.
	cycle := sess.machine.Cycle()
	durable := s.store.WriteThrough(tm, sess, buf.Bytes())
	return &api.SessionCheckpointResponse{
		SessionID:  req.SessionID,
		Cycle:      cycle,
		Checkpoint: buf.Bytes(),
		Durable:    durable,
	}, nil
}

// handleSessionRestore opens a fresh interactive session from a
// checkpoint document, picking the simulation up exactly where the
// snapshot left it.
func (s *Server) handleSessionRestore(_ http.ResponseWriter, r *http.Request, req *api.SessionRestoreRequest) (any, *api.Error) {
	if len(req.Checkpoint) == 0 {
		return nil, api.Errorf(api.CodeBadRequest, "restore: empty checkpoint")
	}
	assigned, aerr := s.assignedSessionID(r)
	if aerr != nil {
		return nil, aerr
	}
	restoring := timerFrom(r.Context()).begin(phaseSimulate)
	m, err := s.programs.restoreSession(req.Checkpoint)
	restoring.end()
	if err != nil {
		return nil, api.CheckpointError(err)
	}
	return s.publishSession(r, m, assigned)
}

func (s *Server) handleSessionRender(_ http.ResponseWriter, r *http.Request) (any, *api.Error) {
	tm := timerFrom(r.Context())
	sess, aerr := s.lockSession(tm, r.URL.Query().Get("session"))
	if aerr != nil {
		return nil, aerr
	}
	reporting := tm.begin(phaseReport)
	st := sess.machine.State(false)
	l1 := sess.machine.Sim().Cache().Config()
	reporting.end()
	sess.mu.Unlock()
	defer tm.begin(phaseSimulate).end()
	return &api.RenderResponse{Schematic: render.Schematic(st, l1)}, nil
}
