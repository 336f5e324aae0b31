package server

import (
	"bytes"
	"errors"
	"net/http"
	"time"

	"riscvsim/internal/api"
	"riscvsim/internal/render"
	"riscvsim/sim"
)

// maxInteractiveStep bounds one interactive request.
const maxInteractiveStep = 10_000_000

// rewindError maps a failed backward navigation onto its stable code:
// crossing the rewind barrier (fast-forwarded or time-parallel region,
// no timing history) is its own condition clients can dispatch on;
// everything else stays the generic unprocessable.
func rewindError(err error) *api.Error {
	if errors.Is(err, sim.ErrRewindBarrier) {
		return api.WrapError(api.CodeRewindBarrier, err)
	}
	return api.WrapError(api.CodeUnprocessable, err)
}

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

// addSession registers a machine under a fresh or assigned ID.
func (s *Server) addSession(m *sim.Machine, assigned string) (string, *api.Error) {
	if assigned == "" {
		return s.store.Add(m), nil
	}
	if !s.store.AddWithID(assigned, m) {
		return "", api.Errorf(api.CodeSessionExists, "session %q already exists on this node", assigned)
	}
	return assigned, nil
}

func (s *Server) handleSessionNew(w http.ResponseWriter, r *http.Request) (any, int, error) {
	var req api.SessionNewRequest
	if aerr := s.decode(w, r, &req); aerr != nil {
		return nil, 0, aerr
	}
	assigned, aerr := s.assignedSessionID(r)
	if aerr != nil {
		return nil, 0, aerr
	}
	m, aerr := s.buildMachine(&req.SimulateRequest)
	if aerr != nil {
		return nil, 0, aerr
	}
	// Interactive sessions are the debug surface: keep interval
	// snapshots so backward stepping restores from the nearest snapshot
	// instead of replaying from cycle zero (batch endpoints never rewind
	// and stay snapshot-free). An architecture-level snapshotInterval
	// already enabled them with a custom spacing.
	if m.SnapshotInterval() == 0 {
		m.EnableSnapshots(0)
	}
	// Snapshot the state before the session is published: with an
	// assigned ID another request can lock and run the machine the
	// moment addSession returns.
	st := m.State(false)
	id, aerr := s.addSession(m, assigned)
	if aerr != nil {
		return nil, 0, aerr
	}
	return &api.SessionNewResponse{SessionID: id, State: st}, 0, nil
}

func (s *Server) getSession(id string) (*session, *api.Error) {
	sess, ok := s.store.Get(id)
	if !ok {
		return nil, api.Errorf(api.CodeUnknownSession,
			"unknown session %q (it may have been closed, evicted or expired)", id)
	}
	return sess, nil
}

// lockSession looks a session up and returns it with its mutex held.
// If the session was retired (evicted and spilled) between the lookup
// and the lock, the handler would otherwise mutate an orphaned machine
// whose state the spill already captured — so it retries through the
// store, which rehydrates the spilled copy.
func (s *Server) lockSession(id string) (*session, *api.Error) {
	for tries := 0; tries < 3; tries++ {
		sess, aerr := s.getSession(id)
		if aerr != nil {
			return nil, aerr
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

func (s *Server) handleSessionStep(w http.ResponseWriter, r *http.Request) (any, int, error) {
	var req api.SessionStepRequest
	if aerr := s.decode(w, r, &req); aerr != nil {
		return nil, 0, aerr
	}
	sess, aerr := s.lockSession(req.SessionID)
	if aerr != nil {
		return nil, 0, aerr
	}
	defer sess.mu.Unlock()
	switch {
	case req.Steps >= 0:
		n := req.Steps
		if n > maxInteractiveStep {
			n = maxInteractiveStep
		}
		// runMachine books simNs and honors the request deadline; the
		// session keeps the state the run reached, and the typed
		// deadline_exceeded error tells the client to re-read it.
		if _, aerr := s.runMachine(r.Context(), sess.machine, uint64(n)); aerr != nil {
			return nil, 0, aerr
		}
	default:
		sstart := time.Now()
		back := -req.Steps
		target := int64(sess.machine.Cycle()) - back
		if target < 0 {
			target = 0
		}
		err := sess.machine.GotoCycle(uint64(target))
		s.simNs.Add(uint64(time.Since(sstart)))
		if err != nil {
			return nil, 0, rewindError(err)
		}
	}
	return &api.SessionStateResponse{State: sess.machine.State(req.IncludeLog)}, 0, nil
}

func (s *Server) handleSessionGoto(w http.ResponseWriter, r *http.Request) (any, int, error) {
	var req api.SessionGotoRequest
	if aerr := s.decode(w, r, &req); aerr != nil {
		return nil, 0, aerr
	}
	sess, aerr := s.lockSession(req.SessionID)
	if aerr != nil {
		return nil, 0, aerr
	}
	defer sess.mu.Unlock()
	sstart := time.Now()
	if err := sess.machine.GotoCycle(req.Cycle); err != nil {
		s.simNs.Add(uint64(time.Since(sstart)))
		return nil, 0, rewindError(err)
	}
	s.simNs.Add(uint64(time.Since(sstart)))
	return &api.SessionStateResponse{State: sess.machine.State(false)}, 0, nil
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) (any, int, error) {
	var req api.SessionCloseRequest
	if aerr := s.decode(w, r, &req); aerr != nil {
		return nil, 0, aerr
	}
	if !s.store.Remove(req.SessionID) {
		return nil, 0, api.Errorf(api.CodeUnknownSession, "unknown session %q", req.SessionID)
	}
	return &api.SessionCloseResponse{Closed: true}, 0, nil
}

// handleSessionCheckpoint serializes a live session into the versioned
// binary snapshot format (base64 over JSON). The document is
// self-contained: restore it here, on another server, or from the CLI.
func (s *Server) handleSessionCheckpoint(w http.ResponseWriter, r *http.Request) (any, int, error) {
	var req api.SessionCheckpointRequest
	if aerr := s.decode(w, r, &req); aerr != nil {
		return nil, 0, aerr
	}
	sess, aerr := s.lockSession(req.SessionID)
	if aerr != nil {
		return nil, 0, aerr
	}
	defer sess.mu.Unlock()
	sstart := time.Now()
	var buf bytes.Buffer
	if err := sess.machine.Checkpoint(&buf); err != nil {
		s.simNs.Add(uint64(time.Since(sstart)))
		return nil, 0, api.WrapError(api.CodeInternal, err)
	}
	// Write-through policy (docs/deployment.md): the same bytes the
	// client receives land in the checkpoint store, so any replica
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
	durable := s.store.WriteThrough(sess, buf.Bytes())
	s.simNs.Add(uint64(time.Since(sstart)))
	return &api.SessionCheckpointResponse{
		SessionID:  req.SessionID,
		Cycle:      cycle,
		Checkpoint: buf.Bytes(),
		Durable:    durable,
	}, 0, nil
}

// handleSessionRestore opens a fresh interactive session from a
// checkpoint document, picking the simulation up exactly where the
// snapshot left it.
func (s *Server) handleSessionRestore(w http.ResponseWriter, r *http.Request) (any, int, error) {
	var req api.SessionRestoreRequest
	if aerr := s.decode(w, r, &req); aerr != nil {
		return nil, 0, aerr
	}
	if len(req.Checkpoint) == 0 {
		return nil, 0, api.Errorf(api.CodeBadRequest, "restore: empty checkpoint")
	}
	assigned, aerr := s.assignedSessionID(r)
	if aerr != nil {
		return nil, 0, aerr
	}
	sstart := time.Now()
	m, err := s.programs.restoreSession(req.Checkpoint)
	s.simNs.Add(uint64(time.Since(sstart)))
	if err != nil {
		return nil, 0, api.CheckpointError(err)
	}
	// Snapshot the state before the session is published: with an
	// assigned ID another request can lock and run the machine the
	// moment addSession returns.
	st := m.State(false)
	id, aerr := s.addSession(m, assigned)
	if aerr != nil {
		return nil, 0, aerr
	}
	return &api.SessionNewResponse{SessionID: id, State: st}, 0, nil
}

func (s *Server) handleSessionRender(w http.ResponseWriter, r *http.Request) (any, int, error) {
	id := r.URL.Query().Get("session")
	sess, aerr := s.lockSession(id)
	if aerr != nil {
		return nil, 0, aerr
	}
	st := sess.machine.State(false)
	sess.mu.Unlock()
	sstart := time.Now()
	text := render.Schematic(st)
	s.simNs.Add(uint64(time.Since(sstart)))
	return &api.RenderResponse{Schematic: text}, 0, nil
}
