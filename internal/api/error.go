package api

import (
	"errors"
	"fmt"

	"riscvsim/internal/ckpt"
)

// Stable machine-readable error codes of the v1 protocol. Clients dispatch
// on Code; Message is human-readable diagnostic text and carries no
// stability guarantee.
const (
	// CodeBadJSON: the request body is not valid JSON for the expected
	// document shape.
	CodeBadJSON = "bad_json"
	// CodeBadRequest: the request parsed but is semantically invalid
	// (missing fields, out-of-range values).
	CodeBadRequest = "bad_request"
	// CodeBodyTooLarge: the request body exceeds MaxBodyBytes.
	CodeBodyTooLarge = "body_too_large"
	// CodeUnknownPreset: SimulateRequest.Preset names no known preset.
	CodeUnknownPreset = "unknown_preset"
	// CodeBadConfig: the architecture configuration document is invalid.
	CodeBadConfig = "bad_config"
	// CodeBuildFailed: the program failed to assemble or compile.
	CodeBuildFailed = "build_failed"
	// CodeMemFill: a MemFill entry is invalid or exceeds its allocation.
	CodeMemFill = "mem_fill_failed"
	// CodeUnknownSession: the session ID is unknown (closed or evicted).
	CodeUnknownSession = "unknown_session"
	// CodeBatchTooLarge: a batch carries more requests than the server
	// accepts in one call.
	CodeBatchTooLarge = "batch_too_large"
	// CodeUnprocessable: a session operation failed on a valid session
	// (e.g. goto past the end of the debug log).
	CodeUnprocessable = "unprocessable"
	// CodeRewindBarrier: backward navigation (goto / negative step) was
	// refused because the target lies below the session's rewind barrier —
	// the region was executed fast-forward or time-parallel and has no
	// detailed timing history to replay. Forward navigation from the
	// barrier remains available.
	CodeRewindBarrier = "rewind_barrier"
	// CodeBadFilter: a workload-suite filter term matches nothing in the
	// embedded corpus.
	CodeBadFilter = "bad_filter"
	// CodeBadTrace: the trace options are invalid (unknown stage name,
	// malformed PC range, out-of-range limit).
	CodeBadTrace = "bad_trace"
	// CodeInternal: the server failed to produce a response.
	CodeInternal = "internal"

	// Distributed-tier codes (docs/deployment.md).

	// CodeSessionExists: a session create carried an assigned session ID
	// (SessionIDHeader) that is already live on the node. The router
	// retries the create with a fresh ID.
	CodeSessionExists = "session_exists"
	// CodeSessionMoved: the session's owner replica changed (a node
	// died or the ring changed) and no checkpoint of it exists in the
	// shared store — state past the last checkpoint is lost. Clients
	// restart the session or restore a checkpoint they hold; the last
	// explicit checkpoint is the durability boundary.
	CodeSessionMoved = "session_moved"
	// CodeNodeUnavailable: the router could not complete the request on
	// any healthy replica (all down, or the forward kept failing).
	// Transient by design — clients retry with backoff.
	CodeNodeUnavailable = "node_unavailable"

	// Overload-protection codes (docs/robustness.md).

	// CodeOverCapacity: the node (or router) is at its admission limit —
	// the in-flight simulation cap is reached and the bounded wait queue
	// is full. The response carries a Retry-After header; clients back
	// off and retry. Load is shed, never queued unboundedly, so the tier
	// degrades to fast typed rejections instead of collapsing.
	CodeOverCapacity = "over_capacity"
	// CodeDeadlineExceeded: the per-request deadline elapsed before the
	// operation completed. For session operations the session remains
	// valid at whatever state the work reached — NOT the state before
	// the request — so clients re-read the session state before issuing
	// more work (a blind step retry would advance past the target). For
	// stateless simulations no state survives and a retry is safe.
	CodeDeadlineExceeded = "deadline_exceeded"

	// Checkpoint codes (POST /api/v1/session/{checkpoint,restore} and
	// checkpoint-carrying simulate/batch requests).

	// CodeBadCheckpoint: the stream is not a checkpoint (bad magic), fails
	// its CRC-32C, or its structure is corrupt.
	CodeBadCheckpoint = "bad_checkpoint"
	// CodeCheckpointVersion: the checkpoint is not in this server's
	// format version.
	CodeCheckpointVersion = "checkpoint_version_unsupported"
	// CodeCheckpointTruncated: the stream does not end in the checkpoint
	// footer and trailer.
	CodeCheckpointTruncated = "checkpoint_truncated"
)

// SessionIDHeader carries a caller-assigned session ID on session
// create/restore requests. Only servers running with AllowAssignedIDs
// honor it; the consistent-hash router uses it so a session's owner
// replica is computable from the ID before the session exists.
const SessionIDHeader = "X-Riscvsim-Session-Id"

// CheckpointError maps a sim.Restore / Machine.Checkpoint failure onto
// the stable checkpoint error codes via the ckpt sentinel errors.
func CheckpointError(err error) *Error {
	code := CodeBadCheckpoint
	switch {
	case errors.Is(err, ckpt.ErrVersion):
		code = CodeCheckpointVersion
	case errors.Is(err, ckpt.ErrTruncated):
		code = CodeCheckpointTruncated
	}
	return &Error{Code: code, Message: err.Error()}
}

// Error is the v1 machine-readable error. It implements the error
// interface so handlers can return it directly.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements the error interface.
func (e *Error) Error() string { return e.Message }

// Errorf builds an *Error with a stable code and a formatted message.
func Errorf(code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// WrapError attaches a stable code to an arbitrary error, preserving an
// existing *Error's code.
func WrapError(code string, err error) *Error {
	if ae, ok := err.(*Error); ok {
		return ae
	}
	return &Error{Code: code, Message: err.Error()}
}

// ErrorEnvelope is the uniform error response body:
//
//	{"error": {"code": "build_failed", "message": "line 3: ..."}}
//
// Every non-2xx /api/v1 response carries this shape.
type ErrorEnvelope struct {
	Err Error `json:"error"`
}
