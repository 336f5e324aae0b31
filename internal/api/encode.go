package api

import (
	"encoding/json"
	"strconv"

	"riscvsim/internal/jsonenc"
	"riscvsim/sim"
)

// Self-encoding, self-decoding replies. Every reply that can carry a
// processor State appends itself around State's reflection-free encoder
// instead of being walked by encoding/json, writing exactly the bytes the
// struct tags in types.go define, and reads itself back through a decoder
// (decodeJSON, below the encoders) around State's and the report's own
// decoders (TestEncoderMatchesReflection holds all three together), the
// statistics report through its own encoder. Members without an encoder
// of their own — the debug log, trace results, errors — go through
// jsonenc.Value.

// appender is a reply that encodes itself; the codec prefers it.
type appender interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// appendMember appends `,"key":value` for a member encoded by reflection.
func appendMember(dst []byte, key string, v any) ([]byte, error) {
	return jsonenc.Value(append(dst, key...), v)
}

// appendReport appends `"key":report`, null for a missing report.
func appendReport(dst []byte, key string, rep *sim.Report) ([]byte, error) {
	dst = append(dst, key...)
	if rep == nil {
		return append(dst, "null"...), nil
	}
	return rep.AppendJSON(dst)
}

// appendState appends `"key":state`, null for a missing state.
func appendState(dst []byte, key string, st *sim.State) ([]byte, error) {
	dst = append(dst, key...)
	if st == nil {
		return append(dst, "null"...), nil
	}
	return st.AppendJSON(dst)
}

// AppendJSON appends the response as one JSON object.
func (r *SessionStateResponse) AppendJSON(dst []byte) ([]byte, error) {
	dst, err := appendState(append(dst, '{'), `"state":`, r.State)
	return append(dst, '}'), err
}

// AppendJSON appends the response as one JSON object.
func (r *SessionNewResponse) AppendJSON(dst []byte) ([]byte, error) {
	dst = jsonenc.String(append(dst, `{"sessionId":`...), r.SessionID)
	dst, err := appendState(dst, `,"state":`, r.State)
	return append(dst, '}'), err
}

// AppendJSON appends the response as one JSON object.
func (r *SimulateResponse) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"halted":`...)
	dst = strconv.AppendBool(dst, r.Halted)
	if r.HaltReason != "" {
		dst = jsonenc.String(append(dst, `,"haltReason":`...), r.HaltReason)
	}
	dst = append(dst, `,"cycles":`...)
	dst = strconv.AppendUint(dst, r.Cycles, 10)
	dst, err := appendReport(dst, `,"stats":`, r.Stats)
	if err == nil && r.State != nil {
		dst, err = appendState(dst, `,"state":`, r.State)
	}
	if err == nil && len(r.Log) > 0 {
		dst, err = appendMember(dst, `,"log":`, r.Log)
	}
	if err == nil && r.Trace != nil {
		dst, err = appendMember(dst, `,"trace":`, r.Trace)
	}
	if err == nil && r.Parallel != nil {
		dst, err = appendMember(dst, `,"parallel":`, r.Parallel)
	}
	return append(dst, '}'), err
}

// AppendJSON appends the event as one JSON object.
func (e *StreamEvent) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendInt(dst, int64(e.Seq), 10)
	dst = append(dst, `,"cycle":`...)
	dst = strconv.AppendUint(dst, e.Cycle, 10)
	dst = append(dst, `,"halted":`...)
	dst = strconv.AppendBool(dst, e.Halted)
	if e.HaltReason != "" {
		dst = jsonenc.String(append(dst, `,"haltReason":`...), e.HaltReason)
	}
	if e.Done {
		dst = append(dst, `,"done":true`...)
	}
	var err error
	if e.State != nil {
		dst, err = appendState(dst, `,"state":`, e.State)
	}
	if err == nil && e.Stats != nil {
		dst, err = appendReport(dst, `,"stats":`, e.Stats)
	}
	if err == nil && e.Error != nil {
		dst, err = appendMember(dst, `,"error":`, e.Error)
	}
	return append(dst, '}'), err
}

// AppendJSON appends the response as one JSON object.
func (r *BatchResponse) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"results":`...)
	if r.Results == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Results {
			res := &r.Results[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"index":`...)
			dst = strconv.AppendInt(dst, int64(res.Index), 10)
			var err error
			if res.Response != nil {
				dst, err = res.Response.AppendJSON(append(dst, `,"response":`...))
			}
			if err == nil && res.Error != nil {
				dst, err = appendMember(dst, `,"error":`, res.Error)
			}
			if err != nil {
				return dst, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"succeeded":`...)
	dst = strconv.AppendInt(dst, int64(r.Succeeded), 10)
	dst = append(dst, `,"failed":`...)
	dst = strconv.AppendInt(dst, int64(r.Failed), 10)
	dst = append(dst, `,"workers":`...)
	dst = strconv.AppendInt(dst, int64(r.Workers), 10)
	dst = append(dst, `,"wallNanos":`...)
	dst = strconv.AppendUint(dst, r.WallNanos, 10)
	return append(dst, '}'), nil
}

// The decoders. Each reads what encoding/json would decode from the same
// tags into a zero value, or fails its jsonenc.Reader, after which
// decodeInto decodes the whole document by reflection. Members without a
// decoder of their own — trace results, the parallel split, errors — are
// decoded by reflection from their bytes.

// decoder is a reply that decodes itself; decodeInto prefers it.
type decoder interface {
	decodeJSON(r *jsonenc.Reader)
}

// decodeMember decodes a member by reflection from its bytes.
func decodeMember(r *jsonenc.Reader, v any) {
	if raw := r.Raw(); raw != nil && json.Unmarshal(raw, v) != nil {
		r.Fail()
	}
}

func decodeState(r *jsonenc.Reader) *sim.State {
	return jsonenc.Pointer(r, (*sim.State).DecodeJSON)
}

var stateResponseKeys = []string{"state"}

func (resp *SessionStateResponse) decodeJSON(r *jsonenc.Reader) {
	var seen uint64
	for more := r.Enter('{'); more; more = r.Next('}') {
		if r.Key(stateResponseKeys, &seen) == "state" {
			resp.State = decodeState(r)
		}
	}
}

var newResponseKeys = []string{"sessionId", "state"}

func (resp *SessionNewResponse) decodeJSON(r *jsonenc.Reader) {
	var seen uint64
	for more := r.Enter('{'); more; more = r.Next('}') {
		switch r.Key(newResponseKeys, &seen) {
		case "sessionId":
			resp.SessionID = r.String()
		case "state":
			resp.State = decodeState(r)
		}
	}
}

var simulateResponseKeys = []string{"halted", "haltReason", "cycles", "stats", "state", "log", "trace", "parallel"}

func (resp *SimulateResponse) decodeJSON(r *jsonenc.Reader) {
	var seen uint64
	for more := r.Enter('{'); more; more = r.Next('}') {
		switch r.Key(simulateResponseKeys, &seen) {
		case "halted":
			resp.Halted = r.Bool()
		case "haltReason":
			resp.HaltReason = r.String()
		case "cycles":
			resp.Cycles = r.Uint()
		case "stats":
			resp.Stats = jsonenc.Pointer(r, (*sim.Report).DecodeJSON)
		case "state":
			resp.State = decodeState(r)
		case "log":
			resp.Log = jsonenc.Slice(r, (*sim.LogEntry).DecodeJSON)
		case "trace":
			decodeMember(r, &resp.Trace)
		case "parallel":
			decodeMember(r, &resp.Parallel)
		}
	}
}

var streamEventKeys = []string{"seq", "cycle", "halted", "haltReason", "done", "state", "stats", "error"}

func (e *StreamEvent) decodeJSON(r *jsonenc.Reader) {
	var seen uint64
	for more := r.Enter('{'); more; more = r.Next('}') {
		switch r.Key(streamEventKeys, &seen) {
		case "seq":
			e.Seq = r.Int()
		case "cycle":
			e.Cycle = r.Uint()
		case "halted":
			e.Halted = r.Bool()
		case "haltReason":
			e.HaltReason = r.String()
		case "done":
			e.Done = r.Bool()
		case "state":
			e.State = decodeState(r)
		case "stats":
			e.Stats = jsonenc.Pointer(r, (*sim.Report).DecodeJSON)
		case "error":
			decodeMember(r, &e.Error)
		}
	}
}

var batchResponseKeys = []string{"results", "succeeded", "failed", "workers", "wallNanos"}

func (resp *BatchResponse) decodeJSON(r *jsonenc.Reader) {
	var seen uint64
	for more := r.Enter('{'); more; more = r.Next('}') {
		switch r.Key(batchResponseKeys, &seen) {
		case "results":
			resp.Results = jsonenc.Slice(r, (*BatchResult).decodeJSON)
		case "succeeded":
			resp.Succeeded = r.Int()
		case "failed":
			resp.Failed = r.Int()
		case "workers":
			resp.Workers = r.Int()
		case "wallNanos":
			resp.WallNanos = r.Uint()
		}
	}
}

var batchResultKeys = []string{"index", "response", "error"}

func (res *BatchResult) decodeJSON(r *jsonenc.Reader) {
	var seen uint64
	for more := r.Enter('{'); more; more = r.Next('}') {
		switch r.Key(batchResultKeys, &seen) {
		case "index":
			res.Index = r.Int()
		case "response":
			res.Response = jsonenc.Pointer(r, (*SimulateResponse).decodeJSON)
		case "error":
			decodeMember(r, &res.Error)
		}
	}
}
