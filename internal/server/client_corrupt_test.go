package server

// The client-held twin of TestLoadNeverAdoptsACorruptBlob: every route
// that takes a checkpoint from a request body must reject every flipped
// byte and every torn length with the typed code the format's read order
// gives, never answer with a machine.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"riscvsim/internal/api"
	"riscvsim/internal/ckpt"
)

// checkpointRoutes are the routes that take a checkpoint, each with the
// request that carries it and how to read the code off the reply.
var checkpointRoutes = []struct {
	path string
	req  func(ck []byte) any
	// batch routes answer 200 and type the entry's error instead.
	batch bool
}{
	{"/session/restore", func(ck []byte) any { return &api.SessionRestoreRequest{Checkpoint: ck} }, false},
	{"/session/new", func(ck []byte) any {
		return &api.SessionNewRequest{SimulateRequest: api.SimulateRequest{Checkpoint: ck}}
	}, false},
	{"/simulate", func(ck []byte) any { return &api.SimulateRequest{Checkpoint: ck, Steps: 10} }, false},
	{"/batch", func(ck []byte) any {
		return &api.BatchRequest{BaseCheckpoint: ck, Requests: []api.SimulateRequest{{Steps: 10}}}
	}, true},
	{"/session/stream", func(ck []byte) any {
		return &api.StreamRequest{SimulateRequest: api.SimulateRequest{Checkpoint: ck, Steps: 10}}
	}, false},
	{"/session/trace", func(ck []byte) any {
		return &api.TraceStreamRequest{SimulateRequest: api.SimulateRequest{Checkpoint: ck, Steps: 10}}
	}, false},
}

// postCheckpoint sends req to path in process and returns the reply's
// status and its error code ("" on success).
func postCheckpoint(t *testing.T, h http.Handler, path string, req any, batch bool) (int, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, api.V1Prefix+path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return rec.Code, decodeErrorEnvelope(t, rec.Body.Bytes()).Code
	}
	if batch {
		var br api.BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil || len(br.Results) != 1 {
			t.Fatalf("batch reply %s: %v", rec.Body.Bytes(), err)
		}
		if e := br.Results[0].Error; e != nil {
			return statusForCode(e.Code), e.Code
		}
	}
	return rec.Code, ""
}

func TestClientRoutesNeverAdoptACorruptCheckpoint(t *testing.T) {
	blob := checkpointBytes(t, steppedMachine(t, 1500))
	h := New(DefaultOptions()).Handler()
	for _, rt := range checkpointRoutes {
		t.Run(rt.path[1:], func(t *testing.T) {
			t.Parallel()
			if status, code := postCheckpoint(t, h, rt.path, rt.req(blob), rt.batch); status != http.StatusOK {
				t.Fatalf("intact checkpoint: %d %s", status, code)
			}
			wrong := 0
			// Corruption i < len(blob) flips byte i; the rest tear the
			// checkpoint at length i-len(blob) (an empty one is no
			// checkpoint at all, so the tears start at one byte).
			for i := 0; i < 2*len(blob); i++ {
				bad, want := bytes.Clone(blob), api.CodeCheckpointTruncated
				if i < len(blob) {
					bad[i] ^= 0x41
					// The code of the read order's error for this byte,
					// which the ckpt and sim tests pin per position.
					_, err := ckpt.Open(bad)
					want = api.CheckpointError(err).Code
				} else if bad = bad[:i-len(blob)]; len(bad) == 0 {
					continue
				}
				status, code := postCheckpoint(t, h, rt.path, rt.req(bad), rt.batch)
				if code != want || status != statusForCode(want) || status/100 != 4 {
					if wrong++; wrong <= 3 {
						t.Errorf("corruption %d of %d: %d %q, want %d %q", i, 2*len(blob), status, code, statusForCode(want), want)
					}
				}
			}
			if wrong > 0 {
				t.Errorf("%d of %d corrupted checkpoints not rejected with their code", wrong, 2*len(blob)-1)
			}
		})
	}
}
