package api_test

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"riscvsim/internal/api"
	"riscvsim/internal/loadgen"
	"riscvsim/internal/server"
	"riscvsim/internal/workload"
)

// benchmarkDecode times what a client pays to read doc into a T, by
// reflection (encoding/json) and with the reply's own decoder (the
// codec's Unmarshal, which the client calls). Both scale with the reply's
// bytes (SetBytes).
func benchmarkDecode[T any](b *testing.B, doc []byte) {
	for _, arm := range []struct {
		name   string
		decode func([]byte, any) error
	}{
		{"reflection", json.Unmarshal},
		{"own", api.PooledCodec.Unmarshal},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := arm.decode(doc, new(T)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func encode(b *testing.B, v any) []byte {
	var doc bytes.Buffer
	if err := api.PooledCodec.Encode(&doc, v); err != nil {
		b.Fatal(err)
	}
	return doc.Bytes()
}

// BenchmarkStepReplyDecode: a warm sort-insertion session's session/step
// reply at cycle 1,500 read into a SessionStateResponse. The reflective
// decode was the largest single cost of a step in a CPU profile of
// bench's session_router workload; the own decoder reads the reply in
// about a quarter of its time and allocates only slices and variable
// text, the names of fixed sets interned.
func BenchmarkStepReplyDecode(b *testing.B) {
	w, _ := workload.ByName("sort-insertion")
	m, err := workload.NewMachine(nil, w)
	if err != nil {
		b.Fatal(err)
	}
	m.StepN(1500)
	benchmarkDecode[api.SessionStateResponse](b, encode(b, &api.SessionStateResponse{State: m.State(false)}))
}

// BenchmarkSimulateReplyDecode: the /simulate replies of two of bench's
// classroom_simulate templates — the default example (programA) and
// quicksort compiled at -O2 — read into a SimulateResponse: the
// statistics report and the headline fields.
func BenchmarkSimulateReplyDecode(b *testing.B) {
	qs, err := os.ReadFile("../../bench/testdata/quicksort.c")
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		req  api.SimulateRequest
	}{
		{"programA", api.SimulateRequest{Code: loadgen.ProgramA}},
		{"quicksort-O2", api.SimulateRequest{Code: string(qs), Language: "c", Optimize: 2}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			_, resp, aerr := server.Simulate(&tc.req)
			if aerr != nil {
				b.Fatal(aerr)
			}
			benchmarkDecode[api.SimulateResponse](b, encode(b, resp))
		})
	}
}
