package api

import (
	"bytes"
	"encoding/json"
	"testing"

	"riscvsim/internal/workload"
)

// BenchmarkStepReplyDecode: what a client pays to read one step reply —
// encoding/json decoding a warm sort-insertion session's session/step
// reply at cycle 1,500 into a SessionStateResponse. In a CPU profile of
// bench's session_router workload this decode is the largest single
// cost of a step; it scales with the reply's bytes (SetBytes).
func BenchmarkStepReplyDecode(b *testing.B) {
	w, _ := workload.ByName("sort-insertion")
	m, err := workload.NewMachine(nil, w)
	if err != nil {
		b.Fatal(err)
	}
	m.StepN(1500)
	var doc bytes.Buffer
	if err := PooledCodec.Encode(&doc, &SessionStateResponse{State: m.State(false)}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st SessionStateResponse
		if err := json.Unmarshal(doc.Bytes(), &st); err != nil {
			b.Fatal(err)
		}
	}
}
