package workload_test

import (
	"bytes"
	"testing"

	"riscvsim/internal/api"
	"riscvsim/internal/workload"
)

// TestStepReplySize: a session/step reply — the whole state, cache lines
// included — stays within 10 % of the size it was measured at. The state
// lists only the valid cache lines; a change that sends the invalid ones
// again, or anything else that re-inflates the document, fails here.
// Measured in bytes, as the codec writes the reply uncompressed.
func TestStepReplySize(t *testing.T) {
	measured := map[string]map[uint64]int{
		"sort-insertion": {500: 7561, 1500: 8081, 3000: 6604},
		"memcpy-stream":  {500: 8114, 1500: 11779, 3000: 16828},
	}
	for name, sizes := range measured {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("%s not in the corpus", name)
		}
		m, err := workload.NewMachine(nil, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, cycle := range []uint64{500, 1500, 3000} {
			m.StepN(cycle - m.Cycle())
			var doc bytes.Buffer
			if err := api.PooledCodec.Encode(&doc, &api.SessionStateResponse{State: m.State(false)}); err != nil {
				t.Fatal(err)
			}
			if limit := sizes[cycle] * 11 / 10; doc.Len() > limit {
				t.Errorf("%s at cycle %d: the step reply is %d bytes, measured %d, limit %d", name, cycle, doc.Len(), sizes[cycle], limit)
			}
		}
	}
}
