package server

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"riscvsim/internal/api"
	"riscvsim/internal/cache"
	"riscvsim/internal/ckpt"
	"riscvsim/internal/config"
	"riscvsim/internal/predictor"
	"riscvsim/sim"
)

// boundedFields are the architecture document's upper bounds. set writes
// n into the field; past is the first value beyond max that the field's
// other checks would accept, so only the bound can reject it.
var boundedFields = []struct {
	name      string
	max, past int
	set       func(c *sim.Config, n int)
}{
	{"robSize", config.MaxROBSize, config.MaxROBSize + 1, func(c *sim.Config, n int) { c.ROBSize, c.RenameRegisters = n, n }},
	{"renameRegisters", config.MaxRenameRegisters, config.MaxRenameRegisters + 1, func(c *sim.Config, n int) { c.RenameRegisters = n }},
	{"fetchWidth", config.MaxWidth, config.MaxWidth + 1, func(c *sim.Config, n int) { c.FetchWidth = n }},
	{"commitWidth", config.MaxWidth, config.MaxWidth + 1, func(c *sim.Config, n int) { c.CommitWidth = n }},
	{"jumpsPerCycle", config.MaxWidth, config.MaxWidth + 1, func(c *sim.Config, n int) { c.JumpsPerCycle = n }},
	{"fxWindow", config.MaxWindowSize, config.MaxWindowSize + 1, func(c *sim.Config, n int) { c.FXWindow = n }},
	{"fpWindow", config.MaxWindowSize, config.MaxWindowSize + 1, func(c *sim.Config, n int) { c.FPWindow = n }},
	{"lsWindow", config.MaxWindowSize, config.MaxWindowSize + 1, func(c *sim.Config, n int) { c.LSWindow = n }},
	{"branchWindow", config.MaxWindowSize, config.MaxWindowSize + 1, func(c *sim.Config, n int) { c.BranchWindow = n }},
	{"loadBufferSize", config.MaxWindowSize, config.MaxWindowSize + 1, func(c *sim.Config, n int) { c.LoadBufferSize = n }},
	{"storeBufferSize", config.MaxWindowSize, config.MaxWindowSize + 1, func(c *sim.Config, n int) { c.StoreBufferSize = n }},
	{"units", config.MaxUnits, config.MaxUnits + 1, func(c *sim.Config, n int) {
		for i := len(c.Units); i < n; i++ {
			c.Units = append(c.Units, config.FUSpec{Name: fmt.Sprintf("FXX%d", i), Class: "FX", Latency: 1})
		}
	}},
	{"memory size", config.MaxMemorySize, config.MaxMemorySize + 1, func(c *sim.Config, n int) { c.Memory.Size = n }},
	{"maxLogEntries", config.MaxLogBound, config.MaxLogBound + 1, func(c *sim.Config, n int) { c.MaxLogEntries = n }},
	// Lines must stay a multiple of the associativity (4), LineSize a
	// power of two.
	{"Lines", cache.MaxLines, cache.MaxLines + 4, func(c *sim.Config, n int) { c.Cache.Lines = n }},
	{"LineSize", cache.MaxLineSize, 2 * cache.MaxLineSize, func(c *sim.Config, n int) { c.Cache.LineSize = n }},
	{"BTBSize", predictor.MaxBTBSize, predictor.MaxBTBSize + 1, func(c *sim.Config, n int) { c.Predictor.BTBSize = n }},
	{"PHTSize", predictor.MaxPHTSize, predictor.MaxPHTSize + 1, func(c *sim.Config, n int) { c.Predictor.PHTSize = n }},
}

// withConfig returns the checkpoint blob with its header's configuration
// replaced by doc and its CRC recomputed, as a client can.
func withConfig(t *testing.T, blob, doc []byte) []byte {
	t.Helper()
	r, err := ckpt.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	header := func(cfg []byte) *bytes.Buffer {
		var buf bytes.Buffer
		w := ckpt.NewWriter(&buf)
		w.Header()
		w.Bytes(cfg)
		return &buf
	}
	body := blob[header(r.Bytes(ckpt.MaxStreamLen)).Len() : len(blob)-ckpt.TrailerLen]
	var out bytes.Buffer
	sum := ckpt.NewSummer(&out)
	sum.Write(header(doc).Bytes())
	sum.Write(body)
	if err := sum.WriteTrailer(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestConfigBoundsOnEveryRoute: a document at every bound is simulated;
// one past it is refused as 422 bad_config on /simulate and, inside a
// re-sealed checkpoint header, as ckpt.ErrCorrupt and 400 bad_checkpoint
// on /session/restore.
func TestConfigBoundsOnEveryRoute(t *testing.T) {
	h := New(DefaultOptions()).Handler()
	blob := checkpointBytes(t, steppedMachine(t, 10))
	intact := withConfig(t, blob, *configJSON(t, func(*sim.Config) {}))
	if _, err := sim.Restore(bytes.NewReader(intact)); err != nil {
		t.Fatalf("checkpoint re-sealed with its own configuration: %v", err)
	}
	for _, f := range boundedFields {
		t.Run(strings.ReplaceAll(f.name, " ", "_"), func(t *testing.T) {
			simulate := func(n int) (int, string) {
				req := &api.SimulateRequest{Code: "li a0, 1", Config: configJSON(t, func(c *sim.Config) { f.set(c, n) })}
				return postCheckpoint(t, h, "/simulate", req, false)
			}
			if status, code := simulate(f.max); status != http.StatusOK {
				t.Fatalf("%s = %d (its bound): %d %s", f.name, f.max, status, code)
			}
			if status, code := simulate(f.past); status != http.StatusUnprocessableEntity || code != api.CodeBadConfig {
				t.Errorf("%s = %d on /simulate: %d %q, want 422 %q", f.name, f.past, status, code, api.CodeBadConfig)
			}

			ck := withConfig(t, blob, *configJSON(t, func(c *sim.Config) { f.set(c, f.past) }))
			if _, err := sim.Restore(bytes.NewReader(ck)); !errors.Is(err, ckpt.ErrCorrupt) || !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s = %d in a checkpoint header: restore error %v, want ckpt.ErrCorrupt naming the field", f.name, f.past, err)
			}
			req := &api.SessionRestoreRequest{Checkpoint: ck}
			if status, code := postCheckpoint(t, h, "/session/restore", req, false); status != http.StatusBadRequest || code != api.CodeBadCheckpoint {
				t.Errorf("%s = %d on /session/restore: %d %q, want 400 %q", f.name, f.past, status, code, api.CodeBadCheckpoint)
			}
		})
	}
}
