package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"riscvsim/internal/api"
	"riscvsim/internal/ckpt"
	"riscvsim/internal/config"
	"riscvsim/sim"
)

// boundedField is a row of config.Schema with an upper bound. set writes
// n into the field (the unit count in FX units); past is the first value
// beyond the bound that the document's other checks accept, so that only
// the bound can reject it.
type boundedField struct {
	name, path string
	max, past  int
	set        func(c *sim.Config, n int)
}

// boundedFields derives the bounded rows of config.Schema and the
// document that holds every one of them at its bound at once, on which
// each field is pushed past its own.
func boundedFields(t *testing.T) ([]boundedField, *sim.Config) {
	t.Helper()
	var out []boundedField
	for _, f := range config.Schema {
		set := func(c *sim.Config, n int) { *f.Of(c) = n }
		switch {
		case f.Hi == config.Unbounded:
			continue
		case f.Path == "units":
			set = func(c *sim.Config, n int) {
				for i := len(c.Units); i < n; i++ {
					c.Units = append(c.Units, config.FUSpec{Name: fmt.Sprintf("FXX%d", i), Class: "FX", Latency: 1})
				}
			}
		case f.Of == nil:
			continue
		}
		out = append(out, boundedField{name: f.Path[strings.LastIndexByte(f.Path, '.')+1:], path: f.Path, max: f.Hi, set: set})
	}
	atMax := sim.DefaultConfig()
	for _, f := range out {
		f.set(atMax, f.max)
	}
	if errs := atMax.Validate(); len(errs) > 0 {
		t.Fatalf("every bounded field at its bound: %v", errs)
	}
	for i := range out {
		f := &out[i]
		for f.past = f.max + 1; ; f.past++ {
			c := *atMax
			c.Units = slices.Clone(atMax.Units)
			f.set(&c, f.past)
			if len(c.Validate()) == 1 {
				break
			}
			if f.past > 2*f.max+1 {
				t.Fatalf("%s: no value past %d fails the bound alone", f.path, f.max)
			}
		}
	}
	return out, atMax
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

// TestConfigBoundsOnEveryRoute: a document with every bounded field of
// config.Schema at its bound is simulated; one with a field past it is
// refused as 422 bad_config on /simulate and, inside a re-sealed
// checkpoint header, as ckpt.ErrCorrupt and 400 bad_checkpoint on
// /session/restore.
func TestConfigBoundsOnEveryRoute(t *testing.T) {
	h := New(DefaultOptions()).Handler()
	blob := checkpointBytes(t, steppedMachine(t, 10))
	intact := withConfig(t, blob, *configJSON(t, func(*sim.Config) {}))
	if _, err := sim.Restore(bytes.NewReader(intact)); err != nil {
		t.Fatalf("checkpoint re-sealed with its own configuration: %v", err)
	}
	fields, atMax := boundedFields(t)
	with := func(f boundedField, n int) func(*sim.Config) {
		return func(c *sim.Config) {
			*c = *atMax
			c.Units = slices.Clone(atMax.Units)
			f.set(c, n)
		}
	}
	simulate := func(set func(*sim.Config)) (int, string) {
		return postCheckpoint(t, h, "/simulate", &api.SimulateRequest{Code: "li a0, 1", Config: configJSON(t, set)}, false)
	}
	if status, code := simulate(with(fields[0], fields[0].max)); status != http.StatusOK {
		t.Fatalf("every bounded field at its bound: %d %s", status, code)
	}
	for _, f := range fields {
		t.Run(f.name, func(t *testing.T) {
			if status, code := simulate(with(f, f.past)); status != http.StatusUnprocessableEntity || code != api.CodeBadConfig {
				t.Errorf("%s = %d on /simulate: %d %q, want 422 %q", f.path, f.past, status, code, api.CodeBadConfig)
			}
			ck := withConfig(t, blob, *configJSON(t, with(f, f.past)))
			if _, err := sim.Restore(bytes.NewReader(ck)); !errors.Is(err, ckpt.ErrCorrupt) || !strings.Contains(err.Error(), f.path) {
				t.Errorf("%s = %d in a checkpoint header: restore error %v, want ckpt.ErrCorrupt naming the field", f.path, f.past, err)
			}
			req := &api.SessionRestoreRequest{Checkpoint: ck}
			if status, code := postCheckpoint(t, h, "/session/restore", req, false); status != http.StatusBadRequest || code != api.CodeBadCheckpoint {
				t.Errorf("%s = %d on /session/restore: %d %q, want 400 %q", f.path, f.past, status, code, api.CodeBadCheckpoint)
			}
		})
	}
}

// refusedOnEveryRoute checks that doc is a diagnostic naming want on
// /checkConfig, 422 bad_config on /simulate and, inside a re-sealed
// checkpoint header, ckpt.ErrCorrupt naming want and 400 bad_checkpoint
// on /session/restore.
func refusedOnEveryRoute(t *testing.T, h http.Handler, blob []byte, doc json.RawMessage, want string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, api.V1Prefix+"/checkConfig", bytes.NewReader(doc)))
	var check api.ParseAsmResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &check); err != nil || rec.Code != http.StatusOK || check.OK || !strings.Contains(check.Errors, want) {
		t.Errorf("%s on /checkConfig: %d %s, want 200 with ok false naming it", want, rec.Code, rec.Body.Bytes())
	}
	if status, code := postCheckpoint(t, h, "/simulate", &api.SimulateRequest{Code: "li a0, 1", Config: &doc}, false); status != http.StatusUnprocessableEntity || code != api.CodeBadConfig {
		t.Errorf("%s on /simulate: %d %q, want 422 %q", want, status, code, api.CodeBadConfig)
	}
	ck := withConfig(t, blob, doc)
	if _, err := sim.Restore(bytes.NewReader(ck)); !errors.Is(err, ckpt.ErrCorrupt) || !strings.Contains(err.Error(), want) {
		t.Errorf("%s in a checkpoint header: restore error %v, want ckpt.ErrCorrupt naming it", want, err)
	}
	if status, code := postCheckpoint(t, h, "/session/restore", &api.SessionRestoreRequest{Checkpoint: ck}, false); status != http.StatusBadRequest || code != api.CodeBadCheckpoint {
		t.Errorf("%s on /session/restore: %d %q, want 400 %q", want, status, code, api.CodeBadCheckpoint)
	}
}

// TestRetiredConfigKeysOnEveryRoute: a document naming maxLogEntries or
// snapshotInterval, keys the architecture document no longer has, is
// refused on every route that takes one.
func TestRetiredConfigKeysOnEveryRoute(t *testing.T) {
	h := New(DefaultOptions()).Handler()
	blob := checkpointBytes(t, steppedMachine(t, 10))
	for _, key := range []string{"maxLogEntries", "snapshotInterval"} {
		doc := json.RawMessage(strings.Replace(string(*configJSON(t, func(*sim.Config) {})), "{", `{"`+key+`": 8,`, 1))
		refusedOnEveryRoute(t, h, blob, doc, key)
	}
}

// TestEnumHolesOnEveryRoute: an enum number past its type's last member
// is refused on every route that takes a document, with the cache enabled
// or not. Each of these ran at one time: "Write": 5 wrote nothing back,
// "Replacement": 9 ran LRU and reported policy(9), and "Kind": 7 with
// DefaultState 1 never predicted taken.
func TestEnumHolesOnEveryRoute(t *testing.T) {
	h := New(DefaultOptions()).Handler()
	blob := checkpointBytes(t, steppedMachine(t, 10))
	for path, set := range map[string]func(*sim.Config){
		"cache.Write":       func(c *sim.Config) { c.Cache.Write = 5 },
		"cache.Replacement": func(c *sim.Config) { c.Cache.Replacement = 9 },
		"predictor.Kind":    func(c *sim.Config) { c.Predictor.Kind, c.Predictor.DefaultState = 7, 1 },
	} {
		for _, enabled := range []bool{true, false} {
			refusedOnEveryRoute(t, h, blob, *configJSON(t, func(c *sim.Config) { c.Cache.Enabled = enabled; set(c) }), path)
		}
	}
}
