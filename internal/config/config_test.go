package config

import (
	"strings"
	"testing"

	"riscvsim/internal/predictor"
)

func TestPresetsValidate(t *testing.T) {
	for name, c := range Presets() {
		if errs := c.Validate(); len(errs) > 0 {
			t.Errorf("preset %q invalid: %v", name, errs)
		}
	}
	for _, w := range []int{1, 2, 4, 8} {
		c, err := WidthPreset(w)
		if err != nil {
			t.Fatalf("WidthPreset(%d): %v", w, err)
		}
		if errs := c.Validate(); len(errs) > 0 {
			t.Errorf("WidthPreset(%d) invalid: %v", w, errs)
		}
		if c.FetchWidth != w || c.CommitWidth != w {
			t.Errorf("WidthPreset(%d) has width %d/%d", w, c.FetchWidth, c.CommitWidth)
		}
	}
	if _, err := WidthPreset(3); err == nil {
		t.Error("WidthPreset(3) should fail")
	}
}

func TestValidateCatchesEveryTab(t *testing.T) {
	cases := []struct {
		mutate  func(*CPU)
		wantSub string
	}{
		{func(c *CPU) { c.ROBSize = 0 }, "robSize"},
		{func(c *CPU) { c.FetchWidth = -1 }, "fetchWidth"},
		{func(c *CPU) { c.CommitWidth = 0 }, "commitWidth"},
		{func(c *CPU) { c.FlushPenalty = -2 }, "flushPenalty"},
		{func(c *CPU) { c.JumpsPerCycle = 0 }, "jumpsPerCycle"},
		{func(c *CPU) { c.FXWindow = 0 }, "fxWindow"},
		{func(c *CPU) { c.LoadBufferSize = 0 }, "loadBufferSize"},
		{func(c *CPU) { c.RenameRegisters = 1 }, "renameRegisters"},
		{func(c *CPU) { c.Units = nil }, "functional unit"},
		{func(c *CPU) { c.Units[0].Class = "XX" }, "unknown class"},
		{func(c *CPU) { c.Units = c.Units[:1] }, "no LS unit"},
		{func(c *CPU) { c.Cache.LineSize = 3 }, "LineSize"},
		{func(c *CPU) { c.Memory.Size = 0 }, "memory size"},
		{func(c *CPU) { c.Predictor.BTBSize = 0 }, "BTBSize"},
		{func(c *CPU) { c.CoreClockHz = 0 }, "coreClockHz"},
		{func(c *CPU) { c.Units[1].Name = c.Units[0].Name }, "duplicate unit"},
	}
	for i, tc := range cases {
		c := Default()
		tc.mutate(c)
		errs := c.Validate()
		if len(errs) == 0 {
			t.Errorf("case %d: expected validation error containing %q", i, tc.wantSub)
			continue
		}
		found := false
		for _, e := range errs {
			if strings.Contains(e.Error(), tc.wantSub) {
				found = true
			}
		}
		if !found {
			t.Errorf("case %d: errors %v missing substring %q", i, errs, tc.wantSub)
		}
	}
}

func TestValidateCollectsMultipleErrors(t *testing.T) {
	c := Default()
	c.ROBSize = 0
	c.FetchWidth = 0
	c.CoreClockHz = 0
	if errs := c.Validate(); len(errs) < 3 {
		t.Errorf("expected at least 3 errors, got %d: %v", len(errs), errs)
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	orig := Wide4()
	data, err := orig.Export()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Import(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || got.ROBSize != orig.ROBSize ||
		got.FetchWidth != orig.FetchWidth || len(got.Units) != len(orig.Units) ||
		got.Cache.Lines != orig.Cache.Lines || got.Predictor.PHTSize != orig.Predictor.PHTSize {
		t.Errorf("round trip changed the configuration")
	}
	if got.Units[0].Ops["add"] != orig.Units[0].Ops["add"] {
		t.Error("per-op latencies lost in round trip")
	}
}

func TestImportRejectsBadJSON(t *testing.T) {
	if _, err := Import([]byte("not json")); err == nil {
		t.Error("Import should reject malformed JSON")
	}
	if _, err := Import([]byte(`{"robSize": -1}`)); err == nil {
		t.Error("Import should reject invalid configurations")
	}
	if _, err := Import([]byte(`{"unknownField": 1}`)); err == nil {
		t.Error("Import should reject unknown fields")
	}
}

func TestFUSpecLatencies(t *testing.T) {
	u := FUSpec{Name: "FX0", Class: "FX", Latency: 2, Ops: map[string]int{"div": 16}}
	if !u.Supports("div") {
		t.Error("unit should support listed op")
	}
	if u.Supports("add") {
		t.Error("unit with Ops must not support unlisted ops")
	}
	if u.LatencyFor("div") != 16 {
		t.Error("per-op latency not used")
	}
	open := FUSpec{Name: "FX1", Class: "FX", Latency: 2}
	if !open.Supports("anything") || open.LatencyFor("anything") != 2 {
		t.Error("unit without Ops should support everything at default latency")
	}
}

func TestScalarPresetIsNarrow(t *testing.T) {
	c := Scalar()
	if c.FetchWidth != 1 || c.CommitWidth != 1 {
		t.Error("scalar preset must be 1-wide")
	}
	if c.Predictor.Kind != predictor.OneBit {
		t.Error("scalar preset should use the simple one-bit predictor")
	}
}

// TestRetiredKeysRejected: maxLogEntries and snapshotInterval were a
// debug-log bound and a rewind spacing, not parts of the processor, and
// left the document. A document naming either is refused with the key
// named, and no preset's export spells either.
func TestRetiredKeysRejected(t *testing.T) {
	for _, key := range []string{"maxLogEntries", "snapshotInterval"} {
		doc, err := Default().Export()
		if err != nil {
			t.Fatal(err)
		}
		doc = []byte(strings.Replace(string(doc), "{", `{"`+key+`": 8,`, 1))
		if c, err := Import(doc); c != nil || err == nil || !strings.Contains(err.Error(), `unknown field "`+key+`"`) {
			t.Errorf("document naming %s: Import = %v, %v; want an error naming the key", key, c, err)
		}
		for name, c := range Presets() {
			if data, _ := c.Export(); strings.Contains(string(data), key) {
				t.Errorf("preset %q exports %s", name, key)
			}
		}
	}
}
