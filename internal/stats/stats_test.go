package stats

import (
	"encoding/json"
	"strings"
	"testing"

	"riscvsim/internal/cache"
	"riscvsim/internal/predictor"
)

func sampleReport() *Report {
	return &Report{
		Architecture: "test-arch",
		Cycles:       1000,
		Committed:    1500,
		Fetched:      1600,
		Squashed:     50,
		IPC:          1.5,
		WallTimeSec:  1e-5,
		Flops:        42,
		ROBFlushes:   3,
		StaticMix:    map[string]uint64{"kArithmetic": 10, "kLoad": 5},
		DynamicMix:   map[string]uint64{"kArithmetic": 900, "kLoad": 400, "kJumpbranch": 200},
		FUs: []FUStat{
			{Name: "FX0", Class: "FX", BusyCycles: 700, BusyPct: 70, ExecCount: 800},
		},
		Predictor:    predictor.Stats{Predictions: 200, Correct: 180, Mispredicts: 20},
		PredAccuracy: 0.9,
		Cache:        cache.Stats{Accesses: 400, Hits: 380, Misses: 20},
		CacheHitRate: 0.95,
	}
}

func TestFormatTextSections(t *testing.T) {
	text := sampleReport().FormatText()
	for _, want := range []string{
		"test-arch",
		"total executed cycles",
		"IPC",
		"Instruction mix",
		"kArithmetic",
		"Functional units",
		"FX0",
		"Branch prediction",
		"90.00%",
		"L1 cache",
		"95.00%",
		"reorder buffer flushes",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := sampleReport()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Cycles != r.Cycles || back.IPC != r.IPC ||
		back.DynamicMix["kArithmetic"] != 900 || len(back.FUs) != 1 {
		t.Error("JSON round trip lost data")
	}
}

func TestPercentHelper(t *testing.T) {
	if pct(1, 4) != 25 {
		t.Error("pct(1,4) != 25")
	}
	if pct(1, 0) != 0 {
		t.Error("pct with zero total should be 0")
	}
}

func TestEmptyReportFormats(t *testing.T) {
	var r Report
	if text := r.FormatText(); text == "" {
		t.Error("empty report should still render")
	}
}
