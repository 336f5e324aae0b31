package stats

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"riscvsim/internal/cache"
	"riscvsim/internal/jsonenc"
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

// TestAppendJSONMatchesReflection: the report's own encoder writes the
// bytes encoding/json writes, across float magnitudes either side of the
// switch to exponent form, text that needs escaping, absent and empty
// mixes and unit lists, and reads back through DecodeJSON to the same
// report.
func TestAppendJSONMatchesReflection(t *testing.T) {
	floats := []float64{0, 1, 1.5, 1e-5, 1e-6, 9.99e-7, 1e-7, 1.25e-9, 5e-324, 1e20, 1e21, 3.4e38,
		math.MaxFloat64, 123456.789, 0.1 + 0.2, math.Copysign(0, -1), -2.5e-8}
	var reps []*Report
	for i, f := range floats {
		r := sampleReport()
		r.IPC, r.WallTimeSec, r.FlopsPerSec = f, floats[(i+1)%len(floats)], floats[(i+2)%len(floats)]
		r.PredAccuracy, r.CacheHitRate = floats[(i+3)%len(floats)], floats[(i+4)%len(floats)]
		r.ROBOccupancy, r.WindowOccup = floats[(i+5)%len(floats)], floats[(i+6)%len(floats)]
		r.FUs[0].BusyPct = floats[(i+7)%len(floats)]
		reps = append(reps, r)
	}
	odd := sampleReport()
	odd.Architecture = "<a&b> \"quoted\" \u2028 \xff"
	odd.HaltReason, odd.ExceptionMsg = "pipeline empty", "line 3: <bad>"
	odd.StaticMix, odd.DynamicMix = nil, map[string]uint64{}
	odd.FUs = nil
	odd.Rename.InUse, odd.Rename.Free = -1, 1<<40
	odd.LSU.Loads, odd.Memory.BytesWritten = math.MaxUint64, 7
	reps = append(reps, odd, &Report{}, &Report{FUs: []FUStat{}})
	for i, r := range reps {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.AppendJSON([]byte("prefix"))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "prefix"+string(want) {
			t.Fatalf("report %d:\n got %s\nwant prefix%s", i, got, want)
		}
		back := new(Report)
		rd := jsonenc.NewReader(want)
		back.DecodeJSON(&rd)
		if !rd.End() {
			t.Fatalf("report %d: own decoder refuses %s", i, want)
		}
		var ref Report
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, &ref) {
			t.Errorf("report %d decodes to %+v, encoding/json to %+v", i, back, &ref)
		}
	}
}

// TestAppendJSONRefusesWhatReflectionRefuses: a NaN or infinite rate —
// an infinite wall time needs only a clock below 1 Hz and enough cycles —
// fails the encoder with encoding/json's error, wherever the rate sits.
func TestAppendJSONRefusesWhatReflectionRefuses(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, set := range []func(r *Report){
			func(r *Report) { r.IPC = bad },
			func(r *Report) { r.WallTimeSec = bad },
			func(r *Report) { r.FUs[0].BusyPct = bad },
			func(r *Report) { r.WindowOccup = bad },
		} {
			r := sampleReport()
			set(r)
			_, want := json.Marshal(r)
			_, got := r.AppendJSON(nil)
			if want == nil || got == nil || got.Error() != want.Error() {
				t.Errorf("%v: AppendJSON error %v, encoding/json %v", bad, got, want)
			}
			var uv *json.UnsupportedValueError
			if !errors.As(got, &uv) {
				t.Errorf("%v: AppendJSON error %T, want *json.UnsupportedValueError", bad, got)
			}
		}
	}
}
