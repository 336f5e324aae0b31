package stats

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"riscvsim/internal/cache"
	"riscvsim/internal/ckpt"
	"riscvsim/internal/config"
	"riscvsim/internal/isa"
	"riscvsim/internal/memory"
	"riscvsim/internal/predictor"
	"riscvsim/internal/rename"
)

// intervalCounters builds a synthetic interval ledger scaled by f.
func intervalCounters(f uint64) Counters {
	cycles := 1000 * f
	return Counters{
		Cycles:       cycles,
		Committed:    1300 * f,
		Fetched:      1700 * f,
		Squashed:     90 * f,
		Flops:        17 * f,
		ROBFlushes:   3 * f,
		FetchStalls:  40 * f,
		DecodeStalls: 30 * f,
		CommitStalls: 20 * f,
		WindowStalls: 5 * f,
		ROBOccSum:    12 * cycles,
		WindowOccSum: 3 * cycles,
		DynamicMix:   [isa.NumInstrTypes]uint64{isa.TypeArithmetic: 900 * f, isa.TypeLoad: 400 * f},
		FUs: []FUCounters{
			{BusyCycles: 700 * f, ExecCount: 800 * f},
			{BusyCycles: 300 * f, ExecCount: 350 * f},
		},
		LSU:       LSUStat{Loads: 400 * f, Stores: 90 * f, Forwards: 8 * f},
		Predictor: predictor.Stats{Predictions: 200 * f, Correct: 180 * f, Mispredicts: 20 * f, BTBHits: 11 * f, BTBMisses: 7 * f},
		Cache:     cache.Stats{Accesses: 400 * f, Hits: 380 * f, Misses: 20 * f, Evictions: 6 * f, Writebacks: 4 * f},
		Memory:    memory.Stats{Reads: 30 * f, Writes: 12 * f, BytesRead: 960 * f, BytesWritten: 384 * f},
		Rename:    rename.Counters{Allocations: 1200 * f, StallsEmpty: 2 * f},
	}
}

// testFacts describes a two-unit architecture at 100 MHz.
func testFacts() Facts {
	return Facts{
		Arch: &config.CPU{
			Name:        "test-arch",
			CoreClockHz: 1e8,
			Units:       []config.FUSpec{{Name: "FX0", Class: "FX"}, {Name: "L/S", Class: "LS"}},
		},
		StaticMix: [isa.NumInstrTypes]uint64{isa.TypeArithmetic: 10, isa.TypeLoad: 5},
	}
}

func countersEqual(t *testing.T, ctx string, got, want Counters) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s:\n got %+v\nwant %+v", ctx, got, want)
	}
}

// TestMergeAssociative: a + (b + c) == (a + b) + c on intervals of very
// different sizes, and so are the documents derived from them.
func TestMergeAssociative(t *testing.T) {
	a, b, c := intervalCounters(1), intervalCounters(37), intervalCounters(5000)
	left, right := a.Add(b).Add(c), a.Add(b.Add(c))
	countersEqual(t, "associativity", left, right)
	f := testFacts()
	f.HaltReason = "pipeline empty"
	if l, r := NewReport(&left, f), NewReport(&right, f); !reflect.DeepEqual(l, r) {
		t.Errorf("derived documents differ:\n%+v\n%+v", l, r)
	}
}

// TestMergeNilIdentity: the zero ledger is the fold seed, on either side.
func TestMergeNilIdentity(t *testing.T) {
	a := intervalCounters(7)
	countersEqual(t, "zero left", Counters{}.Add(a), a)
	countersEqual(t, "zero right", a.Add(Counters{}), a)
	countersEqual(t, "minus zero", a.Sub(Counters{}), a)
}

// TestDiffMergeRoundTrip: prefix + (full − prefix) == full, the
// split-at-any-boundary identity.
func TestDiffMergeRoundTrip(t *testing.T) {
	prefix, full := intervalCounters(3), intervalCounters(11)
	countersEqual(t, "round trip", prefix.Add(full.Sub(prefix)), full)
}

// TestDiffSaturates: a misordered Sub degrades to zeros, it does not wrap.
func TestDiffSaturates(t *testing.T) {
	small, big := intervalCounters(2), intervalCounters(5)
	want := Counters{FUs: make([]FUCounters, 2)}
	countersEqual(t, "misordered", small.Sub(big), want)
}

// TestMergeDoesNotAliasInputs: a result's slices are its own.
func TestMergeDoesNotAliasInputs(t *testing.T) {
	a, b := intervalCounters(2), intervalCounters(3)
	for name, got := range map[string]Counters{"add": a.Add(b), "sub": b.Sub(a), "add zero": a.Add(Counters{})} {
		got.FUs[0].BusyCycles = 1
		if a.FUs[0].BusyCycles == 1 || b.FUs[0].BusyCycles == 1 {
			t.Errorf("%s: result FUs alias an input", name)
		}
	}
}

// TestNewReportRates pins every derived rate on round numbers, and the
// zero-cycle document (a machine that has not stepped) to all zeros.
func TestNewReportRates(t *testing.T) {
	c := intervalCounters(1)
	r := NewReport(&c, testFacts())
	wall := float64(1000) / 1e8
	for _, tc := range []struct {
		name      string
		got, want float64
	}{
		{"ipc", r.IPC, 1.3},
		{"wallTimeSec", r.WallTimeSec, wall},
		{"flopsPerSec", r.FlopsPerSec, 17 / wall},
		{"robMeanOccupancy", r.ROBOccupancy, 12},
		{"windowMeanOccupancy", r.WindowOccup, 0.75},
		{"predictorAccuracy", r.PredAccuracy, 0.9},
		{"cacheHitRate", r.CacheHitRate, 0.95},
		{"FX0 busyPct", r.FUs[0].BusyPct, 70},
		{"L/S busyPct", r.FUs[1].BusyPct, 30},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
	if r.FUs[1].Name != "L/S" || r.FUs[1].Class != "LS" || r.Architecture != "test-arch" {
		t.Errorf("facts not carried: %+v", r)
	}
	if r.StaticMix["kLoad"] != 5 || r.DynamicMix["kArithmetic"] != 900 || len(r.DynamicMix) != 2 {
		t.Errorf("mixes: static %v dynamic %v", r.StaticMix, r.DynamicMix)
	}

	zero := Counters{FUs: make([]FUCounters, 2)}
	walkNumbers(reflect.ValueOf(NewReport(&zero, Facts{Arch: testFacts().Arch})).Elem(), "", func(path string, v reflect.Value) {
		if !v.IsZero() {
			t.Errorf("zero-cycle report: %s = %v, want 0", path, v)
		}
	})
}

// walkNumbers visits every numeric leaf of a document.
func walkNumbers(v reflect.Value, path string, visit func(path string, v reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			walkNumbers(v.Field(i), path+"."+v.Type().Field(i).Name, visit)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			walkNumbers(v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
	case reflect.Map:
		for _, k := range v.MapKeys() {
			walkNumbers(v.MapIndex(k), fmt.Sprintf("%s[%v]", path, k), visit)
		}
	case reflect.String:
	default:
		visit(path, v)
	}
}

// TestReportCompleteness: the document and the ledger cannot drift apart.
// With every counter set to a distinct value, every integer in the
// document must carry one of those values (a uint64 added to Report
// without a Counters source reads 0 and fails here instead of after a
// stitch) and every rate must be non-zero; and a change to any single
// counter must change the document (a counter nobody publishes fails).
// The rename gauges come from Facts and are excepted by name.
func TestReportCompleteness(t *testing.T) {
	gauges := map[string]bool{".Rename.InUse": true, ".Rename.Free": true}

	c := Counters{FUs: make([]FUCounters, 2)}
	var leaves []reflect.Value
	values := map[uint64]string{}
	walkNumbers(reflect.ValueOf(&c).Elem(), "", func(path string, v reflect.Value) {
		n := uint64(1000 + len(leaves))
		v.SetUint(n)
		values[n] = path
		leaves = append(leaves, v)
	})
	f := testFacts()
	base := NewReport(&c, f)
	walkNumbers(reflect.ValueOf(base).Elem(), "", func(path string, v reflect.Value) {
		switch {
		case gauges[path] || strings.HasPrefix(path, ".StaticMix"):
		case v.CanUint():
			if _, ok := values[v.Uint()]; !ok {
				t.Errorf("Report%s = %d is not the value of any Counters field", path, v.Uint())
			}
		case v.CanFloat():
			if v.Float() == 0 {
				t.Errorf("Report%s is 0 with every counter set: no derivation in NewReport", path)
			}
		default:
			t.Errorf("Report%s: unexpected %s leaf", path, v.Kind())
		}
	})

	for _, leaf := range leaves {
		old := leaf.Uint()
		leaf.SetUint(old + 7)
		if reflect.DeepEqual(NewReport(&c, f), base) {
			t.Errorf("Counters%s does not reach the document", values[old])
		}
		leaf.SetUint(old)
	}
}

// TestLedgerRoundTrip: with every leaf set to a distinct value, the
// ledger decodes to what it encoded, so a field added to Counters crosses
// a checkpoint with no codec edit. FUs has the machine's length, so no
// length travels: the section is one varint per leaf, and read into a
// machine of another unit count it does not end where it was written.
func TestLedgerRoundTrip(t *testing.T) {
	c := Counters{FUs: make([]FUCounters, 3)}
	n := uint64(0)
	walkNumbers(reflect.ValueOf(&c).Elem(), "", func(_ string, v reflect.Value) {
		n++
		v.SetUint(n<<40 | n)
	})
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	c.EncodeState(w)
	if w.Err() != nil {
		t.Fatal(w.Err())
	}

	got := Counters{FUs: make([]FUCounters, 3)}
	r := ckpt.NewReader(bytes.NewReader(buf.Bytes()))
	got.DecodeState(r)
	r.End()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	countersEqual(t, "round trip", got, c)
	if want := 1 + int(n)*binary.PutUvarint(make([]byte, binary.MaxVarintLen64), n<<40|n); buf.Len() > want {
		t.Errorf("ledger of %d leaves encodes to %d bytes, more than the tag and %d varints", n, buf.Len(), n)
	}

	for _, tc := range []struct {
		units int
		want  error
	}{{2, ckpt.ErrCorrupt}, {4, ckpt.ErrTruncated}} {
		other := Counters{FUs: make([]FUCounters, tc.units)}
		r := ckpt.NewReader(bytes.NewReader(buf.Bytes()))
		other.DecodeState(r)
		r.End()
		if !errors.Is(r.Err(), tc.want) {
			t.Errorf("3 units into a machine of %d: err = %v, want %v", tc.units, r.Err(), tc.want)
		}
	}
}
