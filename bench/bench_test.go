package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"riscvsim/internal/api"
	"riscvsim/internal/server"
	"riscvsim/internal/store"
)

// smokeWindow is a hundredth of the reference run length: long enough
// for every workload to complete operations, short enough for the whole
// file to run in seconds.
const smokeWindow = 200 * time.Millisecond

var nameCharset = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func testRoot(t *testing.T) string {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// smoke runs one workload in one mode at the smoke scale and checks the
// result line: no failed op, every metric of the mode present with the
// declared unit, finite, and validly named.
func smoke(t *testing.T, def workloadDef, traced bool, seed int64) *result {
	t.Helper()
	var log bytes.Buffer
	res, err := runWorkload(def, seed, smokeWindow, traced, 1, testRoot(t), &log)
	if err != nil {
		t.Fatalf("%s: %v", def.name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", def.name, res.Correct, res.Attempted, res.Failed, log.String())
	}
	spec := endToEnd
	if traced {
		spec = perLayer
	}
	if len(res.Metrics) != len(spec) {
		t.Errorf("%s: %d metrics reported, %d named", def.name, len(res.Metrics), len(spec))
	}
	for _, m := range spec {
		got, ok := res.Metrics[m.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", def.name, m.name)
		case got.Unit != m.unit:
			t.Errorf("%s: metric %s has unit %q, want %q", def.name, m.name, got.Unit, m.unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s = %v", def.name, m.name, got.Value)
		case !traced && got.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, must be positive", def.name, m.name, got.Value)
		}
		if !nameCharset.MatchString(m.name) {
			t.Errorf("metric name %q outside the allowed charset", m.name)
		}
	}
	return res
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) { smoke(t, def, false, 1) })
	}
}

// TestSmokeTraced also holds the written trace to its shape: a child
// lies inside its parent and shares its request ID, and the children of
// a span never cover more than the span (self time is not negative).
func TestSmokeTraced(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			smoke(t, def, true, 1)
			data, err := os.ReadFile(filepath.Join(outDir(testRoot(t)), "trace_"+def.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) == 0 {
				t.Fatal("trace holds no spans")
			}
			byID := make(map[int]span, len(tf.Spans))
			for _, s := range tf.Spans {
				if _, dup := byID[s.ID]; dup {
					t.Fatalf("span id %d used twice", s.ID)
				}
				byID[s.ID] = s
			}
			covered := make(map[int]int64)
			children := 0
			for _, s := range tf.Spans {
				if s.End < s.Start {
					t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
				}
				if s.Parent == 0 {
					continue
				}
				children++
				p, ok := byID[s.Parent]
				switch {
				case !ok:
					t.Errorf("span %d (%s) names a missing parent %d", s.ID, s.Name, s.Parent)
				case p.Req != s.Req:
					t.Errorf("span %d (%s) has request %d, its parent %d", s.ID, s.Name, s.Req, p.Req)
				case s.Start < p.Start || s.End > p.End:
					t.Errorf("span %d (%s) is not inside its parent %s", s.ID, s.Name, p.Name)
				}
				covered[s.Parent] += s.End - s.Start
			}
			if children == 0 {
				t.Error("trace has no child spans")
			}
			for id, c := range covered {
				if p := byID[id]; c > p.End-p.Start {
					t.Errorf("children of span %d (%s) cover %d ns of its %d", id, p.Name, c, p.End-p.Start)
				}
			}
		})
	}
}

// TestNamesMatchBenchmarkFile holds the names and units the program
// reports to the ones BENCHMARK.json declares.
func TestNamesMatchBenchmarkFile(t *testing.T) {
	f, err := readBenchmarkFile(testRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the program has %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json says %s [%s], the program %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the program has %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json says %s [%s], the program %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// exactCounts are the per-layer metrics that count work: they depend on
// the seed and the request list only, so two runs must agree bit for bit.
var exactCounts = []string{
	"core.cycles", "core.committed", "asm.instrs", "api.req_bytes", "api.resp_bytes", "sim.ckpt_bytes", "sim.snapshots",
}

func TestExactCountsRepeat(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			a, b := smoke(t, def, true, 7), smoke(t, def, true, 7)
			for _, name := range exactCounts {
				if a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("%s differs between two runs of seed 7: %v vs %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
		})
	}
}

// requestListHash digests the first n requests of every client.
func requestListHash(b *simulateBench, n int) uint64 {
	h := fnv.New64a()
	for c := range b.picks {
		for i := 0; i < n; i++ {
			_, req, id := b.request(c, i)
			fmt.Fprintf(h, "%d %s %d\n%s\n", id, req.Language, req.Optimize, req.Code)
		}
	}
	return h.Sum64()
}

func scriptListHash(b *sessionBench, n int) uint64 {
	h := fnv.New64a()
	for c := 0; c < b.clients; c++ {
		for i := 0; i < n; i++ {
			sc := b.scriptFor(c, i)
			fmt.Fprintf(h, "%d %s %d %v %v\n", sc.ordinal, sc.prog.name, sc.jump, sc.steps, sc.restore)
		}
	}
	return h.Sum64()
}

// TestSeedDecidesInputs: the same seed gives the same request list; a
// different seed gives unique_simulate different sources but leaves every
// template's cycle count where it was.
func TestSeedDecidesInputs(t *testing.T) {
	for _, unique := range []bool{false, true} {
		a, err := simulateInputs(1, unique)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := simulateInputs(1, unique)
		other, _ := simulateInputs(2, unique)
		if requestListHash(a, 200) != requestListHash(b, 200) {
			t.Errorf("unique=%v: seed 1 gave two different request lists", unique)
		}
		if requestListHash(a, 200) == requestListHash(other, 200) {
			t.Errorf("unique=%v: seeds 1 and 2 gave the same request list", unique)
		}
		for i := range a.templates {
			if a.templates[i].wantCycles != other.templates[i].wantCycles || a.templates[i].wantCommitted != other.templates[i].wantCommitted {
				t.Errorf("unique=%v: template %s runs %d cycles under seed 1, %d under seed 2", unique,
					a.templates[i].name, a.templates[i].wantCycles, other.templates[i].wantCycles)
			}
		}
		if !unique {
			continue
		}
		seen := make(map[string]bool)
		for c := range a.picks {
			for i := 0; i < 200; i++ {
				_, req, _ := a.request(c, i)
				if seen[req.Code] {
					t.Fatalf("unique_simulate repeated a source text at client %d request %d", c, i)
				}
				seen[req.Code] = true
			}
		}
	}
	s1, err := sessionInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	s1b, _ := sessionInputs(1)
	s2, _ := sessionInputs(2)
	if scriptListHash(s1, 16) != scriptListHash(s1b, 16) {
		t.Error("seed 1 gave two different session script lists")
	}
	if scriptListHash(s1, 16) == scriptListHash(s2, 16) {
		t.Error("seeds 1 and 2 gave the same session script list")
	}
	// Whatever the seed, a block of four sessions uses each program once
	// and a script holds the fixed step multiset.
	for _, b := range []*sessionBench{s1, s2} {
		used := make(map[string]int)
		for i := 0; i < 4; i++ {
			sc := b.scriptFor(0, i)
			used[sc.prog.name]++
			var sum int64
			for _, n := range sc.steps {
				sum += n
			}
			if want := int64(stepsFwd1 - stepsBack + 16*stepsFwd16); sum != want {
				t.Errorf("script steps sum to %d, want %d", sum, want)
			}
			if sc.jump < 1 || uint64(sc.jump)+headroom > sc.prog.halt {
				t.Errorf("%s: jump %d leaves no headroom before halt at %d", sc.prog.name, sc.jump, sc.prog.halt)
			}
		}
		if len(used) != len(b.programs) {
			t.Errorf("a block of four sessions used programs %v", used)
		}
	}
}

// The three negative controls: each checker must turn a wrong output into
// a failed op; none may pass silently.

func TestTamperedGoldenRowFails(t *testing.T) {
	b, err := newCorpus(false)(1, testRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	cb := b.(*corpusBench)
	name := cb.order[0].Name
	row := cb.golden[name]
	row.Cycles++
	cb.golden[name] = row
	tally := cb.measure(time.Millisecond) // one pass
	if tally.failed != 1 || tally.attempted != len(cb.order) {
		t.Fatalf("tampered golden row: %d of %d ops failed, want exactly 1", tally.failed, tally.attempted)
	}
	if len(tally.samples) != tally.attempted-1 {
		t.Errorf("the failed op left a latency sample")
	}
}

func TestWrongCyclesReplyFails(t *testing.T) {
	b, err := simulateInputs(1, false)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &b.templates[0]
	reply := func(cycles uint64) *api.SimulateResponse {
		m, aerr := server.BuildMachine(&tmpl.req)
		if aerr != nil {
			t.Fatal(aerr)
		}
		m.Run(50_000_000)
		return &api.SimulateResponse{Halted: m.Halted(), Cycles: cycles, Stats: m.Report()}
	}
	rec := newRecorder(time.Now())
	rec.note(kindSimulate, 1, time.Now(), 0, checkSimulate(tmpl, reply(tmpl.wantCycles)))
	rec.note(kindSimulate, 2, time.Now(), 0, checkSimulate(tmpl, reply(tmpl.wantCycles+1)))
	if rec.attempted != 2 || rec.failed != 1 || len(rec.samples) != 1 {
		t.Fatalf("attempted %d failed %d samples %d; want 2, 1, 1 (first error: %v)", rec.attempted, rec.failed, len(rec.samples), rec.firstErr)
	}
}

func TestFlippedCheckpointByteFails(t *testing.T) {
	b, err := sessionInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	sc := b.scriptFor(0, 0)
	mem := store.NewMem()
	if _, err := replaySession(nil, sc, &replayCounts{}, mem); err != nil {
		t.Fatal(err)
	}
	blob, _, err := mem.Get(sc.storeID())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCheckpoint(sc, blob); err != nil {
		t.Fatalf("the untouched checkpoint fails its own check: %v", err)
	}
	// Flip one bit at several depths: header, middle of the state, tail.
	for _, at := range []int{len(blob) / 10, len(blob) / 2, len(blob) - 20} {
		bad := append([]byte(nil), blob...)
		bad[at] ^= 0x01
		if err := checkCheckpoint(sc, bad); err == nil {
			t.Errorf("checkpoint with byte %d of %d flipped passed the check", at, len(blob))
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}
