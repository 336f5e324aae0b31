package trace

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestStageStringAndParseRoundTrip(t *testing.T) {
	for s := Stage(0); s < numStages; s++ {
		got, err := ParseStage(s.String())
		if err != nil {
			t.Fatalf("ParseStage(%q): %v", s.String(), err)
		}
		if got != s {
			t.Errorf("round trip %v -> %v", s, got)
		}
	}
	if _, err := ParseStage("warp"); err == nil {
		t.Error("ParseStage accepted unknown stage")
	}
}

func TestStageJSONIsName(t *testing.T) {
	data, err := json.Marshal(StageEvent{Cycle: 3, InstrID: 1, Stage: StageWriteback})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"stage":"writeback"`) {
		t.Errorf("stage not marshalled by name: %s", data)
	}
	var ev StageEvent
	if err := json.Unmarshal(data, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Stage != StageWriteback {
		t.Errorf("unmarshalled stage = %v", ev.Stage)
	}
	if err := json.Unmarshal([]byte(`{"stage":"warp"}`), &ev); err == nil {
		t.Error("unmarshal accepted unknown stage name")
	}
}

func TestParseStagesGrammar(t *testing.T) {
	cases := []struct {
		spec string
		want StageMask
		err  bool
	}{
		{"", AllStages, false},
		{"all", AllStages, false},
		{"fetch", StageMask(0).With(StageFetch), false},
		{"fetch, commit", StageMask(0).With(StageFetch).With(StageCommit), false},
		{"commit,squash", StageMask(0).With(StageCommit).With(StageSquash), false},
		{"bogus", 0, true},
		{"fetch,,commit", 0, true},
	}
	for _, c := range cases {
		got, err := ParseStages(c.spec)
		if (err != nil) != c.err {
			t.Errorf("ParseStages(%q) err = %v, want err=%v", c.spec, err, c.err)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseStages(%q) = %v, want %v", c.spec, got, c.want)
		}
	}
}

func TestParsePCRangeGrammar(t *testing.T) {
	cases := []struct {
		spec   string
		lo, hi int
		err    bool
	}{
		{"", 0, -1, false},
		{":", 0, -1, false},
		{"3:9", 3, 9, false},
		{"3:", 3, -1, false},
		{":9", 0, 9, false},
		{"9:3", 0, 0, true},
		{"x:3", 0, 0, true},
		{"7", 0, 0, true},
	}
	for _, c := range cases {
		lo, hi, err := ParsePCRange(c.spec)
		if (err != nil) != c.err {
			t.Errorf("ParsePCRange(%q) err = %v, want err=%v", c.spec, err, c.err)
			continue
		}
		if err == nil && (lo != c.lo || hi != c.hi) {
			t.Errorf("ParsePCRange(%q) = %d:%d, want %d:%d", c.spec, lo, hi, c.lo, c.hi)
		}
	}
}

func TestFilterMatch(t *testing.T) {
	f := Filter{Stages: StageMask(0).With(StageCommit), PCMin: 2, PCMax: 5}
	if !f.Match(&StageEvent{Stage: StageCommit, PC: 3}) {
		t.Error("in-range commit should match")
	}
	if f.Match(&StageEvent{Stage: StageFetch, PC: 3}) {
		t.Error("fetch should not match a commit-only filter")
	}
	if f.Match(&StageEvent{Stage: StageCommit, PC: 1}) || f.Match(&StageEvent{Stage: StageCommit, PC: 6}) {
		t.Error("out-of-range PCs should not match")
	}
	open := Filter{Stages: AllStages, PCMin: 0, PCMax: -1}
	if !open.Match(&StageEvent{Stage: StageSquash, PC: 1 << 20}) {
		t.Error("NoFilter-shaped filter should match everything")
	}
}

func TestRingBoundsAndCounts(t *testing.T) {
	r := NewRing(4, NoFilter)
	for i := 1; i <= 10; i++ {
		r.Trace(StageEvent{Cycle: uint64(i), InstrID: uint64(i), Stage: StageFetch})
	}
	if r.n != 4 || len(r.buf) != 4 {
		t.Fatalf("len/cap = %d/%d", r.n, len(r.buf))
	}
	if r.Total() != 10 || r.Dropped() != 6 {
		t.Errorf("total/dropped = %d/%d, want 10/6", r.Total(), r.Dropped())
	}
	evs := r.Events()
	for i, ev := range evs {
		if want := uint64(7 + i); ev.Cycle != want {
			t.Errorf("event %d cycle = %d, want %d (newest window)", i, ev.Cycle, want)
		}
	}
}

func TestRingFilters(t *testing.T) {
	f := Filter{Stages: StageMask(0).With(StageCommit), PCMin: 0, PCMax: -1}
	r := NewRing(16, f)
	r.Trace(StageEvent{Stage: StageFetch, InstrID: 1})
	r.Trace(StageEvent{Stage: StageCommit, InstrID: 1})
	if r.n != 1 || r.Total() != 1 {
		t.Errorf("filtered ring kept %d events (total %d), want 1", r.n, r.Total())
	}
}

// syntheticRun emits a two-instruction lifetime with a squashed third.
func syntheticRun() []StageEvent {
	mk := func(c, id uint64, pc int, s Stage) StageEvent {
		return StageEvent{Cycle: c, InstrID: id, PC: pc, Disasm: "op", Stage: s}
	}
	return []StageEvent{
		mk(1, 1, 0, StageFetch),
		mk(1, 2, 1, StageFetch),
		mk(2, 1, 0, StageDecode), mk(2, 1, 0, StageRename), mk(2, 1, 0, StageDispatch),
		mk(2, 2, 1, StageDecode), mk(2, 2, 1, StageRename), mk(2, 2, 1, StageDispatch),
		mk(2, 3, 2, StageFetch),
		mk(3, 1, 0, StageIssue),
		mk(4, 1, 0, StageExecute), mk(4, 1, 0, StageWriteback),
		mk(4, 2, 1, StageIssue),
		mk(5, 2, 1, StageExecute), mk(5, 2, 1, StageWriteback),
		mk(5, 1, 0, StageCommit),
		mk(6, 2, 1, StageCommit),
		mk(6, 3, 2, StageSquash),
	}
}

func TestLifetimesReconstruction(t *testing.T) {
	lts := Lifetimes(syntheticRun())
	if len(lts) != 3 {
		t.Fatalf("got %d lifetimes, want 3", len(lts))
	}
	one := lts[0]
	if one.InstrID != 1 || one.Stages[StageFetch] != 1 || one.Stages[StageCommit] != 5 {
		t.Errorf("instr 1 lifetime wrong: %+v", one)
	}
	if one.First() != 1 || one.Last() != 5 {
		t.Errorf("instr 1 window = [%d,%d], want [1,5]", one.First(), one.Last())
	}
	if !lts[2].Squashed {
		t.Error("instr 3 should be squashed")
	}
	if st, ok := one.StageAt(3); !ok || st != StageIssue {
		t.Errorf("instr 1 at cycle 3 = %v/%v, want issue", st, ok)
	}
}

func TestOccupancySnapshot(t *testing.T) {
	lts := Lifetimes(syntheticRun())
	occ := Occupancy(lts, 4)
	if len(occ) != 3 {
		t.Fatalf("cycle-4 occupancy = %d instructions, want 3 (wrong-path #3 is in flight until its squash)", len(occ))
	}
	if occ[0].InstrID != 1 || occ[0].Stage != StageWriteback {
		t.Errorf("occ[0] = %+v, want instr 1 in writeback", occ[0])
	}
	if occ[1].InstrID != 2 || occ[1].Stage != StageIssue {
		t.Errorf("occ[1] = %+v, want instr 2 in issue", occ[1])
	}
	if occ[2].InstrID != 3 || occ[2].Stage != StageFetch {
		t.Errorf("occ[2] = %+v, want instr 3 still in fetch", occ[2])
	}
	if got := Occupancy(lts, 99); len(got) != 0 {
		t.Errorf("occupancy past the window = %v, want empty", got)
	}
}

func TestDiagramShape(t *testing.T) {
	out := Diagram(Lifetimes(syntheticRun()), 0)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// header (2 lines) + one row per instruction.
	if len(lines) != 5 {
		t.Fatalf("diagram has %d lines, want 5:\n%s", len(lines), out)
	}
	// Same-cycle stages keep the furthest progress: decode/rename/dispatch
	// collapse to P, execute/writeback to W.
	row1 := lines[2]
	for _, mark := range []string{"F", "P", "I", "W", "C"} {
		if !strings.Contains(row1, mark) {
			t.Errorf("row for instr 1 missing %q: %q", mark, row1)
		}
	}
	if !strings.Contains(lines[4], "X") {
		t.Errorf("squashed row missing X: %q", lines[4])
	}
	if !strings.Contains(lines[0], "cycle 1") {
		t.Errorf("header missing cycle origin: %q", lines[0])
	}
}

func TestDiagramTruncatesWideWindows(t *testing.T) {
	lts := []Lifetime{{InstrID: 1, PC: 0, Disasm: "op"}}
	lts[0].Stages[StageFetch] = 1
	lts[0].Stages[StageCommit] = 500
	out := Diagram(lts, 100)
	if !strings.Contains(out, "earlier cycles not shown") {
		t.Errorf("wide diagram should note truncation:\n%s", out)
	}
	if strings.Contains(out, "F") {
		t.Errorf("truncated diagram should not show the out-of-window fetch:\n%s", out)
	}
	if !strings.Contains(out, "C") {
		t.Errorf("truncated diagram must keep the newest cycles:\n%s", out)
	}
}

func TestDiagramEmpty(t *testing.T) {
	if out := Diagram(nil, 0); !strings.Contains(out, "no events") {
		t.Errorf("empty diagram = %q", out)
	}
}
