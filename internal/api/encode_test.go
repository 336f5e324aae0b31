package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"riscvsim/internal/config"
	"riscvsim/internal/core"
	"riscvsim/internal/memory"
	"riscvsim/internal/workload"
	"riscvsim/sim"
)

// reflected is the oracle: v as encoding/json writes it from the struct
// tags alone. None of the reply types is a json.Marshaler, so the encoder
// never calls their AppendJSON; only the codec does.
func reflected(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkEncoding holds the codec's output for a self-encoding reply to the
// oracle's, and the reply's own decoder to encoding/json on that output.
func checkEncoding[T any](t testing.TB, where string, v *T) {
	t.Helper()
	if _, ok := any(v).(appender); !ok {
		t.Fatalf("%T has no AppendJSON", v)
	}
	want := reflected(t, v)
	var got bytes.Buffer
	if err := PooledCodec.Encode(&got, v); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%s: %T differs from encoding/json at byte %d:\n got: %s\nwant: %s",
			where, v, firstDiff(got.Bytes(), want), around(got.Bytes(), want), around(want, got.Bytes()))
	}
	checkDecoding[T](t, where, want)
}

// checkDecodedCopy decodes the reply's document the way a client does and
// checks the copy: a State that never saw a simulation carries no
// pre-encoded fragment, so this is the field-by-field side of every
// encoder against the same oracle.
func checkDecodedCopy[T any](t testing.TB, where string, v *T) {
	t.Helper()
	checkEncoding(t, where, v)
	back := new(T)
	if err := json.Unmarshal(reflected(t, v), back); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	checkEncoding(t, where+" (decoded copy)", back)
}

func firstDiff(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// around shows a near its first difference from b.
func around(a, b []byte) string {
	at := firstDiff(a, b)
	return string(a[max(at-60, 0):min(at+60, len(a))])
}

// checkReplies encodes the machine's state in each of the reply shapes
// that carry one.
func checkReplies(t testing.TB, where string, m *sim.Machine, includeLog bool) {
	t.Helper()
	st := m.State(includeLog)
	checkDecodedCopy(t, where, &SessionStateResponse{State: st})
	checkEncoding(t, where, &SessionNewResponse{SessionID: "s00000042", State: st})
	checkEncoding(t, where, &SimulateResponse{
		Halted: m.Halted(), HaltReason: st.HaltReason, Cycles: m.Cycle(), Stats: m.Report(), State: st, Log: st.Log,
	})
}

// TestEncoderMatchesReflection: on every corpus workload and three
// architectures, wherever a session can stand — cycle 0, after a jump,
// after each of 50 single steps, after a backward step, after a
// checkpoint and restore, at halt, with the debug log — the replies'
// own encoder writes what encoding/json writes.
func TestEncoderMatchesReflection(t *testing.T) {
	for _, preset := range []string{"scalar", "default", "wide4"} {
		for _, w := range workload.Corpus() {
			t.Run(preset+"/"+w.Name, func(t *testing.T) {
				cfg, ok := config.Preset(preset)
				if !ok {
					t.Fatalf("no preset %q", preset)
				}
				m, err := workload.NewMachine(cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				m.EnableSnapshots(256)
				checkReplies(t, "cycle 0", m, false)
				m.StepN(700)
				checkReplies(t, "after the jump", m, false)
				for i := 0; i < 50; i++ {
					m.StepN(1)
					checkEncoding(t, fmt.Sprintf("step %d", i+1), &SessionStateResponse{State: m.State(false)})
				}
				if err := m.StepBack(); err != nil {
					t.Fatal(err)
				}
				checkReplies(t, "after a backward step", m, false)
				m.SetVerboseLog(true) // per-commit lines for the log to carry
				m.StepN(20)
				checkReplies(t, "forward again, with the log", m, true)
				m.SetVerboseLog(false)

				var ckpt bytes.Buffer
				if err := m.Checkpoint(&ckpt); err != nil {
					t.Fatal(err)
				}
				r, err := sim.Restore(&ckpt)
				if err != nil {
					t.Fatal(err)
				}
				checkReplies(t, "restored", r, false)
				r.StepN(1)
				checkReplies(t, "restored, stepped", r, false)

				m.Run(w.MaxCycles)
				if !m.Halted() {
					t.Fatalf("did not halt in %d cycles", w.MaxCycles)
				}
				checkReplies(t, "at halt", m, false)
				checkReplies(t, "at halt with the log", m, true)
			})
		}
	}
}

// TestEncoderWithoutCache: a disabled cache has no lines and the member
// is omitted; an enabled one omits it too until a line is valid, and from
// then on lists exactly the valid lines.
func TestEncoderWithoutCache(t *testing.T) {
	w, _ := workload.ByName("memcpy-stream")
	reply := func(where string, m *sim.Machine) ([]byte, *core.State) {
		t.Helper()
		checkReplies(t, where, m, false)
		var doc bytes.Buffer
		if err := PooledCodec.Encode(&doc, &SessionStateResponse{State: m.State(false)}); err != nil {
			t.Fatal(err)
		}
		var back SessionStateResponse
		if err := json.Unmarshal(doc.Bytes(), &back); err != nil {
			t.Fatal(err)
		}
		return doc.Bytes(), back.State
	}

	cfg := config.Default()
	cfg.Cache.Enabled = false
	off, err := workload.NewMachine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	off.StepN(500)
	if doc, _ := reply("cache off", off); bytes.Contains(doc, []byte("cacheLines")) {
		t.Error("a machine without a cache reports cache lines")
	}

	on, err := workload.NewMachine(nil, w)
	if err != nil {
		t.Fatal(err)
	}
	if doc, _ := reply("cache on, cycle 0", on); bytes.Contains(doc, []byte("cacheLines")) {
		t.Error("a cache with no valid line reports cache lines")
	}
	on.StepN(500)
	_, st := reply("cache on, cycle 500", on)
	// Write-back allocates on every miss, so each miss that evicted
	// nothing left one more line valid.
	cs := on.Sim().Counters().Cache
	if valid := int(cs.Misses - cs.Evictions); valid == 0 || len(st.CacheLines) != valid {
		t.Fatalf("cycle 500: %d cache lines reported, %d are valid", len(st.CacheLines), valid)
	}
	for i, lv := range st.CacheLines {
		if !lv.Valid || len(lv.Data) != 64 {
			t.Errorf("line %d/%d reported with valid=%v and %d data bytes", lv.Set, lv.Way, lv.Valid, len(lv.Data))
		}
		if i == 0 {
			continue
		}
		if prev := st.CacheLines[i-1]; lv.Set < prev.Set || lv.Set == prev.Set && lv.Way <= prev.Way {
			t.Errorf("line %d/%d reported after %d/%d", lv.Set, lv.Way, prev.Set, prev.Way)
		}
	}
}

// TestEncoderHostileText: text a program or a fault can put into a reply
// is escaped exactly as encoding/json escapes it — markup characters,
// quotes, control characters, the JavaScript line separators and bytes
// that are not UTF-8.
func TestEncoderHostileText(t *testing.T) {
	hostile := []string{
		`<script>alert("x")</script>`, `a&b`, `back\slash`, "tab\tnl\ncr\rbs\bff\fnul\x00esc\x1b",
		"sep\u2028and\u2029", "bad\xffutf8\xc3", "\xe2\x80", "del\x7f", "ünïcode 文字 🙂", "",
	}
	for _, h := range hostile {
		st := &core.State{
			HaltReason:   h,
			DecodeBuffer: []core.InstrView{{Text: h, Phase: h, Exception: h, DestTag: h}},
			ROB:          []core.InstrView{},
			Windows:      map[string][]core.InstrView{h: {{Text: h}}, "FX": nil},
			FUs:          []core.FUView{{Name: h, Class: h, Busy: true, Instr: &core.InstrView{Exception: h}}},
			IntRegs:      []core.RegView{{Name: h, Alias: h, Value: h, Renamed: h}},
			Pointers:     []memory.Pointer{{Name: h, Addr: 64, Size: 8, Elem: h}},
			Log:          []core.LogEntry{{Cycle: 3, Msg: h}},
		}
		where := fmt.Sprintf("%q", h)
		checkDecodedCopy(t, where, &SessionStateResponse{State: st})
		checkDecodedCopy(t, where, &SessionNewResponse{SessionID: h, State: st})
		checkDecodedCopy(t, where, &SimulateResponse{HaltReason: h, State: st, Log: st.Log})
		checkDecodedCopy(t, where, &StreamEvent{Seq: 1, HaltReason: h, Done: true, State: st, Error: &Error{Code: h, Message: h}})
		checkDecodedCopy(t, where, &BatchResponse{Results: []BatchResult{
			{Index: 0, Response: &SimulateResponse{HaltReason: h, State: st}},
			{Index: 1, Error: &Error{Code: CodeBadRequest, Message: h}},
		}, Succeeded: 1, Failed: 1, Workers: 2, WallNanos: 12345})
	}
}

// TestEncoderEmptyReplies: absent members take the form the tags give
// them — null, omitted or an empty array.
func TestEncoderEmptyReplies(t *testing.T) {
	checkDecodedCopy(t, "zero", &SessionStateResponse{})
	checkDecodedCopy(t, "zero", &SessionNewResponse{})
	checkDecodedCopy(t, "zero", &SimulateResponse{})
	checkDecodedCopy(t, "zero", &StreamEvent{})
	checkDecodedCopy(t, "zero", &BatchResponse{})
	checkDecodedCopy(t, "empty", &BatchResponse{Results: []BatchResult{}})
	checkDecodedCopy(t, "empty state", &SessionStateResponse{State: &core.State{}})
}
