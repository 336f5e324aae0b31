package api

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"riscvsim/internal/workload"
	"riscvsim/sim"
)

// checkDecoding holds a reply's own decoder to encoding/json on doc, a
// document the reply's own encoder wrote: the decoder reads all of it,
// without handing it to reflection, into a value equal to the one
// encoding/json decodes.
func checkDecoding[T any](t testing.TB, where string, doc []byte) {
	t.Helper()
	own := new(T)
	d, ok := any(own).(decoder)
	if !ok {
		t.Fatalf("%T has no decoder of its own", own)
	}
	if !decodeOwn(doc, d) {
		t.Fatalf("%s: %T's own decoder gave up on what its encoder wrote: %.200s", where, own, doc)
	}
	ref := new(T)
	if err := json.Unmarshal(doc, ref); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if !reflect.DeepEqual(own, ref) {
		got, want := reflected(t, own), reflected(t, ref)
		t.Fatalf("%s: %T decodes unlike encoding/json at byte %d:\n got: %s\nwant: %s",
			where, own, firstDiff(got, want), around(got, want), around(want, got))
	}
}

// sampleReplies are one reply of each self-decoding type around a warm
// sort-insertion machine on the default architecture: its state (with
// valid cache lines), its report, a debug log with text that needs
// escapes, and a batch entry that failed.
func sampleReplies(t testing.TB) []any {
	t.Helper()
	w, _ := workload.ByName("sort-insertion")
	m, err := workload.NewMachine(nil, w)
	if err != nil {
		t.Fatal(err)
	}
	m.StepN(1500)
	st := m.State(false)
	log := []sim.LogEntry{{Cycle: 7, Msg: `x1 <- "a" & <b>` + "\t "}, {Cycle: 9, Msg: "ünïcode 🙂"}}
	simulated := &SimulateResponse{Halted: m.Halted(), Cycles: m.Cycle(), Stats: m.Report(), Log: log}
	return []any{
		&SessionStateResponse{State: st},
		&SessionNewResponse{SessionID: "s00000042", State: st},
		simulated,
		&StreamEvent{Seq: 3, Cycle: m.Cycle(), Halted: true, HaltReason: "ecall", Done: true, State: st, Stats: m.Report()},
		&BatchResponse{Results: []BatchResult{
			{Index: 0, Response: simulated},
			{Index: 1, Error: &Error{Code: CodeBuildFailed, Message: `line 1: unknown instruction "frobnicate"`}},
		}, Succeeded: 1, Failed: 1, Workers: 2, WallNanos: 12345},
	}
}

// replyTypes are the types of sampleReplies, one each.
var replyTypes = []reflect.Type{
	reflect.TypeFor[SessionStateResponse](), reflect.TypeFor[SessionNewResponse](),
	reflect.TypeFor[SimulateResponse](), reflect.TypeFor[StreamEvent](), reflect.TypeFor[BatchResponse](),
}

func encoded(t testing.TB, v any) []byte {
	t.Helper()
	var doc bytes.Buffer
	if err := PooledCodec.Encode(&doc, v); err != nil {
		t.Fatal(err)
	}
	return doc.Bytes()
}

// TestDecodedReplyOwnsItsBytes: a reply decoded from a pooled buffer
// keeps nothing of it. Overwriting the buffer and recycling it into the
// next reply leaves every decoded value as it was.
func TestDecodedReplyOwnsItsBytes(t *testing.T) {
	for _, v := range sampleReplies(t) {
		buf := GetBuffer()
		if err := PooledCodec.Encode(buf, v); err != nil {
			t.Fatal(err)
		}
		typ := reflect.TypeOf(v).Elem()
		want := reflect.New(typ).Interface()
		if err := json.Unmarshal(bytes.Clone(buf.Bytes()), want); err != nil {
			t.Fatal(err)
		}
		got := reflect.New(typ).Interface()
		if err := PooledCodec.Unmarshal(buf.Bytes(), got); err != nil {
			t.Fatal(err)
		}
		n := buf.Len()
		for i, b := 0, buf.Bytes(); i < n; i++ {
			b[i] = 'x'
		}
		PutBuffer(buf)
		next := GetBuffer()
		next.Write(bytes.Repeat([]byte{'"'}, n))
		PutBuffer(next)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v changed with the buffer it was decoded from", typ)
		}
	}
}

// TestOwnDecoderAllocatesNoMore: on every reply type, reading a reply
// with its own decoder allocates no more often than encoding/json does.
func TestOwnDecoderAllocatesNoMore(t *testing.T) {
	for _, v := range sampleReplies(t) {
		doc := encoded(t, v)
		typ := reflect.TypeOf(v).Elem()
		own := testing.AllocsPerRun(20, func() {
			if err := decodeInto(doc, reflect.New(typ).Interface()); err != nil {
				t.Fatal(err)
			}
		})
		refl := testing.AllocsPerRun(20, func() {
			if err := json.Unmarshal(doc, reflect.New(typ).Interface()); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%v (%d B): %.0f allocations, encoding/json %.0f", typ, len(doc), own, refl)
		if own > refl {
			t.Errorf("%v: its own decoder allocates %.0f times, encoding/json %.0f", typ, own, refl)
		}
	}
}

// TestStepReplyDecodeAllocations pins what reading a step reply costs:
// the sort-insertion session at cycle 1,500 (8,081 bytes) decodes in 89
// allocations — its slices and variable text (instruction text, register
// values). Register names and aliases, phases, tags, unit names and
// classes are interned; reading each into its own string took 293.
func TestStepReplyDecodeAllocations(t *testing.T) {
	const limit = 89
	doc := encoded(t, sampleReplies(t)[0])
	got := testing.AllocsPerRun(20, func() {
		if err := decodeInto(doc, new(SessionStateResponse)); err != nil {
			t.Fatal(err)
		}
	})
	if got > limit {
		t.Errorf("a %d-byte step reply decodes in %.0f allocations, limit %d", len(doc), got, limit)
	}
}

// FuzzReplyDecode: on any bytes, every self-decoding reply decodes as
// encoding/json decodes it into a zero value — an equal value, and the
// same error or none — without panicking. The seeds are whole replies and
// the documents the own decoders hand to reflection: duplicate and
// case-variant keys, escapes they do not decode, numbers out of range.
func FuzzReplyDecode(f *testing.F) {
	for _, v := range sampleReplies(f) {
		f.Add(encoded(f, v))
	}
	for _, seed := range []string{
		`{"state":null,"state":{"cycle":1}}`,
		`{"State":{"Cycle":7,"PC":3}}`,
		`{"halted":true,"cycles":1,"cycles":2,"stats":{"cycles":1,"Cycles":2}}`,
		`{"results":[{"index":0,"response":{"halted":true},"response":{"cycles":3}}],"failed":1}`,
		`{"seq":1,"state":{"rob":[{"id":1,"text":"a"}],"rob":[{"id":2}]}}`,
		`{"seq":1,"state":{"issueWindows":{"FX":[{"id":1}],"FX":[]},"memoryPointers":[{"name":"a","Addr":4}]}}`,
		`{"sessionId":"s\u0030\ud83d\ude00\"x\/","state":{"cacheLines":[{"set":1,"data":"AAEC"},{"data":""}]}}`,
		`{"cycles":-0,"halted":null,"stats":{"ipc":1e400,"staticMix":{"a":1,"a":2}}}`,
		`{"seq":1.0,"cycle":18446744073709551616}`,
		`{"seq":-9223372036854775808,"error":{"code":"x","message":"y"}} `,
		`{"log":[{"cycle":1,"msg":"bad \xff byte"}],"trace":{"events":[],"total":1},"parallel":{"workers":2}}`,
		`{"state":{}} {}`,
		`[]`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, typ := range replyTypes {
			own, ref := reflect.New(typ).Interface(), reflect.New(typ).Interface()
			ownErr, refErr := decodeInto(data, own), json.Unmarshal(data, ref)
			if (ownErr == nil) != (refErr == nil) || ownErr != nil && ownErr.Error() != refErr.Error() {
				t.Fatalf("%v: own decoder says %v, encoding/json %v", typ, ownErr, refErr)
			}
			if !reflect.DeepEqual(own, ref) {
				t.Fatalf("%v: own decoder read %+v, encoding/json %+v", typ, own, ref)
			}
		}
	})
}
