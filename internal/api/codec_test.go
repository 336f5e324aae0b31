package api

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	doc := &SimulateRequest{
		Code:     "li a0, 1",
		Steps:    42,
		MemFills: []MemFill{{Label: "data", Values: []int64{1, 2, 3}}},
	}
	var buf bytes.Buffer
	if err := PooledCodec.Encode(&buf, doc); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var back SimulateRequest
	if err := PooledCodec.Decode(&buf, &back); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.Code != doc.Code || back.Steps != doc.Steps || len(back.MemFills) != 1 {
		t.Errorf("round trip mangled the document: %+v", back)
	}
}

// TestCodecWireFormat pins the wire format to encoding/json's: clients
// in other languages parse plain JSON documents.
func TestCodecWireFormat(t *testing.T) {
	doc := &SimulateResponse{Halted: true, Cycles: 7}
	want, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	// An io.Writer that is not a *bytes.Buffer takes the pooled-copy path.
	var direct bytes.Buffer
	var copied strings.Builder
	if err := PooledCodec.Encode(&direct, doc); err != nil {
		t.Fatal(err)
	}
	if err := PooledCodec.Encode(&copied, doc); err != nil {
		t.Fatal(err)
	}
	// json.Encoder appends a newline; the documents must match modulo that.
	for _, got := range []string{direct.String(), copied.String()} {
		if strings.TrimSpace(got) != string(want) {
			t.Errorf("wire format differs from encoding/json:\ngot:  %s\nwant: %s", got, want)
		}
	}
}

func TestCodecRejectsTrailingData(t *testing.T) {
	var v SimulateRequest
	if err := PooledCodec.Decode(strings.NewReader(`{"code":"nop"} trailing`), &v); err == nil {
		t.Error("accepted trailing garbage")
	}
	// Trailing whitespace is fine.
	if err := PooledCodec.Decode(strings.NewReader(`{"code":"nop"}`+"\n \t"), &v); err != nil {
		t.Errorf("rejected trailing whitespace: %v", err)
	}
	// A second JSON document is also trailing data.
	if err := PooledCodec.Decode(strings.NewReader(`{"code":"a"}{"code":"b"}`), &v); err == nil {
		t.Error("accepted a second document")
	}
}

func TestBufferPoolRecycles(t *testing.T) {
	b := GetBuffer()
	b.WriteString("payload")
	PutBuffer(b)
	b2 := GetBuffer()
	defer PutBuffer(b2)
	if b2.Len() != 0 {
		t.Error("recycled buffer not reset")
	}
}

func TestErrorHelpers(t *testing.T) {
	e := Errorf(CodeBuildFailed, "line %d: %s", 3, "boom")
	if e.Code != CodeBuildFailed || e.Message != "line 3: boom" || e.Error() != e.Message {
		t.Errorf("Errorf = %+v", e)
	}
	// WrapError preserves an existing code.
	w := WrapError(CodeInternal, e)
	if w.Code != CodeBuildFailed {
		t.Errorf("WrapError clobbered the code: %+v", w)
	}
}

// TestMetricsWireNames pins the JSON keys of Metrics: the benchmark, the
// router's /admin/metrics and the CLI read them by name, so a key may be
// added but never renamed or dropped.
func TestMetricsWireNames(t *testing.T) {
	data, err := json.Marshal(Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"requests", "totalHandlingNanos", "jsonNanos", "simulationNanos", "jsonShare", "activeSessions",
		"batchRequests", "batchSimulations", "suiteRequests", "suiteWorkloads", "streamEvents",
		"sessions_spilled", "sessions_rehydrated", "sessions_lost",
		"inFlight", "shed", "deadlineExceeded",
		"programCacheHits", "programCacheMisses", "programCacheEvictions", "programCacheEntries", "programCacheBytes",
		"phaseNanos",
	} {
		if _, ok := doc[key]; !ok {
			t.Errorf("Metrics lost its %q key", key)
		}
		delete(doc, key)
	}
	for key := range doc {
		t.Errorf("Metrics grew a %q key this test does not pin", key)
	}
}
