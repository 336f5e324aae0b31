package router

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"strings"
	"testing"
)

func gzipped(t *testing.T, s string) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write([]byte(s)); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPooledGzipReaderKeepsBodiesApart: the recycled decompressor hands
// every body back as itself — after a longer body, and after a body that
// broke off mid-stream.
func TestPooledGzipReaderKeepsBodiesApart(t *testing.T) {
	long := `{"sessionId":"s00000042","steps":1,"pad":"` + strings.Repeat("x", 4096) + `"}`
	short := `{"sessionId":"s00000007"}`
	for round := 0; round < 4; round++ {
		if id, err := sessionIDFromBody(gzipped(t, long), "gzip"); err != nil || id != "s00000042" {
			t.Fatalf("round %d: long body: id %q, err %v", round, id, err)
		}
		if id, err := sessionIDFromBody(gzipped(t, short), "gzip"); err != nil || id != "s00000007" {
			t.Fatalf("round %d: short body after a long one: id %q, err %v", round, id, err)
		}
		torn := gzipped(t, long)
		if _, err := sessionIDFromBody(torn[:len(torn)/2], "gzip"); err == nil || !strings.Contains(err.Error(), "bad gzip body") {
			t.Fatalf("round %d: truncated gzip body: err %v", round, err)
		}
		if _, err := sessionIDFromBody([]byte("not gzip at all"), "gzip"); err == nil {
			t.Fatalf("round %d: a body that is not gzip was accepted", round)
		}
		if id, err := sessionIDFromBody(gzipped(t, short), "gzip"); err != nil || id != "s00000007" {
			t.Fatalf("round %d: good body after a truncated one: id %q, err %v", round, id, err)
		}
		resp := &http.Response{
			Header: http.Header{"Content-Encoding": {"gzip"}},
			Body:   io.NopCloser(bytes.NewReader(gzipped(t, short))),
		}
		rp, err := readReply(resp)
		if err != nil {
			t.Fatalf("round %d: reading the reply: %v", round, err)
		}
		inflated, err := rp.inflate()
		if err != nil || string(inflated) != short || bytes.Equal(rp.body.Bytes(), inflated) {
			t.Fatalf("round %d: buffered response inflated to %q (err %v)", round, inflated, err)
		}
	}
}
