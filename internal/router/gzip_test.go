package router

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"riscvsim/internal/api"
)

func gzipped(t *testing.T, s string) []byte { return gzipBytes(t, []byte(s)) }

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

// TestGzipBombIsNotForwarded: a gzipped session body that inflates past
// api.MaxBodyBytes is answered 413 body_too_large by the router itself.
// The router inflates such a body to find its session, and a replica
// bounds the clear bytes it reads, so the router stops at the same bound
// instead of inflating a 4 MiB body by any ratio and forwarding it.
func TestGzipBombIsNotForwarded(t *testing.T) {
	replica := newFakeReplica(t, `{}`)
	rt, err := New(Options{Replicas: []Replica{{Name: "only", URL: replica.ts.URL}}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	pad := func(n int) string {
		doc := `{"sessionId":"s00000001","pad":"`
		return doc + strings.Repeat("x", n-len(doc)-2) + `"}`
	}
	status, body := exchange(t, front.URL, http.MethodPost, "/session/step", pad(api.MaxBodyBytes+1), true, "")
	if status != http.StatusRequestEntityTooLarge || !strings.Contains(body, api.CodeBodyTooLarge) {
		t.Errorf("body inflating to %d bytes: %d %.120q, want 413 %s", api.MaxBodyBytes+1, status, body, api.CodeBodyTooLarge)
	}
	if n := replica.hits.Load(); n != 0 {
		t.Fatalf("the oversized body reached the replica %d times", n)
	}
	if status, body := exchange(t, front.URL, http.MethodPost, "/session/step", pad(api.MaxBodyBytes), true, ""); status != http.StatusOK || replica.hits.Load() != 1 {
		t.Errorf("body inflating to exactly %d bytes: %d %.120q, forwarded %d times; want it forwarded once", api.MaxBodyBytes, status, body, replica.hits.Load())
	}
}

// FuzzSessionIDFromBody holds the router's session-ID parser to a plain
// re-reading of the body: an input it cannot read an ID from is an error,
// a gzipped input never inflates past api.MaxBodyBytes+1 bytes, and an ID
// found is the one the body carries. mode 0 sends data as it is, mode 1
// gzips it first, mode 2 sends data as the gzip stream itself.
func FuzzSessionIDFromBody(f *testing.F) {
	bomb := gzipBytes(f, bytes.Repeat([]byte(" "), api.MaxBodyBytes+64))
	for _, seed := range []struct {
		data []byte
		mode uint8
	}{
		{[]byte(`{"sessionId":"s00000042","steps":1}`), 0},
		{[]byte(`{"sessionId":"s00000042","steps":1}`), 1},
		{[]byte(`{"steps":1}`), 1},
		{[]byte(`{"sessionId":""}`), 0},
		{[]byte(`not json`), 1},
		{gzipBytes(f, []byte(`{"sessionId":"s7"}`)), 2},
		{bomb, 2},
		{bomb[:len(bomb)/2], 2},
		{nil, 2},
	} {
		f.Add(seed.data, seed.mode)
	}
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		body, encoding := data, ""
		switch mode % 3 {
		case 1:
			body, encoding = gzipBytes(t, data), "gzip"
		case 2:
			encoding = "gzip"
		}
		id, err := sessionIDFromBody(body, encoding)

		clear, want := data, ""
		if encoding == "gzip" {
			var buf bytes.Buffer
			if gunzip(&buf, body, api.MaxBodyBytes); buf.Len() > api.MaxBodyBytes+1 {
				t.Fatalf("inflated %d bytes, past the bound of %d", buf.Len(), api.MaxBodyBytes+1)
			}
			clear = nil
			if gr, err := gzip.NewReader(bytes.NewReader(body)); err == nil {
				if b, err := io.ReadAll(io.LimitReader(gr, api.MaxBodyBytes+1)); err == nil && len(b) <= api.MaxBodyBytes {
					clear = b
				}
			}
		}
		var req struct {
			SessionID string `json:"sessionId"`
		}
		if clear != nil && json.Unmarshal(clear, &req) == nil {
			want = req.SessionID
		}
		switch {
		case want == "" && err == nil:
			t.Fatalf("no session ID in the body, yet %q was found", id)
		case want != "" && (err != nil || id != want):
			t.Fatalf("session ID %q, err %v; want %q", id, err, want)
		}
	})
}

func gzipBytes(tb testing.TB, data []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(data); err != nil {
		tb.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReplyInflate holds the router's reading of a replica's reply to a
// plain inflate of it: whatever a reply marked gzip holds, inflate gives
// its clear bytes, or fails with errReplyGzip or, once the clear bytes
// pass api.MaxBodyBytes, errInflatedTooLarge — it never panics and never
// inflates further. mode 0 gzips data first, mode 1 sends data as the
// gzip stream itself, mode 2 sends it unmarked.
func FuzzReplyInflate(f *testing.F) {
	bomb := gzipBytes(f, bytes.Repeat([]byte(" "), api.MaxBodyBytes+64))
	for _, seed := range []struct {
		data []byte
		mode uint8
	}{
		{[]byte(`{"error":{"code":"session_exists","message":"taken"}}`), 0},
		{[]byte(`{"sessionId":"s00000042","state":{"cycle":0}}`), 0},
		{gzipBytes(f, []byte(`{"sessionId":"s7"}`)), 1},
		{gzipBytes(f, bytes.Repeat([]byte("x"), api.MaxBodyBytes)), 1},
		{bomb, 1},
		{bomb[:len(bomb)/2], 1},
		{[]byte("not gzip at all"), 1},
		{nil, 1},
		{[]byte(`{"sessionId":"s1"}`), 2},
	} {
		f.Add(seed.data, seed.mode)
	}
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		body, header := data, http.Header{"Content-Encoding": {"gzip"}}
		switch mode % 3 {
		case 0:
			body = gzipBytes(t, data)
		case 2:
			header = http.Header{}
		}
		rp, err := readReply(&http.Response{StatusCode: http.StatusOK, Header: header, Body: io.NopCloser(bytes.NewReader(body))})
		defer rp.release()
		if err != nil {
			t.Fatal(err)
		}
		got, err := rp.inflate()

		if mode%3 == 2 {
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("an unmarked reply read as %d bytes, err %v", len(got), err)
			}
			return
		}
		var want []byte
		var wantErr error
		if gr, gerr := gzip.NewReader(bytes.NewReader(body)); gerr != nil {
			wantErr = gerr
		} else {
			want, wantErr = io.ReadAll(io.LimitReader(gr, api.MaxBodyBytes+1))
		}
		switch {
		case wantErr != nil:
			if !errors.Is(err, errReplyGzip) {
				t.Fatalf("a broken stream (%v) inflated to %d bytes, err %v; want errReplyGzip", wantErr, len(got), err)
			}
		case len(want) > api.MaxBodyBytes:
			if !errors.Is(err, errInflatedTooLarge) {
				t.Fatalf("a stream past %d bytes inflated to %d bytes, err %v; want errInflatedTooLarge", api.MaxBodyBytes, len(got), err)
			}
		case err != nil || !bytes.Equal(got, want):
			t.Fatalf("inflated to %d bytes, err %v; want the %d clear bytes", len(got), err, len(want))
		}
	})
}
