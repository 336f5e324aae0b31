package client

import (
	"bytes"
	"compress/gzip"
	"io"
	"runtime"
	"sort"
	"testing"

	"riscvsim/internal/api"
)

// gunzipBody inflates the body newRequest produced.
func gunzipBody(t *testing.T, c *Client, req any) []byte {
	t.Helper()
	hreq, err := c.newRequest("/x", req)
	if err != nil {
		t.Fatal(err)
	}
	if hreq.Header.Get("Content-Encoding") != "gzip" {
		t.Fatal("request not marked gzip")
	}
	gr, err := gzip.NewReader(hreq.Body)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(gr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPooledGzipWriterKeepsRequestsApart: requests compressed back to
// back on recycled writers each inflate to exactly their own body — a
// long one followed by a short one leaves no tail behind.
func TestPooledGzipWriterKeepsRequestsApart(t *testing.T) {
	c := NewForURL("http://unused", true)
	long := &api.SimulateRequest{Code: string(bytes.Repeat([]byte("addi t0, t0, 1\n"), 400))}
	short := &api.SessionStepRequest{SessionID: "s00000001", Steps: 1}
	for i := 0; i < 4; i++ {
		if got := gunzipBody(t, c, long); !bytes.Contains(got, []byte("addi t0, t0, 1")) || bytes.Contains(got, []byte("s00000001")) {
			t.Fatalf("round %d: long body inflated to %d bytes: %.80s", i, len(got), got)
		}
		if got := string(gunzipBody(t, c, short)); got != `{"sessionId":"s00000001","steps":1}` {
			t.Fatalf("round %d: short body inflated to %q", i, got)
		}
	}
}

// TestSmallGzipRequestAllocatesLittle: building a compressed request for
// a session step's ~40-byte body must not cost a fresh compressor (about
// 1 MB of deflate state, which is what every request paid before the
// writers were pooled). The median of single calls is used because a
// pool may drop a writer at any collection, and does so at random under
// the race detector.
func TestSmallGzipRequestAllocatesLittle(t *testing.T) {
	c := NewForURL("http://unused", true)
	req := &api.SessionStepRequest{SessionID: "s00000001", Steps: 1}
	var per []uint64
	for i := 0; i < 21; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := c.newRequest("/session/step", req); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		per = append(per, after.TotalAlloc-before.TotalAlloc)
	}
	sort.Slice(per, func(i, j int) bool { return per[i] < per[j] })
	if median := per[len(per)/2]; median > 64<<10 {
		t.Errorf("a small gzip request allocates %d bytes (median of %d), want under 64 KiB", median, len(per))
	}
}
