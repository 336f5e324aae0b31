package client

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"strings"
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
// long one followed by a shorter one leaves no tail behind. Both are past
// minGzipBody, so both are compressed.
func TestPooledGzipWriterKeepsRequestsApart(t *testing.T) {
	c := NewForURL("http://unused", true)
	long := &api.SimulateRequest{Code: string(bytes.Repeat([]byte("addi t0, t0, 1\n"), 400))}
	short := &api.SimulateRequest{Code: string(bytes.Repeat([]byte("nop\n"), 210))}
	want, err := json.Marshal(short)
	if err != nil || len(want) < minGzipBody {
		t.Fatalf("the short body is %d bytes (%v), want at least %d", len(want), err, minGzipBody)
	}
	for i := 0; i < 4; i++ {
		if got := gunzipBody(t, c, long); !bytes.Contains(got, []byte("addi t0, t0, 1")) || bytes.Contains(got, []byte("nop")) {
			t.Fatalf("round %d: long body inflated to %d bytes: %.80s", i, len(got), got)
		}
		if got := gunzipBody(t, c, short); !bytes.Equal(got, want) {
			t.Fatalf("round %d: short body inflated to %d bytes, want %d: %.80s", i, len(got), len(want), got)
		}
	}
}

// atThreshold is a session step whose body is exactly minGzipBody bytes,
// the smallest body a gzip client compresses.
func atThreshold(t *testing.T) *api.SessionStepRequest {
	t.Helper()
	empty, _ := json.Marshal(&api.SessionStepRequest{Steps: 1})
	req := &api.SessionStepRequest{SessionID: strings.Repeat("s", minGzipBody-len(empty)), Steps: 1}
	if body, _ := json.Marshal(req); len(body) != minGzipBody {
		t.Fatalf("the body is %d bytes, want %d", len(body), minGzipBody)
	}
	return req
}

// TestSmallRequestGoesOutPlain: a session step's body, and any body one
// byte short of minGzipBody, is sent as it is, without Content-Encoding;
// from minGzipBody on, a gzip client compresses.
func TestSmallRequestGoesOutPlain(t *testing.T) {
	c := NewForURL("http://unused", true)
	big := atThreshold(t)
	below := *big
	below.SessionID = below.SessionID[1:]
	for _, tc := range []struct {
		req  any
		gzip bool
	}{
		{&api.SessionStepRequest{SessionID: "s00000001", Steps: 1}, false},
		{&below, false},
		{big, true},
	} {
		hreq, err := c.newRequest("/session/step", tc.req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(hreq.Body)
		if enc := hreq.Header.Get("Content-Encoding"); (enc == "gzip") != tc.gzip {
			t.Errorf("a %d-byte body goes out with Content-Encoding %q", len(body), enc)
		}
		if want, _ := json.Marshal(tc.req); !tc.gzip && !bytes.Equal(body, want) {
			t.Errorf("a plain body went out as %q, want %q", body, want)
		}
	}
}

// TestSmallGzipRequestAllocatesLittle: building a compressed request for
// the smallest body a gzip client compresses must not cost a fresh
// compressor (about 1 MB of deflate state, which is what every request
// paid before the writers were pooled). The median of single calls is
// used because a pool may drop a writer at any collection, and does so at
// random under the race detector.
func TestSmallGzipRequestAllocatesLittle(t *testing.T) {
	c := NewForURL("http://unused", true)
	req := atThreshold(t)
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
