package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"riscvsim/internal/api"
	"riscvsim/sim"
)

// simulateBody POSTs req to /api/v1/simulate, asking for a gzip reply
// when gz, and returns the status and the inflated body. It reports
// failures as errors so goroutines can call it.
func simulateBody(url string, req *api.SimulateRequest, gz bool) (int, []byte, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	hr, err := http.NewRequest(http.MethodPost, url+api.V1Prefix+"/simulate", bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("Content-Type", api.MediaTypeJSON)
	if gz {
		// Set by hand, the header turns off the transport's own inflating.
		hr.Header.Set("Accept-Encoding", "gzip")
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var r io.Reader = resp.Body
	if gz {
		if resp.Header.Get("Content-Encoding") != "gzip" {
			return resp.StatusCode, nil, fmt.Errorf("asked for gzip, got Content-Encoding %q", resp.Header.Get("Content-Encoding"))
		}
		gr, err := gzip.NewReader(resp.Body)
		if err != nil {
			return resp.StatusCode, nil, err
		}
		r = gr
	}
	body, err := io.ReadAll(r)
	return resp.StatusCode, body, err
}

// uncachedReply is the body /api/v1/simulate answers req with when
// nothing is cached: Simulate's response or error, encoded by the codec.
func uncachedReply(t testing.TB, req *api.SimulateRequest) []byte {
	t.Helper()
	_, resp, aerr := Simulate(req)
	var doc any = resp
	if aerr != nil {
		doc = &api.ErrorEnvelope{Err: *aerr}
	}
	var buf bytes.Buffer
	if err := api.PooledCodec.Encode(&buf, doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkCharges walks the cache's LRU: each entry is charged its key and
// its Program's retained bytes or its reply's length, the charges sum to
// the cache's bytes, and the total is within the budget.
func checkCharges(t *testing.T, c *programCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for el := c.entries.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*lruEntry[cacheKey, cached])
		want := e.key.size() + len(e.val.reply)
		if e.val.prog != nil {
			want += e.val.prog.RetainedBytes()
		}
		if e.key.reply != (e.val.prog == nil) {
			t.Errorf("entry of %d-byte source: reply key %v holds a Program %v", len(e.key.prog.text), e.key.reply, e.val.prog != nil)
		}
		if e.size != want {
			t.Errorf("entry of %d-byte source charged %d bytes, holds %d", len(e.key.prog.text), e.size, want)
		}
		total += e.size
	}
	if total != c.entries.size || total > c.entries.budget {
		t.Errorf("cache charged %d bytes, entries hold %d, budget %d", c.entries.size, total, c.entries.budget)
	}
}

// memoProgram has a data label to fill and a second entry point.
const memoProgram = `
  la t0, data
  lw a0, 0(t0)
  li t1, 50
loop:
  addi t1, t1, -1
  bne t1, x0, loop
second:
  lw a1, 4(t0)
  add a0, a0, a1
.data
data: .word 1, 2, 3, 4
`

// TestReplyMemoKeysEveryField: a request differing from a memoized one in
// any single field of api.SimulateRequest is not answered from the memo
// but gets its own, uncached answer. The fields are walked by
// reflection; a field without a variant below gets one by its kind, so a
// field added to the request and left out of runKey fails here.
func TestReplyMemoKeysEveryField(t *testing.T) {
	s, ts := newTestServer(t)
	base := api.SimulateRequest{Code: memoProgram}
	m := mustBuild(t, s, &base)
	m.Run(10)
	var ck bytes.Buffer
	if err := m.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	// Several variants answer what the base answers (the default preset
	// and configuration spelled out, an optimize level assembly ignores,
	// a warm-up without parallelism): keyed in full, they still run.
	variants := map[string]any{
		"Code":         "li t6, 1\n" + memoProgram,
		"Language":     "asm",
		"Optimize":     2,
		"Entry":        "second",
		"Preset":       "default",
		"Config":       configJSON(t, func(*sim.Config) {}),
		"Steps":        uint64(30),
		"MemFills":     []api.MemFill{{Label: "data", Values: []int64{7}}},
		"IncludeState": true,
		"IncludeLog":   true,
		"Verbose":      true,
		"Checkpoint":   ck.Bytes(),
		"Trace":        &api.TraceOptions{Limit: 16},
		"FastForward":  true,
		"Parallelism":  2,
		"WarmupCycles": uint64(20),
	}
	post := func(req *api.SimulateRequest) (int, []byte) {
		t.Helper()
		status, body, err := simulateBody(ts.URL, req, false)
		if err != nil {
			t.Fatal(err)
		}
		return status, body
	}
	replyHits := func() uint64 { return s.Metrics().ProgramCacheReplyHits }
	for i := 0; i < 4; i++ {
		post(&base)
	}
	if replyHits() == 0 {
		t.Fatal("the base request was never answered from the memo")
	}

	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		v := base
		field := reflect.ValueOf(&v).Elem().Field(i)
		if x, ok := variants[f.Name]; ok {
			field.Set(reflect.ValueOf(x))
		} else {
			switch f.Type.Kind() {
			case reflect.String:
				field.SetString("x")
			case reflect.Bool:
				field.SetBool(true)
			case reflect.Int, reflect.Int64:
				field.SetInt(1)
			case reflect.Uint, reflect.Uint64:
				field.SetUint(1)
			case reflect.Slice:
				field.Set(reflect.MakeSlice(f.Type, 1, 1))
			case reflect.Pointer:
				field.Set(reflect.New(f.Type.Elem()))
			default:
				t.Fatalf("field %s (%s) has no variant", f.Name, f.Type)
			}
		}
		before := replyHits()
		status, body := post(&v)
		if replyHits() != before {
			t.Errorf("a request differing in %s alone was answered from the memo", f.Name)
			continue
		}
		// A time-parallel reply is checked for success only: nothing
		// holds its stitched report byte-identical run to run.
		if v.Parallelism >= 2 {
			if status != http.StatusOK {
				t.Errorf("%s: status %d: %s", f.Name, status, body)
			}
		} else if want := uncachedReply(t, &v); !bytes.Equal(body, want) {
			t.Errorf("%s: reply differs from the uncached answer:\n got %s\nwant %s", f.Name, body, want)
		}
		// The base is still memoized: the check above was live.
		if post(&base); replyHits() != before+1 {
			t.Fatalf("after the %s variant the base request was not answered from the memo", f.Name)
		}
	}
}

// TestReplyMemoNeverStoresFailures: a request whose run fails — a
// build error after its Program was found, a deadline, a cancel — is
// answered by running it every time and leaves nothing in the memo.
func TestReplyMemoNeverStoresFailures(t *testing.T) {
	s, ts := newTestServer(t)
	check := func(name string, run func() int) {
		t.Helper()
		// The first two runs store the Program.
		for i := 0; i < 2; i++ {
			run()
		}
		bytes0 := s.Metrics().ProgramCacheBytes
		for i := 0; i < 6; i++ {
			if status := run(); status == http.StatusOK {
				t.Fatalf("%s: run %d succeeded", name, i)
			}
		}
		if m := s.Metrics(); m.ProgramCacheReplyHits != 0 || m.ProgramCacheBytes != bytes0 || m.ProgramCacheHits == 0 {
			t.Errorf("%s: %d reply hits, %d → %d bytes, %d program hits; want 0 reply hits, bytes unchanged, program hits",
				name, m.ProgramCacheReplyHits, bytes0, m.ProgramCacheBytes, m.ProgramCacheHits)
		}
		checkCharges(t, s.programs)
		s.ResetMetrics()
	}
	post := func(req *api.SimulateRequest, code string) func() int {
		return func() int {
			status, body, err := simulateBody(ts.URL, req, false)
			if err != nil {
				t.Fatal(err)
			}
			var env api.ErrorEnvelope
			if status != http.StatusOK && (json.Unmarshal(body, &env) != nil || env.Err.Code != code) {
				t.Fatalf("status %d, want error %s: %s", status, code, body)
			}
			return status
		}
	}
	check("bad fill", post(&api.SimulateRequest{Code: memoProgram, MemFills: []api.MemFill{{Label: "nope"}}}, api.CodeMemFill))
	// A deadline or a cancel is seen by the run loop's first look at the
	// request context; these contexts have ended before the run starts.
	endedIn := func(ctx context.Context, code string) func() int {
		req := &api.SimulateRequest{Code: spinProgram}
		return func() int {
			r := httptest.NewRequest(http.MethodPost, api.V1Prefix+"/simulate", nil).WithContext(ctx)
			resp, aerr := s.handleSimulate(nil, r, req)
			if aerr == nil {
				t.Fatalf("%s: answered %T", code, resp)
			}
			if aerr.Code != code {
				t.Fatalf("error %s, want %s", aerr.Code, code)
			}
			return statusForCode(aerr.Code)
		}
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	check("deadline", endedIn(expired, api.CodeDeadlineExceeded))
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	check("cancel", endedIn(canceled, api.CodeInternal))
}

// TestReplyMemoSaltedStreamRetainsNothing: requests whose sources never
// repeat miss their Program every time, so they never reach the memo —
// the memoized classroom stays as it was, byte for byte.
func TestReplyMemoSaltedStreamRetainsNothing(t *testing.T) {
	s, ts := newTestServer(t)
	templates := []api.SimulateRequest{
		{Code: classroomAsm},
		{Code: tinyProgram, IncludeState: true},
		{Code: classroomC, Language: "c"},
	}
	for pass := 0; pass < 5; pass++ {
		for i := range templates {
			if status, body, err := simulateBody(ts.URL, &templates[i], false); err != nil || status != http.StatusOK {
				t.Fatalf("status %d, %v: %s", status, err, body)
			}
		}
	}
	warm := s.Metrics()
	if warm.ProgramCacheReplyHits == 0 {
		t.Fatal("the classroom was never answered from the memo")
	}
	for i := 0; i < 40; i++ {
		req := templates[i%len(templates)]
		if req.Language == "c" {
			req.Code = fmt.Sprintf("%s\nint salt_%d = %d;\n", req.Code, i, i)
		} else {
			req.Code = fmt.Sprintf("li t6, %d\n%s", i, req.Code)
		}
		if status, body, err := simulateBody(ts.URL, &req, false); err != nil || status != http.StatusOK {
			t.Fatalf("status %d, %v: %s", status, err, body)
		}
	}
	m := s.Metrics()
	if m.ProgramCacheBytes != warm.ProgramCacheBytes || m.ProgramCacheEntries != warm.ProgramCacheEntries ||
		m.ProgramCacheReplyHits != warm.ProgramCacheReplyHits || m.ProgramCacheEvictions != warm.ProgramCacheEvictions {
		t.Errorf("salted stream moved the cache: %d → %d bytes, %d → %d entries, %d → %d reply hits, %d → %d evictions",
			warm.ProgramCacheBytes, m.ProgramCacheBytes, warm.ProgramCacheEntries, m.ProgramCacheEntries,
			warm.ProgramCacheReplyHits, m.ProgramCacheReplyHits, warm.ProgramCacheEvictions, m.ProgramCacheEvictions)
	}
}

// programCharge is what an entry for an assembly source is charged
// before any reply.
func programCharge(t testing.TB, src string) int {
	t.Helper()
	p, err := sim.Assemble(src, sim.DefaultMemoryConfig())
	if err != nil {
		t.Fatal(err)
	}
	return len(src) + p.RetainedBytes()
}

// TestReplyMemoWithinBudget: replies are charged to the cache's one
// budget, and storing them evicts whole entries, never past it. The
// budget holds two Programs and a few replies, and the requests keep
// more replies than that.
func TestReplyMemoWithinBudget(t *testing.T) {
	s, ts := newTestServer(t)
	budget := programCharge(t, classroomAsm) + programCharge(t, spillProgram) + 64<<10
	s.programs = newProgramCache(budget)
	for round := 0; round < 3; round++ {
		for steps := uint64(100); steps < 1000; steps += 100 {
			for _, code := range []string{classroomAsm, spillProgram, entryAsm} {
				req := &api.SimulateRequest{Code: code, Steps: steps, IncludeState: true}
				for i := 0; i < 4; i++ {
					if status, body, err := simulateBody(ts.URL, req, false); err != nil || status != http.StatusOK {
						t.Fatalf("status %d, %v: %s", status, err, body)
					}
					if b := s.Metrics().ProgramCacheBytes; b > budget {
						t.Fatalf("programCacheBytes %d over the budget %d", b, budget)
					}
				}
				checkCharges(t, s.programs)
			}
		}
	}
	if m := s.Metrics(); m.ProgramCacheReplyHits == 0 || m.ProgramCacheEvictions == 0 {
		t.Errorf("%d reply hits, %d evictions: the memo or the budget was never exercised", m.ProgramCacheReplyHits, m.ProgramCacheEvictions)
	}
}

// TestReplyMemoConcurrent: identical requests sent at once race from the
// memo's miss through the run to the store, and memo hits are answered
// while another source's Program and reply evict entries — the budget
// holds the default example's Program with its three replies, not those
// and another Program. Every body must still be the uncached answer. Under -race this is the check that a stored reply is never
// written again (CI: race job, -count=5).
func TestReplyMemoConcurrent(t *testing.T) {
	s, ts := newTestServer(t)
	s.programs = newProgramCache(programCharge(t, classroomAsm) + 10<<10)
	reqs := []api.SimulateRequest{
		{Code: classroomAsm, IncludeState: true},
		{Code: classroomAsm, Steps: 300},
		{Code: classroomAsm},
		{Code: spillProgram, Steps: 200},
	}
	wants := make([][]byte, len(reqs))
	for i := range reqs {
		wants[i] = uncachedReply(t, &reqs[i])
	}
	const clients, requests = 6, 40
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				// Most clients send the same request at the same time; the
				// last cycles through every request, evicting as it goes.
				k := (i / 8) % 3
				if c == clients-1 {
					k = i % len(reqs)
				}
				status, body, err := simulateBody(ts.URL, &reqs[k], i%2 == 0)
				if err != nil || status != http.StatusOK {
					t.Errorf("client %d request %d: status %d, %v", c, i, status, err)
					return
				}
				if !bytes.Equal(body, wants[k]) {
					t.Errorf("client %d request %d: reply differs from the uncached answer", c, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	checkCharges(t, s.programs)
	if m := s.Metrics(); m.ProgramCacheReplyHits == 0 || m.ProgramCacheEvictions == 0 {
		t.Errorf("%d reply hits, %d evictions: the race was not run", m.ProgramCacheReplyHits, m.ProgramCacheEvictions)
	}
}

// TestReplyMemoOutlivesItsProgram: a memoized reply is an entry of its
// own, so evicting the Program its request ran leaves it in the cache, and
// the request is still answered from it with the uncached reply, byte for
// byte, without building the Program again.
func TestReplyMemoOutlivesItsProgram(t *testing.T) {
	s, ts := newTestServer(t)
	req := &api.SimulateRequest{Code: classroomAsm, IncludeState: true}
	want, key := uncachedReply(t, req), replyKeyOf(req)
	// The budget holds the request's Program and its reply, and not
	// those and another Program as well.
	s.programs = newProgramCache(programCharge(t, classroomAsm) + len(want) + key.size())
	post := func(req *api.SimulateRequest) []byte {
		t.Helper()
		status, body, err := simulateBody(ts.URL, req, false)
		if err != nil || status != http.StatusOK {
			t.Fatalf("status %d, %v: %s", status, err, body)
		}
		return body
	}
	post(req)
	post(req) // stores the Program and the reply
	if m := s.Metrics(); m.ProgramCacheEntries != 2 {
		t.Fatalf("%d entries after the second request, want its Program and its reply", m.ProgramCacheEntries)
	}
	// The reply is the most recently used entry: storing a second source
	// evicts the request's Program and keeps its reply.
	mem := sim.DefaultMemoryConfig()
	for i := 0; i < 2; i++ {
		if _, err := s.programs.assemble(spillProgram, mem); err != nil {
			t.Fatal(err)
		}
	}
	s.programs.mu.Lock()
	_, programKept := s.programs.entries.get(cacheKey{prog: programKey{mem: mem, text: classroomAsm}})
	_, replyKept := s.programs.entries.get(key)
	s.programs.mu.Unlock()
	if programKept || !replyKept {
		t.Fatalf("after another source was stored: Program kept %v, reply kept %v; want false, true", programKept, replyKept)
	}
	checkCharges(t, s.programs)
	s.ResetMetrics()
	if body := post(req); !bytes.Equal(body, want) {
		t.Errorf("reply outliving its Program differs from the uncached reply:\n got %s\nwant %s", body, want)
	}
	if m := s.Metrics(); m.ProgramCacheReplyHits != 1 || m.ProgramCacheMisses != 0 || m.ProgramCacheHits != 0 {
		t.Errorf("%d reply hits, %d Program misses, %d Program hits; want the reply answered without a build (1, 0, 0)",
			m.ProgramCacheReplyHits, m.ProgramCacheMisses, m.ProgramCacheHits)
	}
}
