package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"riscvsim/internal/api"
	"riscvsim/sim"
)

// classroomAsm is the text of loadgen.ProgramA, the paper's default
// example (loadgen imports this package, so the test cannot).
const classroomAsm = `
li t0, 0
li t1, 1
li t2, 200
loop:
  add t0, t0, t1
  addi t1, t1, 1
  bne t1, t2, loop
`

// classroomC is a C program small enough to compile in every test.
const classroomC = `
int v[8] = {5, 3, 8, 1, 9, 2, 7, 4};
int main() {
    int s = 0;
    for (int i = 0; i < 8; i++) { if (v[i] > 4) s += v[i]; }
    return s;
}
`

// entryAsm has two entry points that compute different results.
const entryAsm = `
first:
  li a0, 1
  ecall
second:
  li a0, 2
  ecall
`

func mustBuild(t *testing.T, s *Server, req *api.SimulateRequest) *sim.Machine {
	t.Helper()
	m, aerr := s.buildMachine(req)
	if aerr != nil {
		t.Fatalf("build: %v", aerr)
	}
	return m
}

// mustBuildStored builds the request twice and returns the second
// machine: the cache stores a source the second time it is built, so this
// machine runs the Program later requests will find.
func mustBuildStored(t *testing.T, s *Server, req *api.SimulateRequest) *sim.Machine {
	t.Helper()
	mustBuild(t, s, req)
	return mustBuild(t, s, req)
}

func configJSON(t *testing.T, edit func(*sim.Config)) *json.RawMessage {
	t.Helper()
	cfg := sim.DefaultConfig()
	edit(cfg)
	data, err := cfg.Export()
	if err != nil {
		t.Fatal(err)
	}
	raw := json.RawMessage(data)
	return &raw
}

// TestProgramCacheKeyAliasing: everything a Program depends on separates
// cache entries, and nothing else does. A key that dropped one of these
// would hand a request another request's program.
func TestProgramCacheKeyAliasing(t *testing.T) {
	s := New(DefaultOptions())
	once := mustBuild(t, s, &api.SimulateRequest{Code: classroomAsm})
	base := mustBuild(t, s, &api.SimulateRequest{Code: classroomAsm})
	if base.Program() == once.Program() {
		t.Error("a source was stored the first time it was built")
	}
	if again := mustBuild(t, s, &api.SimulateRequest{Code: classroomAsm}); again.Program() != base.Program() {
		t.Error("the third build of a source did not find the second's Program")
	}

	// Same text on another architecture with the same memory: shared.
	for _, preset := range []string{"scalar", "wide4"} {
		if m := mustBuild(t, s, &api.SimulateRequest{Code: classroomAsm, Preset: preset}); m.Program() != base.Program() {
			t.Errorf("preset %s does not share the default preset's Program", preset)
		}
	}

	// One byte of difference, same length.
	if m := mustBuildStored(t, s, &api.SimulateRequest{Code: strings.Replace(classroomAsm, "200", "201", 1)}); m.Program() == base.Program() {
		t.Error("sources differing in one byte share a Program")
	}

	// Memory size and call-stack size are part of the image.
	small := mustBuildStored(t, s, &api.SimulateRequest{Code: classroomAsm,
		Config: configJSON(t, func(c *sim.Config) { c.Memory.Size = 32 << 10 })})
	if small.Program() == base.Program() {
		t.Error("a 32 KiB machine shares the 64 KiB machine's Program")
	}
	if _, err := small.ReadMemory(32<<10, 1); err == nil {
		t.Error("the 32 KiB machine runs on a larger memory")
	}
	stack := mustBuildStored(t, s, &api.SimulateRequest{Code: classroomAsm,
		Config: configJSON(t, func(c *sim.Config) { c.Memory.CallStackSize = 8 << 10 })})
	if stack.Program() == base.Program() || stack.Program() == small.Program() {
		t.Error("a different call-stack size shares a Program")
	}
	if sp, _ := stack.IntReg("sp"); sp != 8<<10 {
		t.Errorf("sp = %d on the 8 KiB call stack", sp)
	}
	if sp, _ := base.IntReg("sp"); sp != 4<<10 {
		t.Errorf("sp = %d on the default call stack", sp)
	}

	// Language: C text is never looked up as assembly or the reverse, in
	// either order.
	if _, aerr := s.buildMachine(&api.SimulateRequest{Code: classroomC}); aerr == nil || aerr.Code != api.CodeBuildFailed {
		t.Errorf("C text assembled: %v", aerr)
	}
	c0 := mustBuildStored(t, s, &api.SimulateRequest{Code: classroomC, Language: "c"})
	if _, aerr := s.buildMachine(&api.SimulateRequest{Code: classroomC}); aerr == nil {
		t.Error("C text assembled once its C build was cached")
	}
	if _, aerr := s.buildMachine(&api.SimulateRequest{Code: classroomAsm, Language: "c"}); aerr == nil {
		t.Error("assembly text compiled as C because its assembly build was cached")
	}
	if again := mustBuild(t, s, &api.SimulateRequest{Code: classroomC, Language: "c"}); again.Program() != c0.Program() {
		t.Error("the third build of a C source did not find the second's Program")
	}

	// Optimisation level.
	c2 := mustBuildStored(t, s, &api.SimulateRequest{Code: classroomC, Language: "c", Optimize: 2})
	if c2.Program() == c0.Program() {
		t.Error("-O0 and -O2 share a Program")
	}
	c0.Run(1_000_000)
	c2.Run(1_000_000)
	if c0.Cycle() == c2.Cycle() {
		t.Errorf("-O0 and -O2 both ran %d cycles", c0.Cycle())
	}

	// The entry point belongs to the machine, not the Program: two
	// entries share the Program and still start where they were told to.
	first := mustBuildStored(t, s, &api.SimulateRequest{Code: entryAsm, Entry: "first"})
	second := mustBuild(t, s, &api.SimulateRequest{Code: entryAsm, Entry: "second"})
	if first.Program() != second.Program() {
		t.Error("two entry points of one text built two Programs")
	}
	for want, m := range map[int32]*sim.Machine{1: first, 2: second} {
		m.Run(1000)
		if a0, _ := m.IntReg("a0"); a0 != want {
			t.Errorf("entry for a0=%d computed a0=%d", want, a0)
		}
	}
	if _, aerr := s.buildMachine(&api.SimulateRequest{Code: entryAsm, Entry: "third"}); aerr == nil {
		t.Error("an undefined entry label built")
	}

	// Failed builds are not cached.
	before := s.Metrics().ProgramCacheEntries
	for i := 0; i < 3; i++ {
		if _, aerr := s.buildMachine(&api.SimulateRequest{Code: "bogus t0, t1"}); aerr == nil {
			t.Fatal("bogus source built")
		}
	}
	if after := s.Metrics().ProgramCacheEntries; after != before {
		t.Errorf("failed builds grew the cache from %d to %d entries", before, after)
	}
	// ... and neither is a source built only once.
	mustBuild(t, s, &api.SimulateRequest{Code: saltedAsm(1)})
	if after := s.Metrics().ProgramCacheEntries; after != before {
		t.Errorf("a source built once grew the cache from %d to %d entries", before, after)
	}
}

func saltedAsm(i int) string { return fmt.Sprintf("li t6, %d\n%s", i, classroomAsm) }

// TestProgramCacheBudgetAndLRU: ten budgets' worth of distinct sources,
// each built twice so that it is stored, never take the cache over its
// byte budget, eviction takes the least recently used first, and a
// Program a live machine holds outlives its eviction.
func TestProgramCacheBudgetAndLRU(t *testing.T) {
	mem := sim.DefaultMemoryConfig()
	probe, err := sim.Assemble(saltedAsm(0), mem)
	if err != nil {
		t.Fatal(err)
	}
	entry := len(saltedAsm(0)) + probe.RetainedBytes()
	const slots = 8
	c := newProgramCache(slots*entry + entry/2)

	stored := func(i int) *sim.Program {
		t.Helper()
		var p *sim.Program
		for range 2 {
			var err error
			if p, err = c.assemble(saltedAsm(i), mem); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	held, err := stored(0).NewMachine(sim.DefaultConfig(), "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 10*slots; i++ {
		stored(i)
		// Keep source 1 recently used; source 2 is never touched again.
		if _, err := c.assemble(saltedAsm(1), mem); err != nil {
			t.Fatal(err)
		}
		if st := c.stats(); st.bytes > c.entries.budget || st.entries > slots {
			t.Fatalf("after %d sources the cache holds %d bytes in %d entries, budget %d (%d entries)",
				i+1, st.bytes, st.entries, c.entries.budget, slots)
		}
	}
	st := c.stats()
	if st.entries != slots || st.evictions != uint64(10*slots-slots) {
		t.Errorf("cache ends with %d entries after %d evictions, want %d and %d", st.entries, st.evictions, slots, 10*slots-slots)
	}
	lookup := func(i int) bool {
		before := c.stats().hits
		if _, err := c.assemble(saltedAsm(i), mem); err != nil {
			t.Fatal(err)
		}
		return c.stats().hits == before+1
	}
	if !lookup(1) {
		t.Error("the most recently used source was evicted")
	}
	if !lookup(10*slots - 1) {
		t.Error("the newest source was evicted")
	}
	// Sources 0 and 2 were never touched after they were stored. These
	// lookups come last: a missing lookup is itself a first sight.
	if lookup(2) {
		t.Error("a source untouched since it was stored survived 70 younger ones")
	}
	// The machine built from source 0 still runs, and to the same end as
	// a fresh build.
	if lookup(0) {
		t.Fatal("source 0 is still cached; the test did not evict it")
	}
	fresh, err := sim.NewFromAsm(sim.DefaultConfig(), saltedAsm(0), "")
	if err != nil {
		t.Fatal(err)
	}
	held.Run(100_000)
	fresh.Run(100_000)
	if !held.Halted() || held.StateHash() != fresh.StateHash() {
		t.Error("a machine whose Program was evicted does not run like a fresh one")
	}

	// A Program larger than the whole budget is handed out, not kept.
	tiny := newProgramCache(entry / 2)
	for range 3 {
		if _, err := tiny.assemble(saltedAsm(0), mem); err != nil {
			t.Fatal(err)
		}
	}
	if st := tiny.stats(); st.entries != 0 || st.bytes != 0 {
		t.Errorf("an over-budget Program was cached: %+v", st)
	}
}

// TestProgramCacheMetricsByMix replays the shape of the benchmark's two
// simulate mixes and reads the traffic off /api/v1/metrics: a class
// repeating a few templates is answered from memoized replies every time
// once each ran twice, and sources that never repeat never hit and are
// never stored.
func TestProgramCacheMetricsByMix(t *testing.T) {
	srv, ts := newTestServer(t)
	templates := []api.SimulateRequest{
		{Code: classroomAsm},
		{Code: tinyProgram},
		{Code: classroomC, Language: "c"},
		{Code: classroomC, Language: "c", Optimize: 2},
	}
	// The ten keys a pass looks up — the four requests' replies, and the
	// six texts they build: the four sent plus the two assemblies the C
	// texts compile to — and what each entry is charged: a Program its
	// text and what it retains (tables and the image pages the assembler
	// wrote, not the whole address space), a reply its length and its
	// request's variable-length fields.
	mem := sim.DefaultMemoryConfig()
	var keys []cacheKey
	charged := 0
	for _, tpl := range templates {
		reply := replyKeyOf(&tpl)
		keys = append(keys, reply)
		charged += reply.size() + len(uncachedReply(t, &tpl))
		src := tpl.Code
		if tpl.Language == "c" {
			keys = append(keys, cacheKey{prog: programKey{c: true, optimize: tpl.Optimize, mem: mem, text: tpl.Code}})
			res, err := sim.CompileC(tpl.Code, tpl.Optimize)
			if err != nil {
				t.Fatal(err)
			}
			src = res.Assembly
		}
		keys = append(keys, cacheKey{prog: programKey{mem: mem, text: src}})
		p, err := sim.Assemble(src, mem)
		if err != nil {
			t.Fatal(err)
		}
		charged += len(src) + p.RetainedBytes()
		if tpl.Language == "c" {
			charged += len(tpl.Code) + p.RetainedBytes()
		}
	}
	// Admission remembers a key's first miss in one of 1,024 slots picked
	// by a randomly seeded hash; two of the ten sharing a slot would be
	// stored a pass late. Reseed until they do not, so the counts below
	// hold whatever the seed.
	for slots := map[uint64]bool{}; len(slots) < len(keys); {
		srv.programs.seed = maphash.MakeSeed()
		clear(slots)
		for _, k := range keys {
			slots[maphash.Comparable(srv.programs.seed, k)%uint64(len(srv.programs.seen))] = true
		}
	}
	simulate := func(req *api.SimulateRequest) {
		t.Helper()
		if resp, body := postJSON(t, ts.URL+api.V1Prefix+"/simulate", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	metrics := func() api.Metrics {
		t.Helper()
		resp, body := func() (*http.Response, []byte) {
			resp, err := http.Get(ts.URL + api.V1Prefix + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			return resp, buf.Bytes()
		}()
		var m api.Metrics
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("metrics (status %d): %v", resp.StatusCode, err)
		}
		return m
	}

	// Classroom: warm up with two passes, then 40 requests are all
	// answered from their memoized replies and build nothing. A warm-up
	// pass misses four replies and six texts; the second stores all ten.
	for i := range templates {
		simulate(&templates[i])
	}
	if first := metrics(); first.ProgramCacheMisses != 6 || first.ProgramCacheEntries != 0 {
		t.Errorf("after one pass: %d misses, %d entries; want 6, 0", first.ProgramCacheMisses, first.ProgramCacheEntries)
	}
	for i := range templates {
		simulate(&templates[i])
	}
	warm := metrics()
	if warm.ProgramCacheHits != 0 || warm.ProgramCacheMisses != 12 || warm.ProgramCacheEntries != 10 {
		t.Errorf("after warm-up: %d hits, %d misses, %d entries; want 0, 12, 10",
			warm.ProgramCacheHits, warm.ProgramCacheMisses, warm.ProgramCacheEntries)
	}
	if warm.ProgramCacheBytes != charged {
		t.Errorf("programCacheBytes = %d, want %d", warm.ProgramCacheBytes, charged)
	}
	srv.ResetMetrics()
	for i := 0; i < 40; i++ {
		simulate(&templates[i%len(templates)])
	}
	if m := metrics(); m.ProgramCacheReplyHits != 40 || m.ProgramCacheHits != 0 || m.ProgramCacheMisses != 0 || m.ProgramCacheEvictions != 0 {
		t.Errorf("classroom mix: %d reply hits, %d hits, %d misses, %d evictions over 40 requests; want 40, 0, 0, 0",
			m.ProgramCacheReplyHits, m.ProgramCacheHits, m.ProgramCacheMisses, m.ProgramCacheEvictions)
	}
	if m := metrics(); m.ProgramCacheEntries != 10 {
		t.Errorf("ResetMetrics or the hits changed the entry count to %d", m.ProgramCacheEntries)
	}

	// Unique: every source is salted, nothing hits.
	srv.ResetMetrics()
	for i := 0; i < 40; i++ {
		req := templates[i%len(templates)]
		if req.Language == "c" {
			req.Code = fmt.Sprintf("%s\nint salt_%d = %d;\n", req.Code, i, i)
		} else {
			req.Code = fmt.Sprintf("li t6, %d\n%s", i, req.Code)
		}
		simulate(&req)
	}
	// 20 assembly requests miss once, 20 C requests twice; no reply hits
	// and nothing is stored.
	if m := metrics(); m.ProgramCacheHits != 0 || m.ProgramCacheReplyHits != 0 || m.ProgramCacheMisses != 60 ||
		m.ProgramCacheEntries != 10 || m.ProgramCacheEvictions != 0 {
		t.Errorf("unique mix: %d hits, %d reply hits, %d misses, %d entries, %d evictions over 40 requests; want 0, 0, 60, 10, 0",
			m.ProgramCacheHits, m.ProgramCacheReplyHits, m.ProgramCacheMisses, m.ProgramCacheEntries, m.ProgramCacheEvictions)
	}
}

// TestCachedBuildByteIdentical: a request answered from a cached Program
// gets the bytes an uncached build answers with, and its machine
// checkpoints to the same bytes. Through /api/v1/simulate the request runs
// on its cached Program, runs again and has its reply stored, and is then
// answered from the memo: every body, gzip off and on, is the uncached
// encoding.
func TestCachedBuildByteIdentical(t *testing.T) {
	s, ts := newTestServer(t)
	cached := func(req *api.SimulateRequest) (*sim.Machine, *api.Error) { return s.buildMachine(req) }
	for _, req := range []api.SimulateRequest{
		{Code: classroomAsm, IncludeState: true, IncludeLog: true},
		{Code: spillProgram, Steps: 60, IncludeState: true},
		{Code: classroomC, Language: "c", Optimize: 1},
		{Code: classroomAsm, FastForward: true},
		{Code: entryAsm, Entry: "second"},
	} {
		var responses, checkpoints [][]byte
		for _, build := range []func(*api.SimulateRequest) (*sim.Machine, *api.Error){BuildMachine, cached, cached, cached} {
			m, aerr := build(&req)
			if aerr != nil {
				t.Fatal(aerr)
			}
			m.Run(40)
			var ck bytes.Buffer
			if err := m.Checkpoint(&ck); err != nil {
				t.Fatal(err)
			}
			checkpoints = append(checkpoints, ck.Bytes())
		}
		uncached := New(DefaultOptions())
		uncached.programs = nil
		for _, srv := range []*Server{uncached, s, s, s} {
			_, resp, aerr := srv.simulate(context.Background(), &req)
			if aerr != nil {
				t.Fatal(aerr)
			}
			var buf bytes.Buffer
			if err := api.PooledCodec.Encode(&buf, resp); err != nil {
				t.Fatal(err)
			}
			responses = append(responses, buf.Bytes())
		}
		for i := 1; i < len(checkpoints); i++ {
			if !bytes.Equal(checkpoints[i], checkpoints[0]) {
				t.Errorf("%q: checkpoint of cached build %d differs from the uncached build's", req.Code[:12], i)
			}
			if !bytes.Equal(responses[i], responses[0]) {
				t.Errorf("%q: response of cached build %d differs from the uncached build's", req.Code[:12], i)
			}
		}

		// The Program is stored: the first POST runs on it, the second
		// runs again and stores its reply, the other six are answered from
		// the memo.
		want := uncachedReply(t, &req)
		before := s.Metrics().ProgramCacheReplyHits
		for i := 0; i < 8; i++ {
			gz := i%2 == 1
			status, body, err := simulateBody(ts.URL, &req, gz)
			if err != nil || status != http.StatusOK {
				t.Fatalf("%q: POST %d: status %d, %v", req.Code[:12], i, status, err)
			}
			if !bytes.Equal(body, want) {
				t.Errorf("%q: POST %d (gzip %v) differs from the uncached reply", req.Code[:12], i, gz)
			}
		}
		if hits := s.Metrics().ProgramCacheReplyHits - before; hits != 6 {
			t.Errorf("%q: %d of 8 POSTs answered from the memo, want 6", req.Code[:12], hits)
		}
	}
}

// TestRestoreAndParseShareTheRequestsProgram: a checkpoint embeds the
// assembly its machine ran — for a C request, the compiler's output — and
// restoring it finds the Program the request built; parsing a source
// counts as building it, so the simulate that follows stores the Program
// and the one after that finds it.
func TestRestoreAndParseShareTheRequestsProgram(t *testing.T) {
	srv, ts := newTestServer(t)
	m := mustBuildStored(t, srv, &api.SimulateRequest{Code: classroomC, Language: "c", Optimize: 1})
	m.Run(25)
	var ck bytes.Buffer
	if err := m.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	misses := srv.Metrics().ProgramCacheMisses
	restored := mustBuild(t, srv, &api.SimulateRequest{Checkpoint: ck.Bytes()})
	if restored.Program() != m.Program() {
		t.Error("a simulate from a checkpoint assembled its own Program")
	}
	session, err := srv.programs.restoreSession(ck.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if session.Program() != m.Program() || session.SnapshotInterval() == 0 {
		t.Error("a session restore assembled its own Program or lost its snapshots")
	}
	if got := srv.Metrics().ProgramCacheMisses; got != misses {
		t.Errorf("restores missed the cache %d times", got-misses)
	}
	if restored.StateHash() != m.StateHash() {
		t.Error("restored machine differs from the checkpointed one")
	}

	var pr api.ParseAsmResponse
	_, body := postJSON(t, ts.URL+api.V1Prefix+"/parseAsm", &api.ParseAsmRequest{Code: entryAsm})
	if err := json.Unmarshal(body, &pr); err != nil || !pr.OK {
		t.Fatalf("parseAsm: %s", body)
	}
	mustBuild(t, srv, &api.SimulateRequest{Code: entryAsm})
	if got := srv.Metrics().ProgramCacheEntries; got != 3 {
		t.Errorf("parseAsm then simulate left %d entries, want the C pair and this source", got)
	}
	misses = srv.Metrics().ProgramCacheMisses
	mustBuild(t, srv, &api.SimulateRequest{Code: entryAsm})
	if got := srv.Metrics().ProgramCacheMisses; got != misses {
		t.Error("the second simulate after parseAsm assembled the source again")
	}
	_, body = postJSON(t, ts.URL+api.V1Prefix+"/parseAsm", &api.ParseAsmRequest{Code: "bogus t0"})
	if err := json.Unmarshal(body, &pr); err != nil || pr.OK || pr.Errors == "" {
		t.Errorf("parseAsm of a bad source: %s", body)
	}
}

// TestCachedBuildAllocation bounds what Server.buildMachine allocates for
// the default example once its Program is cached: the per-run structures
// and a page table over the shared image, no image copy, no architecture
// document, no lexing, assembling or plan tables. Measured 25 KB; 122 KB
// before the image was shared, 196 KB uncached.
func TestCachedBuildAllocation(t *testing.T) {
	s := New(DefaultOptions())
	req := &api.SimulateRequest{Code: classroomAsm}
	build := func() {
		if _, aerr := s.buildMachine(req); aerr != nil {
			t.Fatal(aerr)
		}
	}
	build()
	build() // the second build stores the Program
	const n = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / n; got > 40<<10 {
		t.Errorf("a cached build allocates %d bytes, want at most 40 KiB", got)
	} else {
		t.Logf("cached build: %d bytes", got)
	}
}
