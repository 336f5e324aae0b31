// Benchmarks regenerating every table and figure of the paper's evaluation
// (§IV), plus the ablations A1–A3 below. Run with:
//
//	go test -bench=. -benchmem .
//
// E1 (Table I):  BenchmarkTableI_*        — Direct-row load-test latency/throughput
// E2 (§IV-A):    BenchmarkJSONShare       — JSON share of request handling
// E3 (§IV-A):    BenchmarkGzip*           — gzip throughput effect
// E4 (§IV):      BenchmarkRenderState     — schematic render cost
// A1:            BenchmarkWidthSweep*     — issue-width sweep
// A2:            BenchmarkCachePolicies*  — replacement policy ablation
// A3:            BenchmarkPredictors*     — predictor type ablation
// A4:            BenchmarkBackwardStep*   — backward-simulation cost
//
// Table I's Docker and Remote rows are not modelled here: CI's
// distributed-smoke job measures them with cmd/loadtest against the
// deploy/Dockerfile image, one container and the compose router
// (docs/deployment.md "Capacity model").
package riscvsim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"riscvsim/internal/api"
	"riscvsim/internal/cache"
	"riscvsim/internal/client"
	"riscvsim/internal/loadgen"
	"riscvsim/internal/predictor"
	"riscvsim/internal/render"
	"riscvsim/internal/server"
	"riscvsim/internal/workload"
	"riscvsim/sim"
)

// ---------------------------------------------------------------------------
// E1 — Table I: load-test latency and throughput
// ---------------------------------------------------------------------------

// benchTimeScale compresses the paper's 1 s think time / 4 s ramp-up so a
// full scenario fits in a bench iteration; latencies of individual
// requests are unaffected by the scale (only pacing shrinks).
const benchTimeScale = 0.004

func benchTableI(b *testing.B, users int) {
	ts := httptest.NewServer(server.New(server.DefaultOptions()).Handler())
	defer ts.Close()

	var last *loadgen.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := loadgen.Run(ts.URL, loadgen.PaperScenario(users, benchTimeScale))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	b.ReportMetric(float64(last.Median.Microseconds())/1000, "median-ms")
	b.ReportMetric(float64(last.P90.Microseconds())/1000, "p90-ms")
	b.ReportMetric(last.Throughput, "trans/s")
}

func BenchmarkTableI_Direct30(b *testing.B)  { benchTableI(b, 30) }
func BenchmarkTableI_Direct100(b *testing.B) { benchTableI(b, 100) }

// TestTableIShape asserts the paper's qualitative findings for the Direct
// deployment: the server handles both scenarios without a failed query,
// and heavy load degrades latency.
func TestTableIShape(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	if raceDetectorEnabled {
		t.Skip("timing-shape test; race instrumentation distorts latencies")
	}
	direct := httptest.NewServer(server.New(server.DefaultOptions()).Handler())
	defer direct.Close()

	d30, err := loadgen.Run(direct.URL, loadgen.PaperScenario(30, benchTimeScale))
	if err != nil {
		t.Fatal(err)
	}
	d100, err := loadgen.Run(direct.URL, loadgen.PaperScenario(100, benchTimeScale))
	if err != nil {
		t.Fatal(err)
	}

	// Paper: "During the test, there were no application crashes or
	// query failures."
	for _, r := range []*loadgen.Result{d30, d100} {
		if r.Errors != 0 {
			t.Errorf("query failures: %+v", r)
		}
	}
	// Paper: "A larger number of users significantly affects latency."
	if d100.P90 <= d30.P90 {
		t.Errorf("p90 at 100 users (%v) should exceed p90 at 30 users (%v)", d100.P90, d30.P90)
	}
	t.Logf("Direct  30: %s", d30)
	t.Logf("Direct 100: %s", d100)
}

// ---------------------------------------------------------------------------
// E2 — JSON share of request handling (§IV-A: "about 60%")
// ---------------------------------------------------------------------------

// driveJSONWorkload sends interactive step requests with full state
// payloads — the web client's request pattern. Each seeds the first word
// of the buffer the program overwrites before reading it, so every
// request runs the same instructions yet none repeats one before it: a
// repeated request would be answered from the reply memo, with no
// simulation and no encoding to measure.
func driveJSONWorkload(tb testing.TB, ts *httptest.Server, n int) {
	for i := 0; i < n; i++ {
		body, _ := json.Marshal(&api.SimulateRequest{
			Code:         loadgen.ProgramB,
			Steps:        40,
			MemFills:     []api.MemFill{{Label: "buf", Values: []int64{int64(i)}}},
			IncludeState: true,
			IncludeLog:   true,
		})
		resp, err := http.Post(ts.URL+api.V1Prefix+"/simulate", "application/json", bytes.NewReader(body))
		if err != nil {
			tb.Fatal(err)
		}
		resp.Body.Close()
	}
}

func BenchmarkJSONShare(b *testing.B) {
	srv := server.New(server.DefaultOptions())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.ResetMetrics()
	b.ResetTimer()
	driveJSONWorkload(b, ts, b.N)
	b.StopTimer()
	m := srv.Metrics()
	b.ReportMetric(100*m.JSONShare, "json-share-%")
	b.ReportMetric(float64(m.SimNanos)/float64(m.TotalNanos)*100, "sim-share-%")
}

// TestJSONShareDominates checks the paper's profiling conclusion (§IV-A):
// working with the JSON format consumes more request-handling time than
// the simulation itself, so "further performance gains from optimizing
// the simulation are diminishing". The paper measures ~60% JSON share on
// its Java stack; Go's encoder is faster, so the absolute share is lower
// here, but the JSON-vs-simulation ordering — the actionable finding —
// reproduces, and still does with State on its own encoder (shares before
// and after in docs/performance.md, "The step reply path").
func TestJSONShareDominates(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("timing-shape test; race instrumentation distorts latencies")
	}
	srv := server.New(server.DefaultOptions())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.ResetMetrics()
	driveJSONWorkload(t, ts, 50)
	m := srv.Metrics()
	t.Logf("JSON share = %.1f%% (paper: ~60%%), sim share = %.1f%%",
		100*m.JSONShare, 100*float64(m.SimNanos)/float64(m.TotalNanos))
	if m.JSONNanos <= m.SimNanos {
		t.Errorf("JSON time (%d ns) should exceed simulation time (%d ns) on interactive requests",
			m.JSONNanos, m.SimNanos)
	}
}

// ---------------------------------------------------------------------------
// E2b — batch fan-out (/api/v1/batch): one round trip over a worker pool
// versus N sequential /simulate calls
// ---------------------------------------------------------------------------

// batchSweepSize matches the issue's acceptance scenario: a 32-way sweep.
const batchSweepSize = 32

// batchHeavyLoop is sized so each simulation does real work (~60k
// cycles): the fan-out win must come from simulating in parallel, not
// from shaving HTTP overhead.
const batchHeavyLoop = `
li t0, 0
li t1, 1
li t2, 20000
loop:
  add t0, t0, t1
  addi t1, t1, 1
  bne t1, t2, loop
`

// batchSweepRequests are batchSweepSize runs of batchHeavyLoop. Their
// cycle budgets differ, all far past the loop's halt, so each does the
// same work but no two are the same request: /api/v1/simulate answers a
// repeated request from its reply memo, and none of these is one.
func batchSweepRequests() []api.SimulateRequest {
	reqs := make([]api.SimulateRequest, batchSweepSize)
	for i := range reqs {
		reqs[i] = api.SimulateRequest{Code: batchHeavyLoop, Steps: 1_000_000 + uint64(i)}
	}
	return reqs
}

func BenchmarkBatchSimulate(b *testing.B) {
	srv := server.New(server.DefaultOptions())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.NewForURL(ts.URL, false)
	reqs := batchSweepRequests()

	b.Run("Sequential32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range reqs {
				if _, err := c.Simulate(&reqs[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("Batch32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resp, err := c.SimulateBatch(reqs)
			if err != nil {
				b.Fatal(err)
			}
			if resp.Failed != 0 {
				b.Fatalf("%d batch entries failed", resp.Failed)
			}
		}
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
	})
}

// BenchmarkBatchFromCheckpoint measures the checkpoint-fork path: a
// 32-way sweep forking from one warm checkpoint (50k cycles of shared
// prefix already executed) with a 2k-cycle tail per variant, against the
// same sweep replaying the warm-up from cycle zero. The fork path's
// per-entry cost is restore (proportional to state size) plus the tail,
// not the prefix — that delta is the whole point of checkpoints.
func BenchmarkBatchFromCheckpoint(b *testing.B) {
	// The heavy loop halts at ~40k cycles; fork at 35k so the shared
	// prefix dominates each variant's 2k-cycle tail.
	const warmCycles = 35_000
	const tailCycles = 2_000

	m, err := sim.NewFromAsm(sim.DefaultConfig(), batchHeavyLoop, "")
	if err != nil {
		b.Fatal(err)
	}
	m.Run(warmCycles)
	if m.Halted() {
		b.Fatal("warm-up ran to completion; no prefix to skip")
	}
	var base bytes.Buffer
	if err := m.Checkpoint(&base); err != nil {
		b.Fatal(err)
	}

	srv := server.New(server.DefaultOptions())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.NewForURL(ts.URL, false)

	tails := make([]api.SimulateRequest, batchSweepSize)
	for i := range tails {
		tails[i] = api.SimulateRequest{Steps: tailCycles}
	}
	replays := make([]api.SimulateRequest, batchSweepSize)
	for i := range replays {
		replays[i] = api.SimulateRequest{Code: batchHeavyLoop, Steps: warmCycles + tailCycles}
	}

	b.Run("Forked32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resp, err := c.SimulateBatchFrom(base.Bytes(), tails)
			if err != nil {
				b.Fatal(err)
			}
			if resp.Failed != 0 {
				b.Fatalf("%d forks failed", resp.Failed)
			}
		}
		b.ReportMetric(float64(base.Len()), "ckpt_bytes")
	})
	b.Run("ReplayWarmup32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resp, err := c.SimulateBatch(replays)
			if err != nil {
				b.Fatal(err)
			}
			if resp.Failed != 0 {
				b.Fatalf("%d replays failed", resp.Failed)
			}
		}
	})
}

// TestBatchFasterThanSequential is the acceptance check: on a multi-core
// host, one POST /api/v1/batch with 32 simulations completes in less
// wall time than 32 sequential /simulate calls.
func TestBatchFasterThanSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	if raceDetectorEnabled {
		t.Skip("timing-shape test; race instrumentation distorts latencies")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs a multi-core host")
	}
	reqs := batchSweepRequests()
	// A single wall-clock sample can lose to scheduler noise on shared
	// CI runners; the claim holds if any of a few attempts shows it. Each
	// attempt has a server of its own: on a shared one the sequential side
	// would repeat the previous attempt's requests and be answered from
	// the reply memo instead of simulating.
	const attempts = 3
	for attempt := 1; ; attempt++ {
		ts := httptest.NewServer(server.New(server.DefaultOptions()).Handler())
		t.Cleanup(ts.Close)
		// Warm up (JIT-free, but first requests pay connection setup).
		if _, err := loadgen.BatchSweep(ts.URL, reqs[:2], false); err != nil {
			t.Fatal(err)
		}
		seq, err := loadgen.SequentialSweep(ts.URL, reqs, false)
		if err != nil {
			t.Fatal(err)
		}
		bat, err := loadgen.BatchSweep(ts.URL, reqs, false)
		if err != nil {
			t.Fatal(err)
		}
		if seq.Failed != 0 || bat.Failed != 0 {
			t.Fatalf("failures: sequential %d, batch %d", seq.Failed, bat.Failed)
		}
		t.Logf("attempt %d: 32-way sweep sequential %v, batch %v (%d workers, server fan-out %v, %.2fx)",
			attempt, seq.Wall, bat.Wall, bat.Workers, bat.ServerWall, float64(seq.Wall)/float64(bat.Wall))
		if bat.Wall < seq.Wall {
			return
		}
		if attempt == attempts {
			t.Errorf("batch (%v) should beat sequential (%v) on %d cores",
				bat.Wall, seq.Wall, runtime.GOMAXPROCS(0))
			return
		}
	}
}

// ---------------------------------------------------------------------------
// E3 — gzip effect (§IV-A: "+40% throughput")
// ---------------------------------------------------------------------------

func benchGzip(b *testing.B, gz bool) {
	srv := server.New(server.Options{DisableGzip: !gz})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sc := loadgen.Scenario{
		Users: 16, StepsPerUser: 6, StepSize: 2,
		RampUp: 4 * time.Millisecond, ThinkTime: time.Millisecond,
		Gzip: gz, Programs: []string{loadgen.ProgramA, loadgen.ProgramB},
	}
	var last *loadgen.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := loadgen.Run(ts.URL, sc)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	b.ReportMetric(last.Throughput, "trans/s")
	b.ReportMetric(float64(last.Median.Microseconds())/1000, "median-ms")
}

func BenchmarkGzipOn(b *testing.B)  { benchGzip(b, true) }
func BenchmarkGzipOff(b *testing.B) { benchGzip(b, false) }

// TestGzipCompressionRatio verifies the mechanism behind the paper's
// +40% throughput: state responses compress dramatically, so gzip trades
// cheap CPU for a large wire-size reduction (the win is proportionally
// larger over a real network than on loopback).
func TestGzipCompressionRatio(t *testing.T) {
	srv := server.New(server.DefaultOptions())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body, _ := json.Marshal(&api.SimulateRequest{
		Code: loadgen.ProgramB, Steps: 40, IncludeState: true,
	})

	measure := func(acceptGzip bool) int {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+api.V1Prefix+"/simulate", bytes.NewReader(body))
		if acceptGzip {
			req.Header.Set("Accept-Encoding", "gzip")
		}
		tr := &http.Transport{DisableCompression: true}
		resp, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return buf.Len()
	}

	plain := measure(false)
	compressed := measure(true)
	ratio := float64(plain) / float64(compressed)
	t.Logf("state response: %d B plain, %d B gzip (%.1fx)", plain, compressed, ratio)
	if ratio < 2 {
		t.Errorf("gzip ratio %.2fx, expected at least 2x on JSON state", ratio)
	}
}

// ---------------------------------------------------------------------------
// Build path: the classroom mix with and without repeated sources
// ---------------------------------------------------------------------------

// quicksortC is the paper's quicksort program (Example_quicksort), the C
// half of the classroom mix.
const quicksortC = `
int arr[12] = {9, -3, 5, 1, 12, -7, 0, 4, 4, 100, -50, 2};

void swap(int *a, int *b) { int t = *a; *a = *b; *b = t; }

int partition(int *v, int lo, int hi) {
    int pivot = v[hi];
    int i = lo - 1;
    for (int j = lo; j < hi; j++) {
        if (v[j] < pivot) { i++; swap(&v[i], &v[j]); }
    }
    swap(&v[i + 1], &v[hi]);
    return i + 1;
}

void quicksort(int *v, int lo, int hi) {
    if (lo >= hi) return;
    int p = partition(v, lo, hi);
    quicksort(v, lo, p - 1);
    quicksort(v, p + 1, hi);
}

int main() {
    quicksort(arr, 0, 11);
    return arr[0];   /* smallest element */
}
`

// benchSimulateMix posts the benchmark's classroom mix (bench/simulate.go:
// 40/40/10/10 ProgramA / ProgramB / quicksort -O0 / -O2) to one server's
// handler, with no network in between. unique salts every source the way
// unique_simulate does, so no request repeats a text and the Program
// cache never hits; without it every request after the warm-up does.
func benchSimulateMix(b *testing.B, unique bool) {
	h := server.New(server.DefaultOptions()).Handler()
	templates := []api.SimulateRequest{
		{Code: loadgen.ProgramA},
		{Code: loadgen.ProgramB},
		{Code: quicksortC, Language: "c", Optimize: 0},
		{Code: quicksortC, Language: "c", Optimize: 2},
	}
	mix := [10]int{0, 0, 0, 0, 1, 1, 1, 1, 2, 3}
	post := func(i int) {
		req := templates[mix[i%len(mix)]]
		if unique {
			if req.Language == "c" {
				req.Code = fmt.Sprintf("%s\nint salt_%d = %d;\n", req.Code, i, i)
			} else {
				req.Code = fmt.Sprintf("li t6, %d\n%s", i, req.Code)
			}
		}
		body, err := json.Marshal(&req)
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, api.V1Prefix+"/simulate", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	// Warm-up: four passes of the mix, since the cache stores a source the
	// second time it is built and a reply the second time its request runs
	// on the stored Program.
	warmup := 4 * len(mix)
	for i := 0; i < warmup; i++ {
		post(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(warmup + i)
	}
}

// BenchmarkSimulateRepeat is the classroom shape at the handler, no
// network: everyone submits the same four requests, so after warm-up
// every one is answered from its memoized reply.
// The benchmark's classroom_simulate workload is the gated number; this
// one is for profiling the memo-hit path by hand.
func BenchmarkSimulateRepeat(b *testing.B) { benchSimulateMix(b, false) }

// BenchmarkSimulateUnique is its control (unique_simulate in the
// benchmark): every source is distinct, every build misses, and the
// number must not move when the cache does.
func BenchmarkSimulateUnique(b *testing.B) { benchSimulateMix(b, true) }

// ---------------------------------------------------------------------------
// E4 — render cost (§IV: "rendering typically takes around 80 ms")
// ---------------------------------------------------------------------------

func BenchmarkRenderState(b *testing.B) {
	m, err := sim.NewFromAsm(sim.DefaultConfig(), loadgen.ProgramB, "")
	if err != nil {
		b.Fatal(err)
	}
	m.StepN(60)
	st, l1 := m.State(false), m.Sim().Cache().Config()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		render.Schematic(st, l1)
	}
}

// ---------------------------------------------------------------------------
// Core speed: simulated cycles per second (the CLI's batch-mode currency)
// ---------------------------------------------------------------------------

// simKernel is the shared workload of the core-speed and trace-overhead
// benchmarks: a tight dependent loop with one branch per iteration.
const simKernel = `
li t0, 0
li t1, 1
li t2, 10000
loop:
  add t0, t0, t1
  addi t1, t1, 1
  bne t1, t2, loop
`

// benchSimKernel runs the kernel to completion per iteration, optionally
// attaching a tracer first.
func benchSimKernel(b *testing.B, tracer sim.Tracer, attach bool) {
	b.ReportAllocs()
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := sim.NewFromAsm(sim.DefaultConfig(), simKernel, "")
		if err != nil {
			b.Fatal(err)
		}
		if attach {
			m.SetTracer(tracer)
		}
		cycles = m.Run(10_000_000)
	}
	b.StopTimer()
	b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkSim is the trace-gate baseline: the hot loop with no tracer
// ever attached.
func BenchmarkSim(b *testing.B) { benchSimKernel(b, nil, false) }

// BenchmarkSimTraceOff pins the tentpole's zero-overhead contract: the
// instrumented hot loop with tracing explicitly off (a nil tracer) must
// stay within 5% of BenchmarkSim — CI's trace-overhead-gate job fails
// otherwise.
func BenchmarkSimTraceOff(b *testing.B) { benchSimKernel(b, nil, true) }

// BenchmarkSimTraceRing measures the cost of actually collecting: every
// stage event of the run lands in a bounded ring.
func BenchmarkSimTraceRing(b *testing.B) {
	benchSimKernel(b, sim.NewTraceRing(4096, sim.NoTraceFilter()), true)
}

// BenchmarkSimTraceCommitOnly measures a filtered collector (commit
// events only), the cheap configuration analysis tooling uses.
func BenchmarkSimTraceCommitOnly(b *testing.B) {
	f, err := sim.ParseTraceFilter("commit", "")
	if err != nil {
		b.Fatal(err)
	}
	benchSimKernel(b, sim.NewTraceRing(4096, f), true)
}

// BenchmarkStep is the single-cycle micro-benchmark behind the
// allocation contract: steady-state Step() must stay at 0 allocs/op (run
// with -benchmem; TestStepAllocFree in internal/core is the hard check). The machine is warmed first so every scratch buffer and the
// instruction free list have reached their steady-state footprint.
func BenchmarkStep(b *testing.B) {
	m, err := sim.NewFromAsm(sim.DefaultConfig(), `
  li t0, 0
  li t1, 1
  li t2, 1000000000
loop:
  add t0, t0, t1
  addi t1, t1, 1
  bne t1, t2, loop
`, "")
	if err != nil {
		b.Fatal(err)
	}
	m.StepN(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
	if m.Halted() {
		b.Fatal("kernel finished mid-benchmark; grow the loop bound")
	}
}

// ---------------------------------------------------------------------------
// Workload suite: the corpus as a performance trajectory
// ---------------------------------------------------------------------------

// BenchmarkSuite runs the full embedded corpus sequentially on the
// default core: "simulator speed on realistic code" (complementing
// BenchmarkSim's synthetic tight loop), for profiling by hand. The
// benchmark's corpus_detailed workload is the gated number.
func BenchmarkSuite(b *testing.B) {
	b.ReportAllocs()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		rep, err := workload.Run(workload.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		cycles = 0
		for _, m := range rep.Workloads {
			cycles += m.Cycles
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkFastForward runs the full corpus in the fast-forward
// functional mode (fused basic-block plans, architectural state only),
// for profiling by hand; the benchmark's corpus_fastforward workload is
// the gated number. Machines are assembled once outside the timer;
// each iteration re-runs the programs from a fresh dynamic state, so the
// metric is pure fast-forward execution speed in simulated cycles/s.
func BenchmarkFastForward(b *testing.B) {
	var machines []*sim.Machine
	var maxCycles []uint64
	for _, w := range workload.Corpus() {
		m, err := workload.NewMachine(nil, w)
		if err != nil {
			b.Fatal(err)
		}
		m.SetEngineMode(sim.EngineFastForward)
		machines = append(machines, m)
		maxCycles = append(maxCycles, w.MaxCycles)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cycles = 0
		for j, m := range machines {
			ns, err := m.Sim().Fresh()
			if err != nil {
				b.Fatal(err)
			}
			ns.Run(maxCycles[j])
			if !ns.Halted() {
				b.Fatalf("workload %d did not halt", j)
			}
			cycles += ns.Cycle()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// ---------------------------------------------------------------------------
// Time-parallel simulation: one long run split across K cores
// ---------------------------------------------------------------------------

// BenchmarkParallel is the time-parallel acceptance benchmark: one
// ≥50M-cycle detailed run (workload.LongStreamBench), serial versus
// RunParallel at K ∈ {2, 4, 8}. Each sub-benchmark reports simulated
// cycles per wall-clock second; the K-way numbers divided by Serial's
// are the speedup, measured by hand (target: ≥3x at K=8 on a multi-core
// host — on fewer cores the speedup degrades toward the scout+warm-up
// overhead floor, and on 2 shared vCPUs it does not repeat, which is
// why no gate runs it; docs/parallel.md).
func BenchmarkParallel(b *testing.B) {
	w := workload.LongStreamBench()

	b.Run("Serial", func(b *testing.B) {
		var cycles uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := workload.NewMachine(nil, w)
			if err != nil {
				b.Fatal(err)
			}
			cycles = m.Run(w.MaxCycles)
			if !m.Halted() {
				b.Fatal("serial run did not halt")
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
	})

	for _, k := range []int{2, 4, 8} {
		k := k
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			var res *sim.ParallelResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := workload.NewMachine(nil, w)
				if err != nil {
					b.Fatal(err)
				}
				res, err = m.RunParallel(k, sim.ParallelOptions{MaxCycles: w.MaxCycles})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// Stitched cycles are the serial-equivalent work performed;
			// wall time includes the scout pass, warm-ups and any healing.
			b.ReportMetric(float64(res.Report.Cycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
			b.ReportMetric(float64(res.Workers), "workers")
			b.ReportMetric(float64(res.Healed), "healed")
		})
	}
}

// BenchmarkSuiteParallel is the same corpus on a full worker pool — the
// wall-time number /api/v1/suite users experience on a multi-core host.
func BenchmarkSuiteParallel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Run(workload.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteWorkload breaks the corpus down per workload, so a
// by-hand comparison names the behavior (pointer chase, FP chain,
// conflict misses...) that got faster or slower rather than one blended
// number.
func BenchmarkSuiteWorkload(b *testing.B) {
	for _, w := range workload.Corpus() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				m, err := workload.RunOne(nil, w)
				if err != nil {
					b.Fatal(err)
				}
				cycles = m.Cycles
			}
			b.StopTimer()
			b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
		})
	}
}

// ---------------------------------------------------------------------------
// A1 — issue-width sweep (dot product)
// ---------------------------------------------------------------------------

const dotProduct = `
main:
  la t0, a
  la t1, b
  li t2, 0
  li t3, 64
  fmv.w.x ft0, x0
loop:
  slli t4, t2, 2
  add t5, t0, t4
  flw ft1, 0(t5)
  add t6, t1, t4
  flw ft2, 0(t6)
  fmadd.s ft0, ft1, ft2, ft0
  addi t2, t2, 1
  blt t2, t3, loop
  fcvt.w.s a0, ft0
  ret
.data
.align 4
a: .zero 256
b: .zero 256
`

func benchWidth(b *testing.B, width int) {
	cfg, err := sim.WidthConfig(width)
	if err != nil {
		b.Fatal(err)
	}
	var r *sim.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := sim.NewFromAsm(cfg, dotProduct, "main")
		if err != nil {
			b.Fatal(err)
		}
		m.Run(1_000_000)
		r = m.Report()
	}
	b.StopTimer()
	b.ReportMetric(float64(r.Cycles), "sim-cycles")
	b.ReportMetric(r.IPC, "IPC")
}

func BenchmarkWidthSweep1(b *testing.B) { benchWidth(b, 1) }
func BenchmarkWidthSweep2(b *testing.B) { benchWidth(b, 2) }
func BenchmarkWidthSweep4(b *testing.B) { benchWidth(b, 4) }
func BenchmarkWidthSweep8(b *testing.B) { benchWidth(b, 8) }

// TestWidthSweepShape: wider processors must not be slower on an
// ILP-bearing kernel, and 4-wide must beat scalar outright.
func TestWidthSweepShape(t *testing.T) {
	cycles := map[int]uint64{}
	for _, w := range []int{1, 2, 4} {
		cfg, err := sim.WidthConfig(w)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.NewFromAsm(cfg, dotProduct, "main")
		if err != nil {
			t.Fatal(err)
		}
		m.Run(1_000_000)
		cycles[w] = m.Cycle()
	}
	t.Logf("dot product cycles: 1-wide=%d 2-wide=%d 4-wide=%d", cycles[1], cycles[2], cycles[4])
	if cycles[4] >= cycles[1] {
		t.Errorf("4-wide (%d) should beat scalar (%d)", cycles[4], cycles[1])
	}
	if cycles[2] > cycles[1] {
		t.Errorf("2-wide (%d) should not lose to scalar (%d)", cycles[2], cycles[1])
	}
}

// ---------------------------------------------------------------------------
// A2 — cache policy/associativity ablation
// ---------------------------------------------------------------------------

const stridedWalk = `
main:
  li s0, 0
  li s1, 4
  li a0, 0
pass:
  la t0, arr
  li t1, 0
  li t2, 8
touch:
  lw t3, 0(t0)
  add a0, a0, t3
  addi t0, t0, 1024
  addi t1, t1, 1
  blt t1, t2, touch
  addi s0, s0, 1
  blt s0, s1, pass
  ret
.data
.align 6
arr: .zero 8192
`

func benchCache(b *testing.B, assoc int, pol cache.ReplacementPolicy) {
	cfg := sim.DefaultConfig()
	cfg.Cache.Lines = 16
	cfg.Cache.Associativity = assoc
	cfg.Cache.Replacement = pol
	var r *sim.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := sim.NewFromAsm(cfg, stridedWalk, "main")
		if err != nil {
			b.Fatal(err)
		}
		m.Run(1_000_000)
		r = m.Report()
	}
	b.StopTimer()
	b.ReportMetric(100*r.CacheHitRate, "hit-%")
	b.ReportMetric(float64(r.Cycles), "sim-cycles")
}

func BenchmarkCachePoliciesDM(b *testing.B)       { benchCache(b, 1, cache.LRU) }
func BenchmarkCachePolicies4WayLRU(b *testing.B)  { benchCache(b, 4, cache.LRU) }
func BenchmarkCachePolicies8WayLRU(b *testing.B)  { benchCache(b, 8, cache.LRU) }
func BenchmarkCachePolicies4WayFIFO(b *testing.B) { benchCache(b, 4, cache.FIFO) }
func BenchmarkCachePolicies4WayRand(b *testing.B) { benchCache(b, 4, cache.Random) }

// ---------------------------------------------------------------------------
// A3 — predictor ablation
// ---------------------------------------------------------------------------

// branchy alternates a data-dependent branch T,N,T,N — trivial for a
// history predictor, pathological for one- and two-bit counters.
const branchy = `
main:
  li t0, 0
  li t1, 0
  li t2, 400
loop:
  andi t3, t1, 1
  beqz t3, even
  addi t0, t0, 2
  j next
even:
  addi t0, t0, 1
next:
  addi t1, t1, 1
  bne t1, t2, loop
  mv a0, t0
  ret
`

func benchPredictor(b *testing.B, kind predictor.Type, defState, histBits int) {
	cfg := sim.DefaultConfig()
	cfg.Predictor.Kind = kind
	cfg.Predictor.DefaultState = defState
	cfg.Predictor.HistoryBits = histBits
	var r *sim.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := sim.NewFromAsm(cfg, branchy, "main")
		if err != nil {
			b.Fatal(err)
		}
		m.Run(1_000_000)
		r = m.Report()
	}
	b.StopTimer()
	b.ReportMetric(100*r.PredAccuracy, "accuracy-%")
	b.ReportMetric(float64(r.Cycles), "sim-cycles")
	b.ReportMetric(float64(r.ROBFlushes), "flushes")
}

func BenchmarkPredictorsZeroBit(b *testing.B) { benchPredictor(b, predictor.ZeroBit, 1, 0) }
func BenchmarkPredictorsOneBit(b *testing.B)  { benchPredictor(b, predictor.OneBit, 0, 0) }
func BenchmarkPredictorsTwoBit(b *testing.B)  { benchPredictor(b, predictor.TwoBit, 2, 0) }
func BenchmarkPredictorsGshare(b *testing.B)  { benchPredictor(b, predictor.TwoBit, 2, 8) }

// TestPredictorShape compares predictor types on a biased nested loop
// (inner loop taken 7 of 8 times): a two-bit counter mispredicts once per
// inner-loop exit where a one-bit counter mispredicts twice, and both beat
// a static not-taken predictor. (A pure alternating pattern does not
// discriminate gshare here because the predictor trains at commit, so
// fetch sees stale history under deep speculation — same as the paper's
// design.)
func TestPredictorShape(t *testing.T) {
	const nested = `
main:
  li s0, 0            # outer
  li s1, 50
outer:
  li t1, 0            # inner
  li t2, 8
inner:
  addi t1, t1, 1
  blt t1, t2, inner
  addi s0, s0, 1
  blt s0, s1, outer
  ret
`
	run := func(kind predictor.Type, defState int) float64 {
		cfg := sim.DefaultConfig()
		cfg.Predictor.Kind = kind
		cfg.Predictor.DefaultState = defState
		cfg.Predictor.HistoryBits = 0
		m, err := sim.NewFromAsm(cfg, nested, "main")
		if err != nil {
			t.Fatal(err)
		}
		m.Run(1_000_000)
		return m.Report().PredAccuracy
	}
	zero := run(predictor.ZeroBit, 0) // always not-taken
	one := run(predictor.OneBit, 0)
	two := run(predictor.TwoBit, 2)
	t.Logf("accuracy: zero-bit=%.3f one-bit=%.3f two-bit=%.3f", zero, one, two)
	if two <= one {
		t.Errorf("two-bit (%.3f) should beat one-bit (%.3f) on a biased loop", two, one)
	}
	if one <= zero {
		t.Errorf("one-bit (%.3f) should beat static not-taken (%.3f)", one, zero)
	}
	if two < 0.8 {
		t.Errorf("two-bit accuracy %.3f, expected > 0.8 on loop branches", two)
	}
}

// ---------------------------------------------------------------------------
// A4 — backward-simulation cost (re-run of t−1 cycles, §III-B)
// ---------------------------------------------------------------------------

func benchBackward(b *testing.B, at uint64) {
	m, err := sim.NewFromAsm(sim.DefaultConfig(), loadgen.ProgramA, "")
	if err != nil {
		b.Fatal(err)
	}
	m.StepN(at)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// StepBack replaces the machine; re-advance to keep t constant.
		if err := m.StepBack(); err != nil {
			b.Fatal(err)
		}
		m.StepN(1)
	}
}

func BenchmarkBackwardStepAt100(b *testing.B) { benchBackward(b, 100) }
func BenchmarkBackwardStepAt500(b *testing.B) { benchBackward(b, 500) }

// backwardDeepLoop runs long enough that a backward step at t=20000 is a
// genuinely deep rewind (the kernel halts around 100k cycles).
const backwardDeepLoop = `
li t0, 0
li t1, 1
li t2, 40000
loop:
  add t0, t0, t1
  addi t1, t1, 1
  bne t1, t2, loop
`

// benchBackwardDeep measures one backward step at depth `at`, with or
// without interval snapshots. The snapshot variant restores from the
// nearest snapshot and replays the remainder — O(interval) — while the
// replay variant re-runs all `at` cycles from zero (paper §III-B).
func benchBackwardDeep(b *testing.B, at uint64, snapshots bool) {
	m, err := sim.NewFromAsm(sim.DefaultConfig(), backwardDeepLoop, "")
	if err != nil {
		b.Fatal(err)
	}
	if snapshots {
		m.EnableSnapshots(0)
	}
	m.StepN(at)
	if m.Halted() {
		b.Fatal("kernel halted during warm-up")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.StepBack(); err != nil {
			b.Fatal(err)
		}
		m.StepN(1)
	}
}

// BenchmarkBackwardStepDeepReplay vs ...DeepSnapshot is the interval-
// snapshot acceptance pair: at a 20k-cycle depth the snapshot path must
// be >=10x faster than the from-zero replay.
func BenchmarkBackwardStepDeepReplay(b *testing.B)   { benchBackwardDeep(b, 20_000, false) }
func BenchmarkBackwardStepDeepSnapshot(b *testing.B) { benchBackwardDeep(b, 20_000, true) }

// TestBackwardCostGrowsLinearly documents the paper's design trade-off:
// backward simulation re-runs from cycle zero, so stepping back at a later
// cycle costs more. A long-running program makes the replay cost dominate
// the constant machine-construction cost; the minimum of several runs
// suppresses scheduler noise.
func TestBackwardCostGrowsLinearly(t *testing.T) {
	const longLoop = `
li t0, 0
li t1, 1
li t2, 20000
loop:
  add t0, t0, t1
  addi t1, t1, 1
  bne t1, t2, loop
`
	cost := func(at uint64) time.Duration {
		best := time.Duration(0)
		for trial := 0; trial < 5; trial++ {
			m, err := sim.NewFromAsm(sim.DefaultConfig(), longLoop, "")
			if err != nil {
				t.Fatal(err)
			}
			m.StepN(at)
			start := time.Now()
			for i := 0; i < 5; i++ {
				if err := m.StepBack(); err != nil {
					t.Fatal(err)
				}
				m.StepN(1)
			}
			d := time.Since(start)
			if best == 0 || d < best {
				best = d
			}
		}
		return best
	}
	cost(100) // warmup
	early, late := cost(100), cost(20000)
	t.Logf("5 back-steps at t=100: %v; at t=20000: %v", early, late)
	if late < early {
		t.Errorf("backward stepping at t=20000 (%v) should cost more than at t=100 (%v)", late, early)
	}
}

// ---------------------------------------------------------------------------
// A5 — pipelined functional units (the paper's future-work feature, §V)
// ---------------------------------------------------------------------------

// fpILPKernel has four independent FP accumulator chains, so a pipelined
// FP unit (1 issue/cycle) beats a non-pipelined one (1 op per latency);
// the plain dotProduct kernel would not benefit — its single accumulator
// chain is latency-bound, which is itself a teachable result.
const fpILPKernel = `
main:
  la t0, a
  li t2, 0
  li t3, 64
  fmv.w.x ft0, x0
  fmv.w.x ft4, x0
  fmv.w.x ft5, x0
  fmv.w.x ft6, x0
loop:
  slli t4, t2, 2
  add t5, t0, t4
  flw ft1, 0(t5)
  fadd.s ft0, ft0, ft1
  flw ft2, 4(t5)
  fadd.s ft4, ft4, ft2
  flw ft3, 8(t5)
  fadd.s ft5, ft5, ft3
  flw ft7, 12(t5)
  fadd.s ft6, ft6, ft7
  addi t2, t2, 4
  blt t2, t3, loop
  fadd.s ft0, ft0, ft4
  fadd.s ft5, ft5, ft6
  fadd.s ft0, ft0, ft5
  fcvt.w.s a0, ft0
  ret
.data
.align 4
a: .zero 256
`

func benchPipelined(b *testing.B, pipelined bool) {
	cfg := sim.DefaultConfig()
	if pipelined {
		for i := range cfg.Units {
			cfg.Units[i].Pipelined = true
		}
	}
	var r *sim.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := sim.NewFromAsm(cfg, fpILPKernel, "main")
		if err != nil {
			b.Fatal(err)
		}
		m.Run(1_000_000)
		r = m.Report()
	}
	b.StopTimer()
	b.ReportMetric(float64(r.Cycles), "sim-cycles")
	b.ReportMetric(r.IPC, "IPC")
}

func BenchmarkFUsNonPipelined(b *testing.B) { benchPipelined(b, false) }
func BenchmarkFUsPipelined(b *testing.B)    { benchPipelined(b, true) }

// TestPipelinedFUsShape: lifting the paper's no-internal-pipelining
// limitation must speed up an FP-heavy kernel and leave results unchanged.
func TestPipelinedFUsShape(t *testing.T) {
	run := func(pipelined bool) (uint64, int32) {
		cfg := sim.DefaultConfig()
		if pipelined {
			for i := range cfg.Units {
				cfg.Units[i].Pipelined = true
			}
		}
		m, err := sim.NewFromAsm(cfg, fpILPKernel, "main")
		if err != nil {
			t.Fatal(err)
		}
		m.Run(1_000_000)
		v, _ := m.IntReg("a0")
		return m.Cycle(), v
	}
	plainCycles, plainResult := run(false)
	pipedCycles, pipedResult := run(true)
	t.Logf("4-chain FP kernel: non-pipelined %d cycles, pipelined %d cycles", plainCycles, pipedCycles)
	if pipedResult != plainResult {
		t.Errorf("pipelining changed the result: %d != %d", pipedResult, plainResult)
	}
	if pipedCycles >= plainCycles {
		t.Errorf("pipelined FUs (%d cycles) should beat non-pipelined (%d) on an FP kernel",
			pipedCycles, plainCycles)
	}
}
