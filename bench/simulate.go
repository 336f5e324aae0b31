package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"riscvsim/internal/api"
	"riscvsim/internal/client"
	"riscvsim/internal/loadgen"
	"riscvsim/internal/seeds"
	"riscvsim/internal/server"
	"riscvsim/sim"
)

// quicksortC is the examples/quicksort C source, copied so the benchmark
// reads nothing outside its own directory for its inputs.
//
//go:embed testdata/quicksort.c
var quicksortC string

// Warm-up and traced-phase sizes of the simulate workloads, in requests;
// simulateTraceOps is for the reference run length and scales with
// -seconds.
const (
	// traceStart is the stream position at which every client's traced
	// phase begins. The timed windows before it end wherever the clock
	// says; starting the traced phase at a fixed position well beyond
	// their reach makes its request list, and so every exact work count,
	// a function of the seed alone.
	traceStart              = 1 << 20
	simulateWarmupPerClient = 500
	simulateTraceOps        = 10000
)

// template is one of the four programs every simulate request is drawn
// from, with the outcome a direct sim run of it produced in setup.
type template struct {
	name          string
	req           api.SimulateRequest
	wantCycles    uint64
	wantCommitted uint64
}

func (t *template) isC() bool { return strings.EqualFold(t.req.Language, "c") }

// mix is the classroom's 40/40/10/10 split, as template indices in one
// block of ten requests. Every block holds exactly this multiset in a
// seeded order, so any window sees the same mix whatever the seed.
var mix = [10]uint8{0, 0, 0, 0, 1, 1, 1, 1, 2, 3}

// picksPerClient is the length of a client's precomputed pick list; the
// client cycles through it.
const picksPerClient = 4000

// simulateBench drives POST /api/v1/simulate on one default server over
// loopback, without gzip, from closed-loop keep-alive clients.
type simulateBench struct {
	unique    bool
	ts        *httptest.Server
	templates []template
	picks     [][]uint8
	saltBase  int64
	// next is each client's position in its request stream; it only
	// advances, so unique_simulate never repeats a salt within a run.
	next []int
}

func newSimulate(unique bool) setupFunc {
	return func(seed int64, root string) (bench, error) {
		b, err := simulateInputs(seed, unique)
		if err != nil {
			return nil, err
		}
		b.ts = httptest.NewServer(server.New(server.DefaultOptions()).Handler())
		warm := b.drive(func(done int, _ time.Duration) bool { return done >= simulateWarmupPerClient }, nil)
		if warm.failed > 0 {
			b.close()
			return nil, fmt.Errorf("simulate warm-up: %d failed, first: %w", warm.failed, warm.firstErr)
		}
		return b, nil
	}
}

// simulateInputs generates everything the seed decides — the pick lists
// and the salt range — and the templates' reference outcomes, without
// starting a server.
func simulateInputs(seed int64, unique bool) (*simulateBench, error) {
	b := &simulateBench{
		unique: unique,
		templates: []template{
			{name: "programA", req: api.SimulateRequest{Code: loadgen.ProgramA}},
			{name: "programB", req: api.SimulateRequest{Code: loadgen.ProgramB}},
			{name: "quicksort-O0", req: api.SimulateRequest{Code: quicksortC, Language: "c", Optimize: 0}},
			{name: "quicksort-O2", req: api.SimulateRequest{Code: quicksortC, Language: "c", Optimize: 2}},
		},
		// Distinct seeds salt from (almost surely) distinct ranges.
		saltBase: 1 + int64(uint64(seeds.Mix(seed))%(1<<30)),
		next:     make([]int, numClients()),
	}
	for c := 0; c < numClients(); c++ {
		rng := rand.New(rand.NewSource(seeds.Mix(seeds.Derive(seed, c))))
		picks := make([]uint8, 0, picksPerClient)
		for len(picks) < picksPerClient {
			block := mix
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			picks = append(picks, block[:]...)
		}
		b.picks = append(b.picks, picks)
	}
	// Reference outcome per template from a direct sim run of the source
	// as the workload will send it.
	for i := range b.templates {
		t := &b.templates[i]
		m, aerr := server.BuildMachine(b.salted(t, b.saltBase))
		if aerr != nil {
			return nil, fmt.Errorf("simulate: reference build of %s: %v", t.name, aerr)
		}
		m.Run(50_000_000)
		if !m.Halted() {
			return nil, fmt.Errorf("simulate: template %s does not halt", t.name)
		}
		t.wantCycles, t.wantCommitted = m.Cycle(), m.Committed()
	}
	return b, nil
}

func (b *simulateBench) close() { b.ts.Close() }

// salted returns the request to send for template t with salt k. The
// classroom workload sends the template as is; unique_simulate rewrites
// the source so that no two requests share their text while the
// instruction stream that runs — and so the cycle count — stays fixed:
// assembly gets a leading load of k into an otherwise unused register, C
// an unused global named after and holding k.
func (b *simulateBench) salted(t *template, k int64) *api.SimulateRequest {
	if !b.unique {
		return &t.req
	}
	req := t.req
	if t.isC() {
		req.Code = fmt.Sprintf("%s\nint salt_%d = %d;\n", t.req.Code, k, k)
	} else {
		req.Code = fmt.Sprintf("li t6, %d\n%s", k, t.req.Code)
	}
	return &req
}

// request is the i-th request of client c: deterministic in (seed, c, i).
func (b *simulateBench) request(c, i int) (*template, *api.SimulateRequest, int) {
	t := &b.templates[b.picks[c][i%picksPerClient]]
	id := i*len(b.picks) + c
	return t, b.salted(t, b.saltBase+int64(id)), id + 1
}

// checkSimulate holds a reply to the template's reference outcome.
func checkSimulate(t *template, resp *api.SimulateResponse) error {
	switch {
	case !resp.Halted:
		return fmt.Errorf("%s: reply not halted", t.name)
	case resp.Cycles != t.wantCycles:
		return wantEqual(t.name+" cycles", resp.Cycles, t.wantCycles)
	case resp.Stats == nil:
		return fmt.Errorf("%s: reply carries no stats", t.name)
	}
	return wantEqual(t.name+" committed", resp.Stats.Committed, t.wantCommitted)
}

// drive runs the closed loop: every client sends its next request as
// soon as the previous reply is checked, until stop says so. It returns
// the per-client recorders merged, with the host counters of the span.
func (b *simulateBench) drive(stop func(done int, elapsed time.Duration) bool, spans []*tracer) *tally {
	n := len(b.picks)
	recs := make([]*recorder, n)
	clients := make([]*client.Client, n)
	t0 := time.Now()
	for c := range recs {
		recs[c] = newRecorder(t0)
		if spans != nil {
			recs[c].spans = spans[c]
		}
		clients[c] = client.NewForURL(b.ts.URL, false)
	}
	host0 := snapHost()
	runClients(n, func(c int) {
		for done := 0; !stop(done, time.Since(t0)); done++ {
			t, req, id := b.request(c, b.next[c])
			b.next[c]++
			start := time.Now()
			resp, err := clients[c].Simulate(req)
			if err == nil {
				err = checkSimulate(t, resp)
			}
			recs[c].note(kindSimulate, id, start, t.wantCycles, err)
		}
	})
	return mergeRecorders(recs, time.Since(t0), host0.until(snapHost()))
}

func (b *simulateBench) measure(d time.Duration) *tally {
	t := b.drive(func(_ int, elapsed time.Duration) bool { return elapsed >= d }, nil)
	t.window = d
	return t
}

func (b *simulateBench) endToEnd(t *tally) map[string]float64 { return t.endToEnd(kindSimulate) }

func (b *simulateBench) trace(d time.Duration, tr *tracer) (map[string]float64, outcome) {
	layers, untracedRate, ref := referenceWindow(b, d)

	// Traced HTTP phase: a fixed number of requests, one client span each.
	n := len(b.picks)
	perClient := max(int(simulateTraceOps*d.Seconds()/refSeconds)/n, 1)
	for c := range b.next {
		b.next[c] = traceStart
	}
	clientSpans := make([]*tracer, n)
	for c := range clientSpans {
		clientSpans[c] = newTracer(tr.t0, (c+1)<<24)
	}
	cl := client.NewForURL(b.ts.URL, false)
	before, err := cl.Metrics()
	if err != nil {
		return nil, failedOutcome(err)
	}
	phase := b.drive(func(done int, _ time.Duration) bool { return done >= perClient }, clientSpans)
	after, err := cl.Metrics()
	if err != nil {
		return nil, failedOutcome(err)
	}
	for k, v := range serverLayers(*before, *after) {
		layers[k] = v
	}
	for k, v := range clientLayers(phase.samples, kindSimulate) {
		layers[k] = v
	}
	layers["host.trace_overhead_pct"] = overheadPct(untracedRate, float64(len(phase.samples))/phase.window.Seconds())

	// In-process replay of the same requests, one goroutine.
	counts := &replayCounts{}
	cfg := sim.DefaultConfig()
	for i := 0; i < perClient; i++ {
		for c := 0; c < n; c++ {
			t, req, id := b.request(c, traceStart+i)
			b.replay(tr, id, cfg, t, req, counts)
		}
	}
	for k, v := range spanLayers(tr.spans, counts) {
		layers[k] = v
	}
	layers["server.unattributed_us"] = unattributedUS(phase.samples, tr.spans, layers["client.gen_us_per_op"])
	for _, cs := range clientSpans {
		tr.spans = append(tr.spans, cs.spans...)
	}
	counts.absorb(ref)
	counts.absorb(phase.outcome)
	return layers, counts.outcome
}

// replay pushes one simulate request through the layers the server
// crosses for it, from the client's encode to the client's decode.
func (b *simulateBench) replay(tr *tracer, id int, cfg *sim.Config, t *template, req *api.SimulateRequest, c *replayCounts) {
	codec := api.PooledCodec // what internal/client negotiates
	tr.request(id)
	c.attempted++

	tr.begin("client.Encode")
	body, err := json.Marshal(req)
	tr.end()
	if err != nil {
		c.fail(err)
		return
	}
	c.reqBytes += len(body)

	tr.begin("request")
	var out bytes.Buffer
	err = func() error {
		defer tr.end()
		var decoded api.SimulateRequest
		tr.begin("api.Decode")
		err := codec.Decode(bytes.NewReader(body), &decoded)
		tr.end()
		if err != nil {
			return err
		}
		s, instrs, err := buildCore(tr, cfg, decoded.Code, strings.EqualFold(decoded.Language, "c"), decoded.Optimize, decoded.Entry)
		if err != nil {
			return err
		}
		tr.begin("core.Run")
		s.Run(50_000_000)
		tr.end()
		tr.begin("stats.Report")
		resp := &api.SimulateResponse{Halted: s.Halted(), HaltReason: s.HaltReason(), Cycles: s.Cycle(), Stats: s.Report()}
		tr.end()
		tr.begin("api.Encode")
		err = codec.Encode(&out, resp)
		tr.end()
		c.instrs += instrs
		c.cycles += s.Cycle()
		c.committed += s.Committed()
		return err
	}()
	if err != nil {
		c.fail(err)
		return
	}
	c.respBytes += out.Len()

	var resp api.SimulateResponse
	tr.begin("client.Decode")
	err = json.Unmarshal(out.Bytes(), &resp)
	tr.end()
	if err == nil {
		err = checkSimulate(t, &resp)
	}
	if err != nil {
		c.fail(err)
	}
}

// serverLayers is the server.* group read from the server's own
// /api/v1/metrics counters around the traced HTTP phase.
func serverLayers(before, after api.Metrics) map[string]float64 {
	reqs := float64(max(after.Requests-before.Requests, 1))
	return map[string]float64{
		"server.total_us_per_req":  float64(after.TotalNanos-before.TotalNanos) / 1e3 / reqs,
		"server.sim_us_per_req":    float64(after.SimNanos-before.SimNanos) / 1e3 / reqs,
		"server.json_us_per_req":   float64(after.JSONNanos-before.JSONNanos) / 1e3 / reqs,
		"server.shed":              float64(after.Shed - before.Shed),
		"server.deadline_exceeded": float64(after.DeadlineExceeded - before.DeadlineExceeded),
	}
}

// clientLayers is the client.* group: what the closed-loop clients
// observed in the traced HTTP phase, per request kind. p99 is per-layer
// only: on a shared box it does not repeat within a tenth.
func clientLayers(samples []sample, latencyKinds ...uint8) map[string]float64 {
	var pooled []float64
	for _, k := range latencyKinds {
		pooled = append(pooled, latencyOf(samples, k)...)
	}
	sort.Float64s(pooled)
	return map[string]float64{
		"client.step_fwd_p50_ms":    quantile(latencyOf(samples, kindStepFwd), 0.5),
		"client.step_back_p50_ms":   quantile(latencyOf(samples, kindStepBack), 0.5),
		"client.session_new_p50_ms": quantile(latencyOf(samples, kindNew), 0.5),
		"client.checkpoint_p50_ms":  quantile(latencyOf(samples, kindCheckpoint), 0.5),
		"client.restore_p50_ms":     quantile(latencyOf(samples, kindRestore), 0.5),
		"client.latency_p99_ms":     quantile(pooled, 0.99),
	}
}

// unattributedUS is server.unattributed_us: the mean latency the clients
// observed per request minus everything the trace can name — the
// replay's mean in-process time per request plus what the caller passes
// as named elsewhere (the generator's own codec time, the separately
// measured gzip and router-hop costs). What is left is net/http,
// loopback, admission, mux and the client's gzip. Means, not medians,
// because only means add up.
func unattributedUS(samples []sample, spans []span, namedElsewhereUS float64) float64 {
	var observed []float64
	for _, s := range samples {
		observed = append(observed, float64(s.dur)/1e3)
	}
	var inProcess time.Duration
	roots := 0
	for _, s := range spans {
		if s.Name == "request" {
			inProcess += time.Duration(s.End - s.Start)
			roots++
		}
	}
	if roots == 0 {
		return 0
	}
	return mean(observed) - float64(inProcess)/1e3/float64(roots) - namedElsewhereUS
}
