package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"time"

	"riscvsim/internal/api"
	"riscvsim/internal/client"
	"riscvsim/internal/loadgen"
	"riscvsim/internal/router"
	"riscvsim/internal/seeds"
	"riscvsim/internal/server"
	"riscvsim/internal/store"
	"riscvsim/internal/workload"
	"riscvsim/sim"
)

// Shape of one scripted debug session (the paper's Table I user: 40
// interactive steps, gzip on), and the sizes of the untimed warm-up and
// the traced phase in sessions. sessionTraceSessions is for the
// reference run length and scales with -seconds.
const (
	scriptSteps            = 40
	stepsFwd1              = 30 // 75 %
	stepsBack              = 5  // 12.5 %
	stepsFwd16             = 5  // 12.5 %
	jumpMin                = 500
	jumpMax                = 3000
	jumpStride             = 1547 // coprime with jumpMax-jumpMin+1
	sessionWarmupPerClient = 2
	sessionTraceSessions   = 48
	// idStride spaces the request IDs of consecutive sessions.
	idStride = 64
)

// headroom is how far before a program's halt the jump may land at most:
// the script's furthest forward excursion, so no step ever runs into the
// end of the program and every step does the work its size says.
const headroom = stepsFwd1 + 16*stepsFwd16 + 1

type sessionProgram struct {
	name  string
	src   string
	entry string
	halt  uint64 // cycle at which a direct run halts
}

// script is one session's request sequence, fully determined by the seed
// and the session's ordinal.
type script struct {
	ordinal int
	prog    *sessionProgram
	jump    int64
	steps   [scriptSteps]int64
	restore bool
}

func (sc *script) reqID(k int) int { return sc.ordinal*idStride + k + 1 }

// storeID is the key the replay stores this session's checkpoints under.
func (sc *script) storeID() string { return fmt.Sprintf("s%08d", sc.ordinal) }

func (sc *script) newRequest() *api.SessionNewRequest {
	return &api.SessionNewRequest{SimulateRequest: api.SimulateRequest{Code: sc.prog.src, Entry: sc.prog.entry}}
}

// sessionBench is the paper's Table I shape through the distributed
// tier: closed-loop gzip clients stepping scripted debug sessions through
// the router onto two write-through replicas over one in-memory store.
type sessionBench struct {
	seed     int64
	out      string // directory for scratch files
	cluster  *loadgen.Cluster
	replicas []string // base URLs, for the direct arm and /metrics
	programs []sessionProgram
	clients  int
	// next is each client's session count so far; it only advances.
	next []int
}

func newSession(seed int64, root string) (bench, error) {
	b, err := sessionInputs(seed)
	if err != nil {
		return nil, err
	}
	b.out = outDir(root)
	if b.cluster, err = loadgen.SpawnCluster(2, ""); err != nil {
		return nil, err
	}
	rm, err := b.routerMetrics()
	if err != nil {
		b.close()
		return nil, err
	}
	for _, r := range rm.Replicas {
		b.replicas = append(b.replicas, r.URL)
	}
	warm := b.drive(func(done int, _ time.Duration) bool {
		return done >= sessionWarmupPerClient
	}, nil)
	if warm.failed > 0 {
		b.close()
		return nil, fmt.Errorf("session warm-up: %d failed, first: %w", warm.failed, warm.firstErr)
	}
	return b, nil
}

// sessionInputs prepares what scriptFor needs — the four programs and
// the cycle each halts at — without starting the cluster.
func sessionInputs(seed int64) (*sessionBench, error) {
	b := &sessionBench{seed: seed, clients: numClients()}
	b.next = make([]int, b.clients)
	b.programs = []sessionProgram{
		{name: "programA", src: loadgen.ProgramA},
		{name: "programB", src: loadgen.ProgramB},
	}
	for _, name := range []string{"sort-insertion", "memcpy-stream"} {
		w, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("session: corpus has no %s", name)
		}
		b.programs = append(b.programs, sessionProgram{name: name, src: w.Source, entry: w.Entry})
	}
	for i := range b.programs {
		p := &b.programs[i]
		m, err := sim.NewFromAsm(sim.DefaultConfig(), p.src, p.entry)
		if err != nil {
			return nil, fmt.Errorf("session: reference build of %s: %w", p.name, err)
		}
		m.Run(50_000_000)
		if !m.Halted() || m.Cycle() <= headroom+1 {
			return nil, fmt.Errorf("session: %s unusable (halted=%v after %d cycles)", p.name, m.Halted(), m.Cycle())
		}
		p.halt = m.Cycle()
	}
	return b, nil
}

func (b *sessionBench) close() { b.cluster.Close() }

// scriptFor builds the i-th session of client c. Program choice and step
// sizes are seeded permutations of fixed multisets — every block of four
// sessions uses each program once, every session has exactly 30 +1, 5 −1
// and 5 +16 steps — so the work in a window does not depend on the seed,
// only its order does.
func (b *sessionBench) scriptFor(c, i int) *script {
	block := rand.New(rand.NewSource(seeds.Mix(seeds.Derive(b.seed, c*1_000_003+i/len(b.programs)))))
	order := block.Perm(len(b.programs))
	sc := &script{
		ordinal: i*b.clients + c,
		prog:    &b.programs[order[i%len(b.programs)]],
		restore: i%4 == 3,
	}
	rng := rand.New(rand.NewSource(seeds.Mix(seeds.Derive(b.seed, 500_000_009+sc.ordinal))))
	// The jump walks [jumpMin, jumpMax] (clamped to the program) in
	// strides of a fixed odd step from a seeded offset, so the jumps of
	// any run of sessions spread evenly over the range whatever the seed.
	top := min(int64(sc.prog.halt)-headroom, jumpMax)
	low := min(jumpMin, top)
	offset := int64(uint64(seeds.Mix(b.seed)) % 4096)
	sc.jump = low + (offset+int64(sc.ordinal)*jumpStride)%(top-low+1)
	k := 0
	for ; k < stepsFwd1; k++ {
		sc.steps[k] = 1
	}
	for ; k < stepsFwd1+stepsBack; k++ {
		sc.steps[k] = -1
	}
	for ; k < scriptSteps; k++ {
		sc.steps[k] = 16
	}
	rng.Shuffle(scriptSteps, func(i, j int) { sc.steps[i], sc.steps[j] = sc.steps[j], sc.steps[i] })
	return sc
}

// sessionResult is what a finished session leaves for the post-window
// check: its script and the bytes of its last checkpoint.
type sessionResult struct {
	sc       *script
	lastCkpt []byte
}

// runSession plays one script over HTTP, timing and checking every
// request. It stops at the first failed request (the session's state is
// unknown from there on) and closes what it opened.
func runSession(cl *client.Client, sc *script, rec *recorder) (lastCkpt []byte) {
	k := 0
	call := func(kind uint8, cycles uint64, do func() error) bool {
		start := time.Now()
		err := do()
		rec.note(kind, sc.reqID(k), start, cycles, err)
		k++
		return err == nil
	}
	var id string
	var cycle uint64
	ok := call(kindNew, 0, func() error {
		resp, err := cl.NewSession(sc.newRequest())
		if err != nil {
			return err
		}
		id = resp.SessionID
		return wantEqual("new session cycle", resp.State.Cycle, uint64(0))
	})
	if !ok {
		return nil
	}
	defer func() {
		call(kindClose, 0, func() error { return cl.CloseSession(id) })
	}()
	step := func(kind uint8, sid string, n int64) bool {
		adv := uint64(max(n, 0))
		return call(kind, adv, func() error {
			resp, err := cl.Step(sid, n)
			if err != nil {
				return err
			}
			cycle = uint64(int64(cycle) + n)
			return wantEqual("cycle after step", resp.State.Cycle, cycle)
		})
	}
	if !step(kindJump, id, sc.jump) {
		return nil
	}
	for i, n := range sc.steps {
		kind := kindStepFwd
		if n < 0 {
			kind = kindStepBack
		}
		if !step(kind, id, n) {
			return nil
		}
		if i+1 == scriptSteps/2 || i+1 == scriptSteps {
			ok := call(kindCheckpoint, 0, func() error {
				ck, err := cl.Checkpoint(id)
				if err != nil {
					return err
				}
				lastCkpt = ck.Checkpoint
				if !ck.Durable {
					return fmt.Errorf("checkpoint at cycle %d not durable", ck.Cycle)
				}
				return wantEqual("checkpoint cycle", ck.Cycle, cycle)
			})
			if !ok {
				return nil
			}
		}
	}
	if sc.restore {
		var rid string
		ok := call(kindRestore, 0, func() error {
			resp, err := cl.RestoreSession(lastCkpt)
			if err != nil {
				return err
			}
			rid = resp.SessionID
			return wantEqual("restored cycle", resp.State.Cycle, cycle)
		})
		if !ok {
			return nil
		}
		defer func() {
			call(kindClose, 0, func() error { return cl.CloseSession(rid) })
		}()
		if !step(kindStepFwd, rid, 1) {
			return nil
		}
	}
	return lastCkpt
}

// drive runs the closed loop through the router, gzip on: each client plays its next
// scripted session as soon as the previous one is closed, until stop
// says so (it is asked between sessions, so no session is cut short).
func (b *sessionBench) drive(stop func(done int, elapsed time.Duration) bool, spans []*tracer) *sessionTally {
	recs := make([]*recorder, b.clients)
	results := make([][]sessionResult, b.clients)
	clients := make([]*client.Client, b.clients)
	t0 := time.Now()
	for c := range recs {
		recs[c] = newRecorder(t0)
		if spans != nil {
			recs[c].spans = spans[c]
		}
		clients[c] = client.NewForURL(b.cluster.RouterURL, true)
	}
	host0 := snapHost()
	runClients(b.clients, func(c int) {
		for done := 0; !stop(done, time.Since(t0)); done++ {
			sc := b.scriptFor(c, b.next[c])
			b.next[c]++
			ck := runSession(clients[c], sc, recs[c])
			results[c] = append(results[c], sessionResult{sc: sc, lastCkpt: ck})
		}
	})
	st := &sessionTally{tally: mergeRecorders(recs, time.Since(t0), host0.until(snapHost()))}
	for _, r := range results {
		st.sessions = append(st.sessions, r...)
	}
	return st
}

type sessionTally struct {
	*tally
	sessions []sessionResult
}

func (b *sessionBench) measure(d time.Duration) *tally {
	m0, err := b.tierCounters()
	st := b.drive(func(_ int, elapsed time.Duration) bool { return elapsed >= d }, nil)
	st.window = d
	if err != nil {
		st.fail(err)
		return st.tally
	}
	b.verify(st)
	// The tier must have served the window cleanly: a router retry or a
	// shed request means the numbers describe a degraded system.
	m1, err := b.tierCounters()
	switch {
	case err != nil:
		st.fail(err)
	case m1.retries != m0.retries:
		st.fail(fmt.Errorf("router retried %d forwards", m1.retries-m0.retries))
	case m1.server.Shed != m0.server.Shed:
		st.fail(fmt.Errorf("replicas shed %d requests", m1.server.Shed-m0.server.Shed))
	}
	return st.tally
}

func (b *sessionBench) endToEnd(t *tally) map[string]float64 {
	return t.endToEnd(kindStepFwd, kindStepBack)
}

// verify is the post-window check of every finished session: restoring
// the last checkpoint the tier returned must give exactly the machine a
// local run of the same script reaches.
func (b *sessionBench) verify(st *sessionTally) {
	for _, r := range st.sessions {
		if r.lastCkpt == nil {
			continue // already counted as a failed request
		}
		if err := checkCheckpoint(r.sc, r.lastCkpt); err != nil {
			st.fail(err)
		}
	}
}

// checkCheckpoint restores a checkpoint and compares its state hash with
// a local machine driven through the same script.
func checkCheckpoint(sc *script, blob []byte) error {
	m, err := sim.Restore(bytes.NewReader(blob))
	if err != nil {
		return fmt.Errorf("session %d (%s): last checkpoint does not restore: %w", sc.ordinal, sc.prog.name, err)
	}
	want, err := replaySession(nil, sc, &replayCounts{}, nil)
	if err != nil {
		return err
	}
	return wantEqual(fmt.Sprintf("session %d (%s) StateHash", sc.ordinal, sc.prog.name), m.StateHash(), want)
}

// tierCounters are the counters of the router and the replicas that the
// workload requires to stay flat, plus the ones the trace reports.
type tierCounters struct {
	forwards, retries uint64
	breakerOpen       int
	server            api.Metrics // summed over replicas
}

func (b *sessionBench) routerMetrics() (*router.RouterMetrics, error) {
	resp, err := http.Get(b.cluster.RouterURL + "/admin/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var rm router.RouterMetrics
	if err := json.NewDecoder(resp.Body).Decode(&rm); err != nil {
		return nil, fmt.Errorf("router /admin/metrics: %w", err)
	}
	return &rm, nil
}

func (b *sessionBench) tierCounters() (*tierCounters, error) {
	rm, err := b.routerMetrics()
	if err != nil {
		return nil, err
	}
	tc := &tierCounters{forwards: rm.Forwards, retries: rm.Retries}
	for _, r := range rm.Replicas {
		if r.Breaker != "closed" {
			tc.breakerOpen++
		}
	}
	for _, u := range b.replicas {
		m, err := client.NewForURL(u, false).Metrics()
		if err != nil {
			return nil, fmt.Errorf("replica %s /metrics: %w", u, err)
		}
		tc.server.Requests += m.Requests
		tc.server.TotalNanos += m.TotalNanos
		tc.server.SimNanos += m.SimNanos
		tc.server.JSONNanos += m.JSONNanos
		tc.server.Shed += m.Shed
		tc.server.DeadlineExceeded += m.DeadlineExceeded
	}
	return tc, nil
}

// replaySession drives one script through the layers' public entry
// points in-process: with a tracer it is the traced replay (one span per
// layer crossing), without one it is the local reference machine of the
// post-window check. It returns the state hash at the last checkpoint.
func replaySession(tr *tracer, sc *script, c *replayCounts, st store.Store) (uint64, error) {
	codec := api.PooledCodec // what internal/client negotiates
	k := 0
	// request wraps one replayed request: the client's encode, the
	// server-side root span (decode -> work -> encode) and the client's
	// decode of the reply.
	request := func(req any, into any, work func() (any, error)) error {
		tr.request(sc.reqID(k))
		k++
		c.attempted++
		tr.begin("client.Encode")
		body, err := json.Marshal(req)
		tr.end()
		if err != nil {
			return err
		}
		c.reqBytes += len(body)
		var out bytes.Buffer
		tr.begin("request")
		err = func() error {
			defer tr.end()
			tr.begin("api.Decode")
			err := codec.Decode(bytes.NewReader(body), into)
			tr.end()
			if err != nil {
				return err
			}
			resp, err := work()
			if err != nil {
				return err
			}
			tr.begin("api.Encode")
			err = codec.Encode(&out, resp)
			tr.end()
			return err
		}()
		if err != nil {
			return err
		}
		c.respBytes += out.Len()
		tr.begin("client.Decode")
		var sink json.RawMessage
		err = json.Unmarshal(out.Bytes(), &sink)
		tr.end()
		return err
	}
	state := func(m *sim.Machine) *sim.State {
		tr.begin("sim.State")
		defer tr.end()
		return m.State(false)
	}

	closeSession := func() error {
		var req api.SessionCloseRequest
		return request(&api.SessionCloseRequest{SessionID: "s00000000"}, &req, func() (any, error) {
			return &api.SessionCloseResponse{Closed: true}, nil
		})
	}

	var m *sim.Machine
	var newReq api.SessionNewRequest
	err := request(sc.newRequest(), &newReq, func() (any, error) {
		tr.begin("server.BuildMachine")
		built, aerr := server.BuildMachine(&newReq.SimulateRequest)
		tr.end()
		if aerr != nil {
			return nil, aerr
		}
		m = built
		m.EnableSnapshots(0) // what the session endpoint does
		return &api.SessionNewResponse{SessionID: "s00000000", State: state(m)}, nil
	})
	if err != nil {
		return 0, err
	}
	step := func(m *sim.Machine, n int64) error {
		var req api.SessionStepRequest
		return request(&api.SessionStepRequest{SessionID: "s00000000", Steps: n}, &req, func() (any, error) {
			switch {
			case req.Steps == 1:
				tr.begin("sim.StepN(1)")
				c.cycles += m.StepN(1)
				tr.end()
			case req.Steps >= 0:
				tr.begin("sim.StepN")
				c.cycles += m.StepN(uint64(req.Steps))
				tr.end()
			default:
				tr.begin("sim.GotoCycle(back)")
				err := m.GotoCycle(uint64(int64(m.Cycle()) + req.Steps))
				tr.end()
				if err != nil {
					return nil, err
				}
			}
			return &api.SessionStateResponse{State: state(m)}, nil
		})
	}
	if err := step(m, sc.jump); err != nil {
		return 0, err
	}
	var blob []byte
	for i, n := range sc.steps {
		if err := step(m, n); err != nil {
			return 0, err
		}
		if i+1 != scriptSteps/2 && i+1 != scriptSteps {
			continue
		}
		var req api.SessionCheckpointRequest
		err := request(&api.SessionCheckpointRequest{SessionID: "s00000000"}, &req, func() (any, error) {
			var buf bytes.Buffer
			tr.begin("sim.Checkpoint")
			err := m.Checkpoint(&buf)
			tr.end()
			if err != nil {
				return nil, err
			}
			blob = buf.Bytes()
			c.ckptBytes += len(blob)
			if st != nil {
				tr.begin("store.Put")
				err = st.Put(sc.storeID(), uint64(i+1), blob)
				tr.end()
				if err != nil {
					return nil, err
				}
			}
			return &api.SessionCheckpointResponse{SessionID: req.SessionID, Cycle: m.Cycle(), Checkpoint: blob, Durable: true}, nil
		})
		if err != nil {
			return 0, err
		}
	}
	hash := m.StateHash()
	c.committed += m.Committed()
	c.snapshots += m.SnapshotCount()
	if sc.restore {
		var req api.SessionRestoreRequest
		var rm *sim.Machine
		err := request(&api.SessionRestoreRequest{Checkpoint: blob}, &req, func() (any, error) {
			tr.begin("sim.Restore")
			restored, err := sim.Restore(bytes.NewReader(req.Checkpoint))
			tr.end()
			if err != nil {
				return nil, err
			}
			rm = restored
			rm.EnableSnapshots(0)
			return &api.SessionNewResponse{SessionID: "s00000001", State: state(rm)}, nil
		})
		if err != nil {
			return 0, err
		}
		if err := step(rm, 1); err != nil {
			return 0, err
		}
		if err := closeSession(); err != nil {
			return 0, err
		}
	}
	return hash, closeSession()
}

func (b *sessionBench) trace(d time.Duration, tr *tracer) (map[string]float64, outcome) {
	layers, untracedRate, out := referenceWindow(b, d)

	// Traced HTTP phase. Every client plays each of its scripts three
	// times back to back — through the router with gzip (the workload
	// itself, the arm that gets client spans), through the router without
	// gzip, and with gzip directly on a replica — so the gzip and hop
	// costs are differences between arms that saw the same requests under
	// the same load at the same time.
	perClient := max(int(sessionTraceSessions*d.Seconds()/refSeconds)/b.clients, 1)
	clientSpans := make([]*tracer, b.clients)
	for c := range clientSpans {
		clientSpans[c] = newTracer(tr.t0, (c+1)<<24)
	}
	before, err := b.tierCounters()
	if err != nil {
		out.absorb(failedOutcome(err))
		return layers, out
	}
	arms := b.driveArms(perClient, clientSpans)
	after, err := b.tierCounters()
	if err != nil {
		out.absorb(failedOutcome(err))
		return layers, out
	}
	for _, a := range arms {
		out.absorb(a.outcome)
	}
	own := arms[armRouterGzip]
	for k, v := range serverLayers(before.server, after.server) {
		layers[k] = v
	}
	for k, v := range clientLayers(own.samples, kindStepFwd, kindStepBack) {
		layers[k] = v
	}
	stepP50 := func(a *armTally) float64 {
		lat := append(latencyOf(a.samples, kindStepFwd), latencyOf(a.samples, kindStepBack)...)
		return median(lat) * 1e3
	}
	layers["server.gzip_us"] = stepP50(own) - stepP50(arms[armRouterPlain])
	layers["router.hop_us"] = stepP50(own) - stepP50(arms[armDirectGzip])
	layers["router.forwards"] = float64(after.forwards - before.forwards)
	layers["router.retries"] = float64(after.retries - before.retries)
	layers["router.breaker_open"] = float64(after.breakerOpen)
	ratio, err := b.gzipRatio()
	if err != nil {
		out.absorb(failedOutcome(err))
	}
	layers["server.gzip_ratio"] = ratio
	layers["host.trace_overhead_pct"] = overheadPct(untracedRate, float64(len(own.samples))/own.busy.Seconds())

	// In-process replay of the same scripts, one goroutine, checkpoints
	// written to a real in-memory store.
	counts := &replayCounts{}
	mem := store.NewMem()
	var ids []string
	for i := 0; i < perClient; i++ {
		for c := 0; c < b.clients; c++ {
			sc := b.scriptFor(c, traceStart+i)
			if _, err := replaySession(tr, sc, counts, mem); err != nil {
				counts.fail(err)
				continue
			}
			ids = append(ids, sc.storeID())
		}
	}
	if err := probeStores(tr, mem, ids, b.out); err != nil {
		counts.absorb(failedOutcome(err))
	}
	for k, v := range spanLayers(tr.spans, counts) {
		layers[k] = v
	}
	layers["server.unattributed_us"] = unattributedUS(own.samples, tr.spans,
		layers["client.gen_us_per_op"]+layers["server.gzip_us"]+layers["router.hop_us"])
	for _, cs := range clientSpans {
		tr.spans = append(tr.spans, cs.spans...)
	}
	out.absorb(counts.outcome)
	return layers, out
}

const (
	armRouterGzip = iota
	armRouterPlain
	armDirectGzip
	numArms
)

// armTally is one arm's samples plus the time its requests kept the
// clients busy (the arms interleave, so wall time is shared).
type armTally struct {
	*tally
	busy time.Duration
}

// driveArms plays perClient scripts per client, each in all three arms.
// Only the workload's own arm is verified against the local reference
// and records client spans; the other two exist to be subtracted.
func (b *sessionBench) driveArms(perClient int, spans []*tracer) [numArms]*armTally {
	t0 := time.Now()
	recs := make([][numArms]*recorder, b.clients)
	busy := make([][numArms]time.Duration, b.clients)
	results := make([][]sessionResult, b.clients)
	runClients(b.clients, func(c int) {
		// Every client's direct arm uses the same replica: IDs a replica
		// generates itself are unique only per replica, and two replicas
		// handing out the same ID would meet in the shared store.
		direct := b.replicas[0]
		cls := [numArms]*client.Client{
			client.NewForURL(b.cluster.RouterURL, true),
			client.NewForURL(b.cluster.RouterURL, false),
			client.NewForURL(direct, true),
		}
		for a := range recs[c] {
			recs[c][a] = newRecorder(t0)
		}
		recs[c][armRouterGzip].spans = spans[c]
		for i := 0; i < perClient; i++ {
			sc := b.scriptFor(c, traceStart+i)
			// Rotate which arm goes first so none always runs on a
			// freshly warmed cache.
			for j := 0; j < numArms; j++ {
				a := (i + j) % numArms
				start := time.Now()
				ck := runSession(cls[a], sc, recs[c][a])
				busy[c][a] += time.Since(start)
				if a == armRouterGzip {
					results[c] = append(results[c], sessionResult{sc: sc, lastCkpt: ck})
				}
			}
		}
	})
	var out [numArms]*armTally
	for a := range out {
		var armRecs []*recorder
		var total time.Duration
		for c := range recs {
			armRecs = append(armRecs, recs[c][a])
			total += busy[c][a]
		}
		out[a] = &armTally{tally: mergeRecorders(armRecs, 0, hostDelta{}), busy: total / time.Duration(b.clients)}
	}
	own := &sessionTally{tally: out[armRouterGzip].tally}
	for _, r := range results {
		own.sessions = append(own.sessions, r...)
	}
	b.verify(own)
	return out
}

// gzipRatio is server.gzip_ratio measured at the wire: one probe session
// through the router whose replies are read compressed, so the ratio is
// of the bytes that actually crossed the socket to the JSON they carry.
func (b *sessionBench) gzipRatio() (float64, error) {
	hc := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer hc.CloseIdleConnections()
	var wire, plain int
	post := func(path string, req, into any) error {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		hreq, err := http.NewRequest(http.MethodPost, b.cluster.RouterURL+api.V1Prefix+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		hreq.Header.Set("Content-Type", api.MediaTypeJSON)
		hreq.Header.Set("Accept-Encoding", "gzip")
		resp, err := hc.Do(hreq)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Encoding") != "gzip" {
			return fmt.Errorf("gzip probe %s: HTTP %d, Content-Encoding %q", path, resp.StatusCode, resp.Header.Get("Content-Encoding"))
		}
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return err
		}
		data, err := io.ReadAll(zr)
		if err != nil {
			return err
		}
		wire += len(raw)
		plain += len(data)
		return json.Unmarshal(data, into)
	}
	sc := b.scriptFor(0, 0)
	var created api.SessionNewResponse
	if err := post("/session/new", sc.newRequest(), &created); err != nil {
		return 0, err
	}
	var st api.SessionStateResponse
	for _, n := range append([]int64{sc.jump}, sc.steps[:]...) {
		if err := post("/session/step", &api.SessionStepRequest{SessionID: created.SessionID, Steps: n}, &st); err != nil {
			return 0, err
		}
	}
	var closed api.SessionCloseResponse
	if err := post("/session/close", &api.SessionCloseRequest{SessionID: created.SessionID}, &closed); err != nil {
		return 0, err
	}
	return float64(wire) / float64(plain), nil
}

// probeStores completes the store.* group on the replay's real
// checkpoint blobs: Get from the in-memory store the replay wrote them
// to, then Put and Get on a directory store under the benchmark's own
// out/ directory (informational: that one is the disk's speed).
func probeStores(tr *tracer, mem *store.Mem, ids []string, out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(out, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := store.NewDir(dir)
	if err != nil {
		return err
	}
	tr.request(0)
	for _, id := range ids {
		tr.begin("store.Get")
		blob, _, err := mem.Get(id)
		tr.end()
		if err != nil {
			return err
		}
		tr.begin("store.Dir.Put")
		err = disk.Put(id, 1, blob)
		tr.end()
		if err != nil {
			return err
		}
		tr.begin("store.Dir.Get")
		got, _, err := disk.Get(id)
		tr.end()
		if err != nil {
			return err
		}
		if !bytes.Equal(got, blob) {
			return fmt.Errorf("store.Dir returned different bytes for %s", id)
		}
	}
	return nil
}
