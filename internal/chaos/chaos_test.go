package chaos

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"riscvsim/internal/api"
	"riscvsim/internal/client"
)

// TestPlanDeterminism: fault decisions are a pure function of
// (seed, site, occurrence) — two plans with the same seed produce
// identical decision streams, a different seed produces a different
// one, and disabling a plan neither fires nor consumes positions.
func TestPlanDeterminism(t *testing.T) {
	cfg := DefaultFaults(42)
	a, b := NewPlan(cfg), NewPlan(cfg)
	sites := []string{"store.put.err", "store.get.corrupt", "net.sim1.drop", "net.sim2.torn"}
	var streamA, streamB []bool
	for i := 0; i < 200; i++ {
		site := sites[i%len(sites)]
		streamA = append(streamA, a.Decide(site, 0.3))
		streamB = append(streamB, b.Decide(site, 0.3))
	}
	for i := range streamA {
		if streamA[i] != streamB[i] {
			t.Fatalf("decision %d diverged between identical plans", i)
		}
	}
	fired := 0
	for _, d := range streamA {
		if d {
			fired++
		}
	}
	if fired == 0 || fired == len(streamA) {
		t.Fatalf("degenerate decision stream: %d/%d fired", fired, len(streamA))
	}

	other := NewPlan(DefaultFaults(43))
	diverged := false
	for i := 0; i < 200; i++ {
		site := sites[i%len(sites)]
		if other.Decide(site, 0.3) != streamA[i] {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("seed 43 replayed seed 42's decisions")
	}

	a.Disable()
	for i := 0; i < 50; i++ {
		if a.Decide("store.put.err", 1.0) {
			t.Fatal("disabled plan fired a fault")
		}
	}
}

// TestHealthProbesBypassFaults: the router probes GET /api/v1/health on a
// wall-clock ticker, so a probe that reached the fault sites would consume
// net.<replica>.* stream positions at timing-dependent moments and make a
// -chaos-seed replay depend on probe timing. With every connection set to
// drop, the probe must still pass through clean.
func TestHealthProbesBypassFaults(t *testing.T) {
	plan := NewPlan(Config{Seed: 1, NetDrop: 1})
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	ts := httptest.NewServer(faultMiddleware(plan, "sim1", ok))
	defer ts.Close()

	resp, err := http.Get(ts.URL + api.V1Prefix + "/health")
	if err != nil {
		t.Fatalf("health probe hit an injected fault: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("health probe status %d, want 200", resp.StatusCode)
	}
	// The middleware is live: any other path is dropped.
	if resp, err := http.Get(ts.URL + api.V1Prefix + "/metrics"); err == nil {
		resp.Body.Close()
		t.Error("NetDrop=1 did not drop a non-probe request")
	}
}

// TestScheduleDeterminism: same inputs, same schedule.
func TestScheduleDeterminism(t *testing.T) {
	reps := []string{"sim1", "sim2", "sim3"}
	s1 := BuildSchedule(7, 300, 4, reps)
	s2 := BuildSchedule(7, 300, 4, reps)
	if len(s1) != len(s2) {
		t.Fatalf("lengths differ: %d vs %d", len(s1), len(s2))
	}
	kinds := map[string]int{}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, s1[i], s2[i])
		}
		kinds[s1[i].Kind]++
	}
	for _, k := range []string{OpCreate, OpStep, OpCheckpoint, OpKill, OpRevive} {
		if kinds[k] == 0 {
			t.Fatalf("schedule of 300 ops never produced %s (got %v)", k, kinds)
		}
	}
}

// TestChaosCampaignInvariantsHold is the core soak: several seeds, all
// fault classes on, every schedule must finish with zero invariant
// violations — the tier absorbs the faults (retries, failover, typed
// errors) without ever losing acked state or leaking an untyped error.
func TestChaosCampaignInvariantsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaign is seconds-long")
	}
	for seed := int64(1); seed <= 4; seed++ {
		cfg := DefaultFaults(seed)
		sched := BuildSchedule(seed, 60, 4, []string{"sim1", "sim2", "sim3"})
		res, err := Run(cfg, sched)
		if err != nil {
			t.Fatalf("seed %d: harness error: %v", seed, err)
		}
		if res.Failed() {
			t.Fatalf("seed %d: invariant violations:\n  %s", seed, strings.Join(res.Violations, "\n  "))
		}
		if res.Outcomes["ok"] == 0 {
			t.Fatalf("seed %d: no operation succeeded — harness is not exercising the tier (%v)", seed, res.Outcomes)
		}
	}
}

// TestChaosMovesRobustnessMetrics: a chaos run must be visible in the
// router's robustness counters — forwards always, and under injected
// replica faults at least one of retries / breaker trips.
func TestChaosMovesRobustnessMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a cluster")
	}
	cfg := DefaultFaults(11)
	cfg.NetDrop = 0.25 // hot enough that the router must retry
	plan := NewPlan(cfg)
	cl, err := SpawnCluster(plan)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sched := BuildSchedule(11, 50, 3, cl.ReplicaNames())
	res, err := runOn(plan, cl, sched)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("violations: %v", res.Violations)
	}
	m := cl.Router().Metrics()
	if m.Forwards == 0 {
		t.Fatal("router forwarded nothing")
	}
	if m.Retries == 0 && m.RetriesDenied == 0 {
		t.Fatalf("25%% connection drops produced zero router retries: %+v", m)
	}
}

// TestInjectedCheckpointLossIsCaughtAndMinimized is the harness's
// self-test: with the DropAckedPuts bug planted in the store, some
// schedule must end with an acked-checkpoint-loss violation, and
// Minimize must shrink it to a still-failing prefix.
func TestInjectedCheckpointLossIsCaughtAndMinimized(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaign is seconds-long")
	}
	// A borderline schedule can fail once and then pass on re-run
	// (the fault stream is deterministic, goroutine interleaving is
	// not), so don't bet on the first failing seed minimizing: walk
	// the seeds and succeed on the first one that both fails and
	// shrinks to a still-failing prefix.
	caught := 0
	for seed := int64(1); seed <= 10; seed++ {
		cfg := Config{Seed: seed, DropAckedPuts: true, DropAckedPutsRate: 0.9}
		sched := BuildSchedule(seed, 60, 4, []string{"sim1", "sim2", "sim3"})
		res, err := Run(cfg, sched)
		if err != nil {
			t.Fatalf("seed %d: harness error: %v", seed, err)
		}
		if !res.Failed() {
			continue
		}
		caught++
		minimized, minRes, err := Minimize(cfg, sched)
		if err != nil {
			t.Logf("seed %d caught the bug but did not re-fail under Minimize: %v", seed, err)
			continue
		}
		if !minRes.Failed() {
			t.Fatal("minimized schedule does not fail")
		}
		if len(minimized) > len(sched) {
			t.Fatalf("minimized schedule grew: %d > %d", len(minimized), len(sched))
		}
		t.Logf("bug caught at seed %d, minimized %d ops -> %d ops: %s",
			seed, len(sched), len(minimized), minRes.Violations[0])
		return
	}
	if caught == 0 {
		t.Fatal("DropAckedPuts bug survived 10 chaos schedules undetected")
	}
	t.Fatalf("bug caught in %d/10 schedules but none minimized to a still-failing prefix", caught)
}

// TestOverloadDrill: a burst far beyond a replica's admission capacity
// must resolve into only successes and typed over_capacity /
// node_unavailable outcomes — never untyped errors, hangs, or
// collapse — and the tier must serve normally again right after the
// burst. Shed counters on both the server and the router must move.
func TestOverloadDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a cluster")
	}
	plan := NewPlan(Config{
		Seed:         1,
		Replicas:     1,
		MaxInFlight:  1,
		MaxQueue:     1,
		QueueTimeout: 20 * time.Millisecond,
	})
	cl, err := SpawnCluster(plan)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const burst = 24
	outcomes := make([]string, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := client.NewForURL(cl.RouterURL, false) // no retry policy: observe raw outcomes
			_, err := c.Simulate(&api.SimulateRequest{Code: loopProgram, Steps: 200_000})
			if err == nil {
				outcomes[i] = "ok"
			} else {
				outcomes[i] = client.ErrorCode(err)
			}
		}(i)
	}
	wg.Wait()

	shed := 0
	for i, o := range outcomes {
		switch o {
		case "ok":
		case api.CodeOverCapacity:
			shed++
		case api.CodeNodeUnavailable:
		default:
			t.Fatalf("burst request %d: outcome %q is not a typed overload outcome", i, o)
		}
	}
	if shed == 0 {
		t.Fatalf("burst of %d over capacity 1+1 shed nothing: %v", burst, outcomes)
	}

	// Recovery: the next plain request must succeed promptly (well
	// within one health-probe interval of the burst draining).
	c := client.NewForURL(cl.RouterURL, false)
	c.SetRetryPolicy(client.RetryPolicy{MaxRetries: 3, BaseBackoff: 20 * time.Millisecond})
	start := time.Now()
	if _, err := c.Simulate(&api.SimulateRequest{Code: loopProgram, Steps: 100}); err != nil {
		t.Fatalf("request after burst failed: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("recovery took %v", d)
	}

	if m := cl.Router().Metrics(); m.Shed == 0 {
		t.Errorf("router relayed no shed responses: %+v", m)
	}
	mresp, err := c.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if mresp.Shed == 0 {
		t.Errorf("server shed counter did not move: %+v", mresp)
	}
}
