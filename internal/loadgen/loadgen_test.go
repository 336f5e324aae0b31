package loadgen

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"riscvsim/internal/api"
	"riscvsim/internal/server"
)

func tinyScenario(users int) Scenario {
	return Scenario{
		Users:        users,
		StepsPerUser: 3,
		StepSize:     1,
		RampUp:       20 * time.Millisecond,
		ThinkTime:    5 * time.Millisecond,
		Gzip:         true,
		Programs:     []string{ProgramA, ProgramB},
	}
}

func TestRunDirect(t *testing.T) {
	srv := server.New(server.DefaultOptions())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	res, err := Run(ts.URL, tinyScenario(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Errorf("%d request errors", res.Errors)
	}
	// 4 users x (1 new + 3 steps) = 16 requests.
	if res.Requests != 16 {
		t.Errorf("requests = %d, want 16", res.Requests)
	}
	if res.Median <= 0 || res.P90 < res.Median {
		t.Errorf("latencies inconsistent: median=%v p90=%v", res.Median, res.P90)
	}
	if res.Throughput <= 0 {
		t.Error("throughput not computed")
	}
}

// TestRunCountsOnlySuccesses: a server that creates sessions but rejects
// every step at once. Each user's session/new succeeds and its first step
// fails, so the row holds one served request and one error per user, and
// the fast rejections are neither latency samples nor throughput.
func TestRunCountsOnlySuccesses(t *testing.T) {
	srv := server.New(server.DefaultOptions()).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == api.V1Prefix+"/session/step" {
			http.Error(w, "shed", http.StatusTooManyRequests)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	res, err := Run(ts.URL, tinyScenario(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 4 || res.Errors != 4 {
		t.Errorf("requests = %d, errors = %d; want 4 served session/new and 4 failed steps", res.Requests, res.Errors)
	}
	if want := float64(res.Requests) / res.Duration.Seconds(); res.Throughput != want {
		t.Errorf("throughput = %.2f/s, want served requests over the run, %.2f/s", res.Throughput, want)
	}
}

// TestRunThroughCluster drives the paper's workload through the router
// onto three replicas over a directory store, the compose topology minus
// containers.
func TestRunThroughCluster(t *testing.T) {
	c, err := SpawnCluster(3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sc := tinyScenario(4)
	sc.StepsPerUser, sc.StepSize = 5, 20
	res, err := Run(c.RouterURL, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Errorf("%d request errors through the router", res.Errors)
	}
	// 4 users x (1 new + 5 steps) = 24 requests.
	if res.Requests != 4*6 {
		t.Errorf("requests = %d, want 24", res.Requests)
	}
}

func TestRunThroughDockerShim(t *testing.T) {
	srv := server.New(server.DefaultOptions())
	shim := &DockerShim{ProxyDelay: 3 * time.Millisecond, Parallelism: 1}
	ts := httptest.NewServer(shim.Wrap(srv.Handler()))
	defer ts.Close()
	res, err := Run(ts.URL, tinyScenario(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Errorf("%d request errors", res.Errors)
	}
	// Every request pays at least the proxy delay.
	if res.Median < 3*time.Millisecond {
		t.Errorf("median %v below the shim's proxy delay", res.Median)
	}
}

// TestDockerShimLimitsConcurrencyAndDelays pins the two mechanisms the
// shim models, neither of which depends on how loaded the host is: the
// wrapped handler never runs more than Parallelism calls at once, and no
// request completes in under ProxyDelay.
func TestDockerShimLimitsConcurrencyAndDelays(t *testing.T) {
	const requests = 16
	var running, peak atomic.Int32
	inner := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		n := running.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(time.Millisecond) // hold the slot so calls would overlap if allowed to
		running.Add(-1)
	})
	shim := (&DockerShim{ProxyDelay: 2 * time.Millisecond, Parallelism: 2}).Wrap(inner)

	took := make([]time.Duration, requests)
	var wg sync.WaitGroup
	for i := range took {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			shim.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
			took[i] = time.Since(start)
		}(i)
	}
	wg.Wait()
	if got := peak.Load(); got < 1 || got > int32(shim.Parallelism) {
		t.Errorf("peak concurrency in the wrapped handler = %d, want 1..%d", got, shim.Parallelism)
	}
	for i, d := range took {
		if d < shim.ProxyDelay {
			t.Errorf("request %d completed in %v, under the %v proxy delay", i, d, shim.ProxyDelay)
		}
	}
}

func TestPaperScenarioShape(t *testing.T) {
	sc := PaperScenario(30, 1.0)
	if sc.Users != 30 || sc.StepsPerUser != 40 {
		t.Errorf("scenario = %+v", sc)
	}
	if sc.RampUp != 4*time.Second || sc.ThinkTime != time.Second {
		t.Error("paper timings wrong")
	}
	if !sc.Gzip || len(sc.Programs) != 2 {
		t.Error("paper scenario must use gzip and two programs")
	}
}

func TestScenarioValidation(t *testing.T) {
	if _, err := Run("http://localhost:1", Scenario{}); err == nil {
		t.Error("empty scenario should fail")
	}
}

func TestResultString(t *testing.T) {
	r := Result{Mode: "Direct", Users: 30, Median: 70 * time.Millisecond,
		P90: 118 * time.Millisecond, Throughput: 25.96}
	s := r.String()
	for _, want := range []string{"Direct", "30", "70.00", "25.96"} {
		if !strings.Contains(s, want) {
			t.Errorf("row %q missing %q", s, want)
		}
	}
}
