// Package loadgen reproduces the paper's load-testing methodology (§IV-A)
// without Apache JMeter: N simulated users, each interactively stepping a
// simulation for a fixed number of requests, with a ramp-up period and a
// think-time pause between requests. It reports median latency, 90th
// percentile latency and throughput — the columns of the paper's Table I.
package loadgen

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"riscvsim/internal/api"
	"riscvsim/internal/client"
	"riscvsim/internal/seeds"
)

// Scenario describes one load test. The paper's Table I scenarios are 30
// and 100 users, 40 interactive steps each, 4 s ramp-up and 1 s think
// time, with gzip enabled.
type Scenario struct {
	// Users is the number of concurrent simulated users.
	Users int
	// StepsPerUser is the number of interactive simulation steps each
	// user performs.
	StepsPerUser int
	// StepSize is how many cycles each interactive step advances.
	StepSize int64
	// RampUp spreads user start times over this window.
	RampUp time.Duration
	// ThinkTime is the pause between a user's requests.
	ThinkTime time.Duration
	// Gzip enables request/response compression.
	Gzip bool
	// Programs are the assembly sources users simulate; users are
	// assigned round-robin ("one of two programs" in the paper).
	Programs []string
	// TimeScale scales RampUp and ThinkTime (e.g. 0.02 to run the
	// paper's 1 s think time as 20 ms in a benchmark). 0 means 1.0.
	TimeScale float64
	// Seed randomizes the user→program assignment deterministically
	// through the shared seed-plumbing helper (internal/seeds): user u
	// simulates Programs[seeds.Mix(seeds.Derive(Seed, u)) % len]. 0
	// keeps the paper's plain round-robin assignment.
	Seed int64
}

// PaperScenario returns the paper's Table I workload for the given user
// count, time-scaled for practical benching.
func PaperScenario(users int, timeScale float64) Scenario {
	return Scenario{
		Users:        users,
		StepsPerUser: 40,
		StepSize:     1,
		RampUp:       4 * time.Second,
		ThinkTime:    1 * time.Second,
		Gzip:         true,
		Programs:     []string{ProgramA, ProgramB},
		TimeScale:    timeScale,
	}
}

// ProgramA is the first test program: an arithmetic loop.
const ProgramA = `
li t0, 0
li t1, 1
li t2, 200
loop:
  add t0, t0, t1
  addi t1, t1, 1
  bne t1, t2, loop
`

// ProgramB is the second test program: memory traffic over an array.
const ProgramB = `
la t0, buf
li t1, 0
li t2, 64
loop:
  slli t3, t1, 2
  add t3, t0, t3
  sw t1, 0(t3)
  lw t4, 0(t3)
  addi t1, t1, 1
  bne t1, t2, loop

.data
buf: .zero 256
`

// Result is one Table I row. Requests, the latencies and Throughput
// count successful requests only; Errors counts the failed ones.
type Result struct {
	Mode       string        `json:"mode"`
	Users      int           `json:"users"`
	Requests   int           `json:"requests"`
	Errors     int           `json:"errors"`
	Median     time.Duration `json:"median"`
	P90        time.Duration `json:"p90"`
	Throughput float64       `json:"throughputPerSec"`
	Duration   time.Duration `json:"duration"`
}

// String renders the row like the paper's table.
func (r *Result) String() string {
	return fmt.Sprintf("%-8s %4d users   median %8.2f ms   p90 %8.1f ms   %7.2f trans/s",
		r.Mode, r.Users,
		float64(r.Median.Microseconds())/1000,
		float64(r.P90.Microseconds())/1000,
		r.Throughput)
}

// Run executes the scenario against a server base URL.
func Run(baseURL string, sc Scenario) (*Result, error) {
	if sc.Users <= 0 || sc.StepsPerUser <= 0 {
		return nil, fmt.Errorf("loadgen: scenario needs users and steps")
	}
	scale := sc.TimeScale
	if scale <= 0 {
		scale = 1
	}
	rampUp := time.Duration(float64(sc.RampUp) * scale)
	think := time.Duration(float64(sc.ThinkTime) * scale)
	programs := sc.Programs
	if len(programs) == 0 {
		programs = []string{ProgramA}
	}
	stepSize := sc.StepSize
	if stepSize <= 0 {
		stepSize = 1
	}

	latCh := make(chan time.Duration, sc.Users*(sc.StepsPerUser+1))
	errCh := make(chan error, sc.Users*(sc.StepsPerUser+1))
	var wg sync.WaitGroup
	start := time.Now()

	for u := 0; u < sc.Users; u++ {
		wg.Add(1)
		pick := u % len(programs)
		if sc.Seed != 0 {
			pick = int(uint64(seeds.Mix(seeds.Derive(sc.Seed, u))) % uint64(len(programs)))
		}
		prog := programs[pick]
		delay := time.Duration(0)
		if sc.Users > 1 {
			delay = rampUp * time.Duration(u) / time.Duration(sc.Users)
		}
		go func(prog string, delay time.Duration) {
			defer wg.Done()
			time.Sleep(delay)
			c := client.NewForURL(baseURL, sc.Gzip)
			// A failed request is an error, never a sample: a fast
			// rejection must not pull the latencies down or the
			// throughput up.
			served := func(t0 time.Time, err error) bool {
				if err != nil {
					errCh <- err
					return false
				}
				latCh <- time.Since(t0)
				return true
			}
			t0 := time.Now()
			sess, err := c.NewSession(&api.SessionNewRequest{
				SimulateRequest: api.SimulateRequest{Code: prog},
			})
			if !served(t0, err) {
				return
			}
			for i := 0; i < sc.StepsPerUser; i++ {
				time.Sleep(think)
				t0 = time.Now()
				if _, err := c.Step(sess.SessionID, stepSize); !served(t0, err) {
					return
				}
			}
			c.CloseSession(sess.SessionID)
		}(prog, delay)
	}
	wg.Wait()
	total := time.Since(start)
	close(latCh)
	close(errCh)

	var lats []time.Duration
	for l := range latCh {
		lats = append(lats, l)
	}
	errCount := 0
	var firstErr error
	for e := range errCh {
		errCount++
		if firstErr == nil {
			firstErr = e
		}
	}
	if len(lats) == 0 {
		return nil, fmt.Errorf("loadgen: no requests completed (first error: %v)", firstErr)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	res := &Result{
		Users:    sc.Users,
		Requests: len(lats),
		Errors:   errCount,
		Median:   lats[len(lats)/2],
		P90:      lats[len(lats)*9/10],
		Duration: total,
	}
	if total > 0 {
		res.Throughput = float64(len(lats)) / total.Seconds()
	}
	return res, nil
}
