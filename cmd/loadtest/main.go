// Command loadtest reproduces the paper's Table I end-to-end: it launches
// (or targets) a simulation server and drives the paper's load scenarios —
// {Direct, Docker} × {30, 100} users, each performing 40 interactive
// simulation steps with a 4 s ramp-up and 1 s think time, gzip enabled —
// reporting median latency, 90th-percentile latency and throughput. With
// -url it drives one Remote row per user count against that server (or a
// simrouter). It exits 2 on a malformed -users and 1 when a row saw a
// failed request.
package main

import (
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"riscvsim/internal/loadgen"
	"riscvsim/internal/server"
)

func main() {
	var (
		url       = flag.String("url", "", "target server URL (empty = spawn in-process servers)")
		users     = flag.String("users", "30,100", "comma-separated user counts")
		timeScale = flag.Float64("time-scale", 1.0, "scale factor for ramp-up and think time (1.0 = the paper's real-time pacing)")
		noDocker  = flag.Bool("skip-docker", false, "skip the Docker-shim scenarios")
		batch     = flag.Int("batch", 0, "run an HPC sweep of N simulations via POST /api/v1/batch vs sequential /simulate and exit")
		seed      = flag.Int64("seed", 0, "deterministic user→program assignment seed (0 = round-robin); same plumbing as riscvsim -fuzz-seed")
	)
	flag.Parse()
	counts, err := parseCounts(*users)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadtest: -users: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	if *batch > 0 {
		runBatchComparison(*url, *batch)
		return
	}

	fmt.Println("Table I reproduction — measured latency and throughput")
	fmt.Printf("workload: 40 interactive steps/user, ramp-up %v, think time %v, gzip on\n\n",
		time.Duration(float64(4*time.Second)**timeScale),
		time.Duration(float64(time.Second)**timeScale))

	// A row with a failed request fails the command, so a CI step that
	// runs loadtest is a check.
	failed := false
	rows := func(mode string, base string) {
		for _, n := range counts {
			sc := loadgen.PaperScenario(n, *timeScale)
			sc.Seed = *seed
			res, err := loadgen.Run(base, sc)
			if err != nil {
				fmt.Fprintf(os.Stderr, "loadtest: %s %d users: %v\n", mode, n, err)
				failed = true
				continue
			}
			res.Mode = mode
			fmt.Println(res.String())
			if res.Errors > 0 {
				fmt.Fprintf(os.Stderr, "loadtest: %s %d users: %d requests failed\n", mode, n, res.Errors)
				failed = true
			}
		}
	}

	if *url != "" {
		rows("Remote", *url)
	} else {
		direct := httptest.NewServer(server.New(server.DefaultOptions()).Handler())
		rows("Direct", direct.URL)
		direct.Close()
		if !*noDocker {
			// Docker rows via the containerization shim (loadgen.DockerShim).
			docker := httptest.NewServer(loadgen.DefaultDockerShim(server.New(server.DefaultOptions()).Handler()))
			rows("Docker", docker.URL)
			docker.Close()
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runBatchComparison demonstrates the v1 batch endpoint: the same N-way
// width sweep as one /api/v1/batch round trip fanned out across the
// server's cores versus N sequential /api/v1/simulate calls.
func runBatchComparison(url string, n int) {
	base := url
	if base == "" {
		srv := server.New(server.DefaultOptions())
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		base = ts.URL
	}
	reqs := loadgen.WidthSweepRequests(n, loadgen.ProgramA, 100_000)

	seq, err := loadgen.SequentialSweep(base, reqs, true)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadtest: sequential sweep: %v\n", err)
		os.Exit(1)
	}
	bat, err := loadgen.BatchSweep(base, reqs, true)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadtest: batch sweep: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("HPC sweep, %d simulations:\n", n)
	fmt.Printf("  sequential /api/v1/simulate: %10v  (%d failed)\n", seq.Wall, seq.Failed)
	fmt.Printf("  one POST   /api/v1/batch:    %10v  (%d workers, server fan-out %v, %d failed)\n",
		bat.Wall, bat.Workers, bat.ServerWall, bat.Failed)
	if bat.Wall > 0 {
		fmt.Printf("  speedup: %.2fx\n", float64(seq.Wall)/float64(bat.Wall))
	}
}

// parseCounts reads -users: comma-separated positive integers.
func parseCounts(s string) ([]int, error) {
	var counts []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("%q is not a positive user count", f)
		}
		counts = append(counts, n)
	}
	return counts, nil
}
