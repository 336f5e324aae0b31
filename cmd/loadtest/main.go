// Command loadtest reproduces the paper's Table I end-to-end: it launches
// (or targets) a simulation server and drives the paper's load scenarios —
// {Direct, Docker} × {30, 100} users, each performing 40 interactive
// simulation steps with a 4 s ramp-up and 1 s think time, gzip enabled —
// reporting median latency, 90th-percentile latency and throughput.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"riscvsim/internal/loadgen"
	"riscvsim/internal/server"
)

func main() {
	var (
		url         = flag.String("url", "", "target server URL (empty = spawn in-process servers)")
		users       = flag.String("users", "30,100", "comma-separated user counts")
		timeScale   = flag.Float64("time-scale", 1.0, "scale factor for ramp-up and think time (1.0 = the paper's real-time pacing)")
		noDocker    = flag.Bool("skip-docker", false, "skip the Docker-shim scenarios")
		batch       = flag.Int("batch", 0, "run an HPC sweep of N simulations via POST /api/v1/batch vs sequential /simulate and exit")
		multi       = flag.Int("multi", 0, "distributed mode: drive the scenarios through a consistent-hash router over N replicas (in-process when -url is empty, else -url must be a simrouter) and emit the capacity model")
		capacityOut = flag.String("capacity-out", "", "with -multi, also write the capacity model JSON to this file")
		seed        = flag.Int64("seed", 0, "deterministic user→program assignment seed (0 = round-robin); same plumbing as riscvsim -fuzz-seed")
	)
	flag.Parse()

	if *batch > 0 {
		runBatchComparison(*url, *batch)
		return
	}
	if *multi > 0 {
		runMulti(*url, *multi, *users, *timeScale, *seed, *capacityOut)
		return
	}

	var counts []int
	for _, f := range splitInts(*users) {
		counts = append(counts, f)
	}
	if len(counts) == 0 {
		fmt.Fprintln(os.Stderr, "loadtest: no user counts")
		os.Exit(2)
	}

	fmt.Println("Table I reproduction — measured latency and throughput")
	fmt.Printf("workload: 40 interactive steps/user, ramp-up %v, think time %v, gzip on\n\n",
		time.Duration(float64(4*time.Second)**timeScale),
		time.Duration(float64(time.Second)**timeScale))

	runRow := func(mode string, base string, n int) {
		sc := loadgen.PaperScenario(n, *timeScale)
		sc.Seed = *seed
		res, err := loadgen.Run(base, sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadtest: %s %d users: %v\n", mode, n, err)
			return
		}
		res.Mode = mode
		fmt.Println(res.String())
	}

	if *url != "" {
		for _, n := range counts {
			runRow("Remote", *url, n)
		}
		return
	}

	// Direct rows.
	direct := server.New(server.DefaultOptions())
	tsDirect := httptest.NewServer(direct.Handler())
	for _, n := range counts {
		runRow("Direct", tsDirect.URL, n)
	}
	tsDirect.Close()

	if *noDocker {
		return
	}
	// Docker rows via the containerization shim (loadgen.DockerShim).
	dockerized := server.New(server.DefaultOptions())
	shim := loadgen.DefaultDockerShim(dockerized.Handler())
	tsDocker := httptest.NewServer(shim)
	for _, n := range counts {
		runRow("Docker", tsDocker.URL, n)
	}
	tsDocker.Close()
}

// runMulti reproduces the deployment tier's capacity measurement: the
// paper scenarios driven through the session router (docs/deployment.md)
// instead of one server, reporting router-path latency, requests/s and
// the sessions-per-GB storage figure.
func runMulti(url string, replicas int, users string, timeScale float64, seed int64, capacityOut string) {
	base := url
	if base == "" {
		cluster, err := loadgen.SpawnCluster(replicas, "")
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadtest: %v\n", err)
			os.Exit(1)
		}
		defer cluster.Close()
		base = cluster.RouterURL
	} else if n, err := loadgen.HealthyReplicas(base); err != nil {
		fmt.Fprintf(os.Stderr, "loadtest: %s is not a simrouter (%v)\n", base, err)
		os.Exit(1)
	} else if n < replicas {
		fmt.Fprintf(os.Stderr, "loadtest: router reports %d healthy replicas, want %d\n", n, replicas)
		os.Exit(1)
	}

	fmt.Printf("Distributed capacity model — %d replicas behind the session router\n\n", replicas)
	var models []*loadgen.CapacityModel
	for _, n := range splitInts(users) {
		sc := loadgen.PaperScenario(n, timeScale)
		sc.Seed = seed
		m, err := loadgen.RunMulti(base, replicas, sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadtest: multi %d users: %v\n", n, err)
			os.Exit(1)
		}
		fmt.Println(m.String())
		models = append(models, m)
	}
	if capacityOut != "" {
		data, err := json.MarshalIndent(models, "", "  ")
		if err == nil {
			err = os.WriteFile(capacityOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadtest: writing %s: %v\n", capacityOut, err)
			os.Exit(1)
		}
		fmt.Printf("\ncapacity model written to %s\n", capacityOut)
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

func splitInts(s string) []int {
	var out []int
	cur := 0
	has := false
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if has {
				out = append(out, cur)
			}
			cur, has = 0, false
			continue
		}
		if s[i] >= '0' && s[i] <= '9' {
			cur = cur*10 + int(s[i]-'0')
			has = true
		}
	}
	return out
}
